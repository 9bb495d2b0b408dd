import argparse
import json
from dataclasses import fields

import pytest

from lorafa.adapters import Mode
from lorafa.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    _override,
    _run_config_from_args,
    build_parser,
    main,
)
from lorafa.memory import Modifiers
from lorafa.model import ModelConfig
from lorafa.train import RunConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_train_writes_report(tmp_path, capsys):
    report = tmp_path / "run.json"
    code, out, _ = run_cli(
        capsys, "train", "--task", "copy", "--mode", "lora-fa", "--rank", "2",
        "--lr", "1e-2", "--steps", "3", "--seed", "1",
        "--d", "16", "--layers", "1", "--heads", "2", "--vocab", "12",
        "--seq-len", "8", "--batch-size", "4", "--n-examples", "16",
        "--report", str(report),
    )
    assert code == EXIT_OK
    on_disk = report.read_text()
    assert on_disk == out.strip()
    parsed = json.loads(on_disk)
    assert parsed["status"] == "ok"
    assert len(parsed["loss_curve"]) == 3


def test_train_config_file_with_flag_override(tmp_path, capsys):
    cfg = {
        "model": {"d": 16, "n_layers": 1, "n_heads": 2, "vocab": 12,
                  "seq_len": 8, "batch_size": 4},
        "mode": "lora", "rank": 2, "lr": 1e-2, "steps": 2,
        "task": "copy", "n_examples": 16, "seed": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "train", "--config", str(path), "--steps", "4")
    assert code == EXIT_OK
    parsed = json.loads(out)
    assert parsed["config"]["steps"] == 4          # flag wins
    assert parsed["config"]["mode"] == "lora"      # file survives


def test_train_divergence_exit_code(capsys):
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run_cli(
            capsys, "train", "--mode", "ft", "--optimizer", "sgd", "--lr", "1e150",
            "--steps", "20", "--d", "16", "--layers", "1", "--heads", "2",
            "--vocab", "12", "--seq-len", "8", "--batch-size", "4", "--n-examples", "16",
        )
    assert code == EXIT_DIVERGED
    assert json.loads(out)["status"] == "diverged"


def test_config_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "train", "--d", "15", "--heads", "2")
    assert code == EXIT_CONFIG
    assert "config error" in err


@pytest.mark.parametrize("file_cfg,named", [
    ({"steps": 1, "lr_decay": 0.5}, "lr_decay"),
    ({"model": {"depth": 2}}, "depth"),
    ([1, 2], "JSON object"),
    ({"model": 5}, "JSON object"),
])
def test_malformed_config_file_is_config_error(tmp_path, capsys, file_cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(file_cfg))
    code, _, err = run_cli(capsys, "train", "--config", str(path))
    assert code == EXIT_CONFIG
    assert named in err


@pytest.mark.parametrize("file_cfg,named", [
    ({"steps": "5"}, "steps must be an integer"),
    ({"lr": "1e-3"}, "lr must be a number"),
    ({"rank": 2.5}, "rank must be an integer"),
    ({"alpha": True}, "alpha must be a number"),
    ({"model": {"d": "64"}}, "d must be an integer"),
    ({"model": {"d": None}}, "d must be an integer"),
])
def test_mistyped_config_value_is_config_error(tmp_path, capsys, file_cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(file_cfg))
    code, _, err = run_cli(capsys, "train", "--config", str(path))
    assert code == EXIT_CONFIG
    assert named in err


@pytest.mark.parametrize("flag", ["--equiv-every", "--warmup-steps", "--weight-decay"])
def test_negative_run_flag_is_config_error(capsys, flag):
    code, _, err = run_cli(capsys, "train", "--steps", "1", flag, "-1")
    assert code == EXIT_CONFIG
    assert "must be >= 0" in err


def test_sweep_outputs(tmp_path, capsys):
    prefix = tmp_path / "grid"
    code, out, _ = run_cli(
        capsys, "sweep", "--task", "copy", "--mode", "lora-fa",
        "--steps", "2", "--d", "16", "--layers", "1", "--heads", "2",
        "--vocab", "12", "--seq-len", "8", "--batch-size", "4",
        "--n-examples", "16", "--ranks", "1,2", "--lrs", "1e-2,1e-3",
        "--out", str(prefix),
    )
    assert code == EXIT_OK
    grid = json.loads(out)
    assert len(grid["cells"]) == 4
    csv = (tmp_path / "grid.csv").read_text().splitlines()
    assert csv[0] == "rank,lr,final_loss,status"
    assert len(csv) == 5
    assert json.loads((tmp_path / "grid.json").read_text()) == grid


@pytest.mark.parametrize("ranks,lrs,named", [
    ("1", "nan", "lr must be finite"),
    ("1", "-1", "lr must be positive"),
    ("0", "1e-2", "rank 0 is below 1"),
    ("17", "1e-2", "rank 17 exceeds min(d, d_ff) = 16"),
])
def test_sweep_bad_axis_value_is_config_error(capsys, ranks, lrs, named):
    code, out, err = run_cli(
        capsys, "sweep", "--steps", "1", "--d", "16", "--layers", "1", "--heads", "2",
        "--vocab", "12", "--seq-len", "8", "--batch-size", "4", "--n-examples", "8",
        "--ranks", ranks, "--lrs", lrs,
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert named in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--ranks", "8", "--lrs", "0.01", "--steps", "1"],
    ["train", "--rank", "8", "--steps", "1"],
    ["memreport", "--rank", "8"],
    ["memreport", "--rank", "8", "--probe"],
])
def test_rank_above_d_ff_is_config_error(capsys, argv):
    code, out, err = run_cli(
        capsys, *argv, "--d", "16", "--d-ff", "4", "--mode", "lora-fa", "--heads", "2"
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert "rank 8 exceeds min(d, d_ff) = 4" in err


def test_each_train_flag_sets_the_config_field_of_its_name(tmp_path):
    report = str(tmp_path / "run.json")
    model_flags = {
        "--d": ("d", 24), "--layers": ("n_layers", 3), "--heads": ("n_heads", 6),
        "--vocab": ("vocab", 17), "--seq-len": ("seq_len", 9),
        "--batch-size": ("batch_size", 5), "--d-ff": ("d_ff", 40),
    }
    run_flags = {
        "--task": ("task", "reverse"), "--mode": ("mode", Mode.LORA), "--rank": ("rank", 3),
        "--alpha": ("alpha", 0.75), "--lr": ("lr", 0.125), "--optimizer": ("optimizer", "sgd"),
        "--weight-decay": ("weight_decay", 0.25), "--steps": ("steps", 7),
        "--seed": ("seed", 11), "--n-examples": ("n_examples", 13),
        "--warmup-steps": ("warmup_steps", 2), "--equiv-every": ("equiv_every", 5),
        "--report": ("report_path", report),
    }
    assert {name for name, _ in model_flags.values()} == {f.name for f in fields(ModelConfig)}
    assert {name for name, _ in run_flags.values()} == {f.name for f in fields(RunConfig)} - {"model"}
    argv = ["train"]
    for flag, (_, value) in {**model_flags, **run_flags}.items():
        argv += [flag, value.value if isinstance(value, Mode) else str(value)]
    cfg = _run_config_from_args(build_parser().parse_args(argv))
    for name, value in model_flags.values():
        assert getattr(cfg.model, name) == value, name
    for name, value in run_flags.values():
        assert getattr(cfg, name) == value, name


# The command-line surface, per subcommand: dest -> (option strings, type,
# default, choices); a switch has type None. The flags of a config field
# default to None, so only a given flag overrides the config.
MODEL_FLAGS = {
    "d": (["--d"], int, None, None),
    "n_layers": (["--layers"], int, None, None),
    "n_heads": (["--heads"], int, None, None),
    "vocab": (["--vocab"], int, None, None),
    "seq_len": (["--seq-len"], int, None, None),
    "batch_size": (["--batch-size"], int, None, None),
    "d_ff": (["--d-ff"], int, None, None),
}
MODE_RANK_SEED_FLAGS = {
    "mode": (["--mode"], str, None, ["ft", "lora", "lora-fa", "frozen"]),
    "rank": (["--rank"], int, None, None),
    "seed": (["--seed"], int, None, None),
}
RUN_FLAGS = {
    "config": (["--config"], str, None, None),
    **MODE_RANK_SEED_FLAGS,
    "alpha": (["--alpha"], float, None, None),
    "optimizer": (["--optimizer"], str, None, ["adamw", "sgd"]),
    "lr": (["--lr"], float, None, None),
    "weight_decay": (["--weight-decay"], float, None, None),
    "steps": (["--steps"], int, None, None),
    "task": (["--task"], str, None, ["copy", "reverse", "char-lm"]),
    "n_examples": (["--n-examples"], int, None, None),
    "warmup_steps": (["--warmup-steps"], int, None, None),
    "equiv_every": (["--equiv-every"], int, None, None),
    "report_path": (["--report"], str, None, None),
    **MODEL_FLAGS,
}
SURFACE = {
    "train": RUN_FLAGS,
    "sweep": {
        **RUN_FLAGS,
        "ranks": (["--ranks"], str, None, None),
        "lrs": (["--lrs"], str, None, None),
        "out": (["--out"], str, None, None),
    },
    "memreport": {
        **MODEL_FLAGS,
        **MODE_RANK_SEED_FLAGS,
        "weight_bits": (["--weight-bits"], int, None, [16, 8, 4]),
        "num_shards": (["--num-shards"], int, None, None),
        "full_recompute": (["--full-recompute"], None, None, None),
        "probe": (["--probe"], None, False, None),
    },
    "equiv": {
        "seed": (["--seed"], int, 0, None),
        "layers": (["--layers"], int, 100, None),
        "samples": (["--samples"], int, 100_000, None),
    },
    "gradcheck": {
        "seed": (["--seed"], int, 0, None),
        "trials": (["--trials"], int, 20, None),
    },
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_cli_surface(command):
    actions = [a for a in _subparsers()[command]._actions if a.dest != "help"]
    got = {
        a.dest: (a.option_strings, a.type, a.default, a.choices and list(a.choices))
        for a in actions
    }
    assert got == SURFACE[command]
    assert {a.dest for a in actions if a.required} == (
        {"ranks", "lrs"} if command == "sweep" else set()
    )
    for a in actions:
        assert (a.nargs == 0) == (a.type is None), a.dest  # the switches take no value


def test_memreport_unset_flags_resolve_to_the_run_defaults():
    args = build_parser().parse_args(["memreport"])
    cfg = _run_config_from_args(args)
    assert (cfg.mode, cfg.rank, cfg.seed) == (Mode.LORA_FA, 8, 0)
    assert cfg.model == ModelConfig(d=64, n_layers=2, n_heads=4, vocab=32, seq_len=16, batch_size=16)
    assert Modifiers(**_override({}, args, Modifiers)) == Modifiers(16, 1, False)


def test_memreport_prints_both_models(capsys):
    code, out, _ = run_cli(
        capsys, "memreport", "--mode", "lora-fa", "--rank", "4",
        "--d", "32", "--layers", "2", "--heads", "4",
        "--batch-size", "2", "--seq-len", "8",
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert "analytic_paper_constant" in rep and "analytic_per_layer_count" in rep
    pc = rep["analytic_paper_constant"]["activation_bytes_linear"]
    plc = rep["analytic_per_layer_count"]["activation_bytes_linear"]
    assert plc == 1.5 * pc


def test_memreport_quantization_quarters_weight_bytes(capsys):
    args = ["memreport", "--mode", "ft", "--d", "32", "--layers", "2",
            "--heads", "4", "--batch-size", "2", "--seq-len", "8"]
    _, out16, _ = run_cli(capsys, *args)
    _, out4, _ = run_cli(capsys, *args, "--weight-bits", "4")
    r16 = json.loads(out16)["analytic_paper_constant"]
    r4 = json.loads(out4)["analytic_paper_constant"]
    assert r4["weight_bytes"] == r16["weight_bytes"] / 4
    assert r4["trainable_state_bytes"] == r16["trainable_state_bytes"]
    assert r4["activation_bytes_linear"] == r16["activation_bytes_linear"]


def test_memreport_probe_reconciles(capsys):
    code, out, _ = run_cli(
        capsys, "memreport", "--mode", "lora", "--rank", "2", "--d", "16",
        "--layers", "1", "--heads", "2", "--vocab", "12",
        "--batch-size", "2", "--seq-len", "8", "--probe",
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["reconciliation"]["match"] is True
    assert rep["measured"]["linear_low_elements"] == 6 * 1 * 2 * 8 * 2


@pytest.mark.parametrize("argv", [
    ["--d", "0", "--rank", "0"],
    ["--layers", "0"],
    ["--seq-len", "0"],
    ["--rank", "0"],
    ["--rank", "-3"],
])
def test_memreport_bad_sizes_are_config_errors(capsys, argv):
    code, out, err = run_cli(capsys, "memreport", *argv)
    assert code == EXIT_CONFIG
    assert out == "" and "config error" in err


def test_memreport_counts_layers_without_enumerating_them(capsys):
    huge = str(10**200)
    code, out, _ = run_cli(capsys, "memreport", "--layers", huge, "--batch-size", "1")
    assert code == EXIT_OK
    rep = json.loads(out)
    # lora-fa at rank 8, s 16: 6 linears keep b s r elements per block, 2 bytes each
    assert rep["analytic_per_layer_count"]["activation_bytes_linear"] == float(2 * 6 * 16 * 8 * 10**200)
    code, out, err = run_cli(capsys, "memreport", "--d", huge, "--heads", "1")
    assert code == EXIT_CONFIG
    assert out == "" and "float range" in err


@pytest.mark.parametrize("argv", [
    ["--d", str(10**200), "--heads", "1"],  # once a TypeError from np.sqrt(d)
    ["--vocab", str(2**62)],
    ["--seq-len", str(2**31), "--batch-size", "4"],
])
def test_train_geometry_beyond_numpy_arrays_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, "train", "--steps", "0", *argv)
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith("config error:") and err.count("\n") == 1
    assert "largest array" in err


def test_train_out_of_memory_is_config_error(capsys, monkeypatch):
    # A geometry within numpy's index range can still exceed memory; build
    # it only in a stub, never for real.
    def build_model(*args, **kw):
        raise MemoryError("Unable to allocate 23.8 GiB for an array")

    monkeypatch.setattr("lorafa.train.build_model", build_model)
    code, out, err = run_cli(capsys, "train", "--steps", "0", "--d", "16", "--heads", "2")
    assert code == EXIT_CONFIG
    assert out == "" and err == "config error: Unable to allocate 23.8 GiB for an array\n"


def test_train_rank_zero_is_config_error(capsys):
    code, _, err = run_cli(capsys, "train", "--steps", "1", "--rank", "0")
    assert code == EXIT_CONFIG
    assert "rank 0" in err


def test_equiv_command_passes(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--seed", "0", "--layers", "10",
                           "--samples", "100000")
    assert code == EXIT_OK
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    assert [v["check"] for v in verdicts] == [
        "sgd_compression_equivalence", "unbiasedness", "subspace"
    ]
    assert all(v["pass"] for v in verdicts)


def test_gradcheck_command_passes(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--seed", "3", "--trials", "3")
    assert code == EXIT_OK
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    assert all(v["pass"] for v in verdicts)
    names = {v["check"] for v in verdicts}
    assert "primitive:matmul" in names and "model:lora-fa" in names


@pytest.mark.parametrize("argv", [
    ("gradcheck", "--trials", "0"),
    ("gradcheck", "--trials", "-2"),
    ("equiv", "--samples", "0"),
    ("equiv", "--layers", "0"),
    ("equiv", "--layers", "-1"),
])
def test_counts_below_one_are_config_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "must be >= 1" in err


@pytest.mark.parametrize("text,named", [
    ('{"lr": Infinity}', "lr must be finite"),
    ('{"weight_decay": NaN}', "weight_decay must be finite"),
    ('{"alpha": Infinity}', "alpha must be finite"),
    ('{"report_path": 7}', "report_path must be a string"),
])
def test_bad_config_values_are_config_errors(tmp_path, capsys, text, named):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "train", "--steps", "1", "--config", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert named in err


@pytest.mark.parametrize("name", ["lr", "weight_decay"])
def test_integer_config_values_beyond_int64_end_in_a_typed_exit(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: 10**23}))
    code, out, _ = run_cli(
        capsys, "train", "--steps", "2", "--d", "16", "--layers", "1", "--heads", "2",
        "--vocab", "12", "--seq-len", "8", "--batch-size", "2", "--n-examples", "8",
        "--config", str(path),
    )
    assert code in (EXIT_OK, EXIT_DIVERGED)
    assert json.loads(out)["config"][name] == 10**23


def test_integer_config_value_beyond_the_float_range_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"lr": 1' + "0" * 400 + "}")
    code, out, err = run_cli(capsys, "train", "--steps", "1", "--config", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert "lr must be finite" in err


def test_unknown_subcommand_is_argparse_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
