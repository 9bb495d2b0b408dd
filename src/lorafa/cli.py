"""Command-line interface: train, sweep, memreport, equiv, gradcheck.

Exit codes: 0 success, 1 check failure, 2 configuration error,
3 divergence, 4 reconciliation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields

from . import gradcheck, memory
from .adapters import Mode, init_adapter
from .equivalence import SUBSPACE_PASS_RESIDUAL, estimate_unbiasedness, subspace_check, verify_sgd_equivalence
from .errors import LorafaError, NumericsError, ParameterError, ReconciliationError
from .model import ModelConfig, build_model, check_rank, forward_loss
from .rng import RngState, derive, randint, randn
from .train import RunConfig, dumps_canonical, sweep, train_run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_RECONCILE = 4


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=None, help="hidden dimension")
    p.add_argument("--layers", dest="n_layers", type=int, default=None, help="number of blocks")
    p.add_argument("--heads", dest="n_heads", type=int, default=None, help="attention heads")
    p.add_argument("--vocab", type=int, default=None)
    p.add_argument("--seq-len", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--d-ff", type=int, default=None)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON run config; flags override")
    p.add_argument("--task", type=str, default=None, choices=["copy", "reverse", "char-lm"])
    p.add_argument("--mode", type=str, default=None,
                   choices=[m.value for m in Mode])
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--optimizer", type=str, default=None, choices=["adamw", "sgd"])
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-examples", type=int, default=None)
    p.add_argument("--warmup-steps", type=int, default=None)
    p.add_argument("--equiv-every", type=int, default=None)
    p.add_argument("--report", dest="report_path", type=str, default=None,
                   help="write the JSON report here")
    _add_model_flags(p)


# The CLI's model geometry and mode; every other run default is RunConfig's.
_RUN_DEFAULTS = {
    "model": {
        "d": 64, "n_layers": 2, "n_heads": 4, "vocab": 32,
        "seq_len": 16, "batch_size": 16, "d_ff": None,
    },
    "mode": "lora-fa",
    **{f.name: f.default for f in fields(RunConfig) if f.default is not MISSING},
}

def _override(cfg: dict, args: argparse.Namespace, cls) -> dict:
    """cfg with every field of dataclass cls whose flag (dest = field name) was given."""
    for f in fields(cls):
        val = getattr(args, f.name, None)
        if val is not None:
            cfg[f.name] = val
    return cfg


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = json.loads(json.dumps(_RUN_DEFAULTS))  # deep copy
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict) or not isinstance(file_cfg.get("model", {}), dict):
            raise ParameterError("config file must hold a JSON object; its 'model' too")
        model_part = file_cfg.pop("model", {})
        cfg["model"].update(model_part)
        cfg.update(file_cfg)
    _override(cfg["model"], args, ModelConfig)
    _override(cfg, args, RunConfig)
    return RunConfig.from_dict(cfg)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _run_config_from_args(args)
    report = train_run(cfg)
    text = report.to_json()
    if cfg.report_path:
        with open(cfg.report_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return EXIT_DIVERGED if report.status == "diverged" else EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _run_config_from_args(args)
    ranks = [int(x) for x in args.ranks.split(",") if x]
    lrs = [float(x) for x in args.lrs.split(",") if x]
    grid = sweep(base, ranks, lrs)
    print(grid.to_json())
    if args.out:
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            fh.write(grid.to_json())
        with open(args.out + ".csv", "w", encoding="utf-8") as fh:
            fh.write(grid.to_csv())
    return EXIT_OK


def cmd_memreport(args: argparse.Namespace) -> int:
    config = ModelConfig(**_override(dict(_RUN_DEFAULTS["model"]), args, ModelConfig))
    mode = Mode(args.mode)
    check_rank(config, mode, args.rank)
    mods = memory.Modifiers(
        weight_bits=args.weight_bits,
        num_shards=args.num_shards,
        full_recompute=args.full_recompute,
    )
    b, s = config.batch_size, config.seq_len
    out = {
        "analytic_paper_constant": memory.analytic_report(
            config, mode, args.rank, b, s, mods, "paper_constant").to_dict(),
        "analytic_per_layer_count": memory.analytic_report(
            config, mode, args.rank, b, s, mods, "per_layer_count").to_dict(),
    }
    if args.probe:
        m = build_model(config, mode, args.rank, None, RngState(args.seed))
        rng = derive(RngState(args.seed), "memreport-probe")
        tokens = randint(rng, 0, config.vocab, (b, s))
        targets = randint(rng, 0, config.vocab, (b, s))
        _, tape = forward_loss(m, tokens, targets)
        measured = memory.measured_activation_elements(tape)
        out["measured"] = measured.to_dict()
        out["reconciliation"] = memory.reconcile(config, mode, args.rank, measured, b, s)
    print(dumps_canonical(out))
    return EXIT_OK


def cmd_equiv(args: argparse.Namespace) -> int:
    for flag in ("layers", "samples"):
        if getattr(args, flag) < 1:
            raise ParameterError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    rng = RngState(args.seed)
    all_pass = True

    worst = 0.0
    for _ in range(args.layers):
        d_in, d_out = (int(v) for v in randint(rng, 2, 24, (2,)))
        r = int(randint(rng, 1, min(d_in, d_out) + 1, ()))
        layer = init_adapter(d_in, d_out, r, None, Mode.LORA_FA, rng)
        layer.b[:] = randn(layer.b.shape, rng)
        x = randn((2, 3, d_in), rng)
        dy = randn((2, 3, d_out), rng)
        worst = max(worst, verify_sgd_equivalence(layer, x, dy, eta=0.1))
    ok = worst < 1e-10
    all_pass &= ok
    print(dumps_canonical({"check": "sgd_compression_equivalence",
                           "layers": args.layers, "max_abs_discrepancy": worst,
                           "threshold": 1e-10, "pass": ok}))

    err = estimate_unbiasedness(8, 4, args.samples, rng)
    ok = err < 0.02
    all_pass &= ok
    print(dumps_canonical({"check": "unbiasedness", "d": 8, "rank": 4,
                           "samples": args.samples, "rel_error": err,
                           "threshold": 0.02, "pass": ok}))

    layer = init_adapter(16, 8, 4, None, Mode.LORA_FA, rng)
    layer.b[:] = randn(layer.b.shape, rng)
    delta = layer.alpha * (layer.a @ layer.b)
    rep = subspace_check(layer.a, delta)
    ok = rep.residual < SUBSPACE_PASS_RESIDUAL and rep.numerical_rank <= 4
    all_pass &= ok
    print(dumps_canonical({"check": "subspace", "residual": rep.residual,
                           "numerical_rank": rep.numerical_rank, "rank_bound": 4,
                           "pass": ok}))
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_gradcheck(args: argparse.Namespace) -> int:
    all_pass = True
    for name, err in gradcheck.check_primitives(args.seed, args.trials).items():
        ok = err < 1e-5
        all_pass &= ok
        print(dumps_canonical({"check": f"primitive:{name}", "max_rel_error": err,
                               "threshold": 1e-5, "pass": ok}))
    for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA):
        err = gradcheck.check_adapter_layer(mode, args.seed)
        ok = err < 1e-5
        all_pass &= ok
        print(dumps_canonical({"check": f"adapter:{mode.value}", "max_rel_error": err,
                               "threshold": 1e-5, "pass": ok}))
        err = gradcheck.check_tiny_model(mode, args.seed)
        ok = err < 1e-4
        all_pass &= ok
        print(dumps_canonical({"check": f"model:{mode.value}", "max_rel_error": err,
                               "threshold": 1e-4, "pass": ok}))
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lorafa")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training configuration")
    _add_run_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep", help="grid over ranks and learning rates")
    _add_run_flags(p)
    p.add_argument("--ranks", type=str, required=True, help="comma-separated, e.g. 1,4,8")
    p.add_argument("--lrs", type=str, required=True, help="comma-separated, e.g. 1e-3,3e-4")
    p.add_argument("--out", type=str, default=None, help="prefix for .json/.csv outputs")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("memreport", help="analytic memory breakdown, optionally measured")
    _add_model_flags(p)
    p.add_argument("--mode", type=str, default=_RUN_DEFAULTS["mode"],
                   choices=[m.value for m in Mode])
    p.add_argument("--rank", type=int, default=_RUN_DEFAULTS["rank"])
    p.add_argument("--weight-bits", type=int, default=16, choices=[16, 8, 4])
    p.add_argument("--num-shards", type=int, default=1)
    p.add_argument("--full-recompute", action="store_true")
    p.add_argument("--probe", action="store_true", help="also measure via a real forward")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_memreport)

    p = sub.add_parser("equiv", help="gradient-compression equivalence checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=100, help="random layers for the SGD identity")
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ReconciliationError as exc:
        print(f"reconciliation failure: {exc}", file=sys.stderr)
        return EXIT_RECONCILE
    except NumericsError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (LorafaError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
