"""Command-line interface: train, sweep, memreport, equiv, gradcheck.

Exit codes: 0 success, 1 check failure, 2 configuration error,
3 divergence, 4 reconciliation failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import tracemalloc
from dataclasses import fields, is_dataclass
from typing import get_args, get_type_hints

from . import equivalence, gradcheck, memory, optim, tasks
from .adapters import Mode, init_adapter
from .errors import (LorafaError, NumericsError, ParameterError, ReconciliationError,
                     require_number)
from .model import ModelConfig, backward, build_model, forward_loss
from .rng import RngState, derive, randint, randn
from .train import RunConfig, dumps_canonical, sweep, train_run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_RECONCILE = 4

# glibc's mallopt parameters (malloc.h) and the values main fixes them at.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 64 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20  # the ceiling of glibc's dynamic threshold (64-bit)


# Flags not named after their field with dashes.
_FLAG_NAMES = {"n_layers": "--layers", "n_heads": "--heads", "report_path": "--report"}

# Allowed values per field; the config dataclasses check the same constants.
_CHOICES = {"mode": [m.value for m in Mode], "task": tasks.TASK_KINDS,
            "optimizer": optim.OPTIMIZERS}


def _add_flags(p: argparse.ArgumentParser, cls, names=None) -> None:
    """One flag per field of dataclass cls (only those in names, if given).

    dest is the field name and the default None, so a flag overrides its
    field only when given. The type is the field's, Optional[...]
    unwrapped, and a Mode is parsed as its string. A field holding a
    dataclass (RunConfig.model) gets no flag.
    """
    for name, kind in get_type_hints(cls).items():
        if (names is not None and name not in names) or is_dataclass(kind):
            continue
        flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        kind = (get_args(kind) or (kind,))[0]  # Optional[X] is Union[X, None]
        p.add_argument(flag, dest=name, type=str if kind is Mode else kind, default=None,
                       choices=_CHOICES.get(name))


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON run config; flags override")
    _add_flags(p, RunConfig)
    _add_flags(p, ModelConfig)


# The CLI's model geometry and mode; every other run default is RunConfig's.
_RUN_DEFAULTS = {
    "model": {
        "d": 64, "n_layers": 2, "n_heads": 4, "vocab": 32,
        "seq_len": 16, "batch_size": 16, "d_ff": None,
    },
    "mode": "lora-fa",
}

def _override(cfg: dict, args: argparse.Namespace, cls) -> dict:
    """cfg with every field of dataclass cls whose flag (dest = field name) was given."""
    for f in fields(cls):
        val = getattr(args, f.name, None)
        if val is not None:
            cfg[f.name] = val
    return cfg


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    """The validated RunConfig: defaults, then the --config file, then the given flags."""
    cfg = json.loads(json.dumps(_RUN_DEFAULTS))  # deep copy
    if getattr(args, "config", None):  # memreport has no --config
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict) or not isinstance(file_cfg.get("model", {}), dict):
            raise ParameterError("config file must hold a JSON object; its 'model' too")
        cfg["model"].update(file_cfg.pop("model", {}))
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
    cfg = _run_config_from_args(args)
    config, mode, rank = cfg.model, cfg.mode, cfg.rank
    b, s = config.batch_size, config.seq_len
    out = {
        f"analytic_{model}": memory.analytic_report(config, mode, rank, b, s, model).to_dict()
        for model in ("paper_constant", "per_layer_count")
    }
    if args.probe:
        m = build_model(config, mode, rank, None, RngState(cfg.seed))
        rng = derive(RngState(cfg.seed), "memreport-probe")
        tokens = randint(rng, 0, config.vocab, (b, s))
        targets = randint(rng, 0, config.vocab, (b, s))
        # One untraced step first, so that the traced one meets the caches and
        # free lists of a process that has stepped, as the benchmark's gate
        # does, and its peak repeats to the byte between processes.
        backward(m, forward_loss(m, tokens, targets)[1])
        tracemalloc.start()  # this process's allocations during one forward + backward
        try:
            _, tape = forward_loss(m, tokens, targets)
            measured = memory.measured_activation_elements(tape)  # before backward consumes it
            backward(m, tape)
            out["step_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["measured"] = measured.to_dict()
        out["retained_bytes"] = (
            measured.linear_full + measured.linear_low + measured.other
        ) * m.tok_emb.dtype.itemsize
        out["reconciliation"] = memory.reconcile(config, mode, rank, measured, b, s)
    print(dumps_canonical(out))
    return EXIT_OK


def _verdict(record: dict, key: str, value: float, threshold: float) -> bool:
    """Print record with value under key, the threshold and whether value < threshold."""
    ok = value < threshold
    print(dumps_canonical({**record, key: value, "threshold": threshold, "pass": ok}))
    return ok


def cmd_equiv(args: argparse.Namespace) -> int:
    for flag in ("layers", "samples"):
        require_number(f"--{flag}", getattr(args, flag), integral=True, at_least=1)
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
        worst = max(worst, equivalence.verify_sgd_equivalence(layer, x, dy, eta=0.1))
    all_pass &= _verdict({"check": "sgd_compression_equivalence", "layers": args.layers},
                         "max_abs_discrepancy", worst, equivalence.SGD_PASS_DISCREPANCY)

    err = equivalence.estimate_unbiasedness(8, 4, args.samples, rng)
    all_pass &= _verdict({"check": "unbiasedness", "d": 8, "rank": 4, "samples": args.samples},
                         "rel_error", err, equivalence.UNBIASED_PASS_REL_ERROR)

    layer = init_adapter(16, 8, 4, None, Mode.LORA_FA, rng)
    layer.b[:] = randn(layer.b.shape, rng)
    delta = layer.alpha * (layer.a @ layer.b)
    rep = equivalence.subspace_check(layer.a, delta)
    ok = rep.residual < equivalence.SUBSPACE_PASS_RESIDUAL and rep.numerical_rank <= 4
    all_pass &= ok
    print(dumps_canonical({"check": "subspace", "residual": rep.residual,
                           "numerical_rank": rep.numerical_rank, "rank_bound": 4,
                           "pass": ok}))
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_gradcheck(args: argparse.Namespace) -> int:
    all_pass = True
    for name, err in gradcheck.check_primitives(args.seed, args.trials).items():
        all_pass &= _verdict({"check": f"primitive:{name}"}, "max_rel_error", err,
                             gradcheck.PRIMITIVE_PASS_REL_ERROR)
    for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA):
        all_pass &= _verdict({"check": f"adapter:{mode.value}"}, "max_rel_error",
                             gradcheck.check_adapter_layer(mode, args.seed),
                             gradcheck.ADAPTER_PASS_REL_ERROR)
        all_pass &= _verdict({"check": f"model:{mode.value}"}, "max_rel_error",
                             gradcheck.check_tiny_model(mode, args.seed),
                             gradcheck.MODEL_PASS_REL_ERROR)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lorafa")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training configuration")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep", help="grid over ranks and learning rates")
    _add_config_flags(p)
    p.add_argument("--ranks", type=str, required=True, help="comma-separated, e.g. 1,4,8")
    p.add_argument("--lrs", type=str, required=True, help="comma-separated, e.g. 1e-3,3e-4")
    p.add_argument("--out", type=str, default=None, help="prefix for .json/.csv outputs")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("memreport", help="analytic memory breakdown, optionally measured")
    _add_flags(p, RunConfig, ("mode", "rank", "seed"))
    _add_flags(p, ModelConfig)
    p.add_argument("--probe", action="store_true", help="also measure via a real forward")
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


def keep_freed_heap() -> None:
    """Keep the memory a training step frees for the next step (glibc only).

    Backward frees the tape top-down, so under glibc's dynamic thresholds the
    free heap top passes the trim threshold during every backward: its pages
    go back to the kernel and the next forward faults them in again. Fixed
    thresholds keep arrays up to _MMAP_THRESHOLD_BYTES on the heap and up to
    _TRIM_THRESHOLD_BYTES of free heap top in the process. Where the C
    library has no mallopt this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    keep_freed_heap()
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ReconciliationError as exc:
        print(f"reconciliation failure: {exc}", file=sys.stderr)
        return EXIT_RECONCILE
    except NumericsError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (LorafaError, OSError, ValueError, MemoryError) as exc:  # ValueError: also bad JSON
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
