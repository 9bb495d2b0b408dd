"""Training runs, sweeps, and their reports in canonical JSON: sorted keys and
compact separators, so a parse and re-write gives the same bytes."""

from __future__ import annotations

import json
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import adapters, memory, optim
from .adapters import Mode
from .equivalence import SUBSPACE_PASS_RESIDUAL, subspace_check
from .errors import LorafaError, NumericsError, ParameterError
from .model import (
    ModelConfig,
    Tape,
    TransformerModel,
    backward,
    build_model,
    check_rank,
    count_trainable,
    forward_loss,
    require_number,
    trainable_params,
)
from .rng import RngState, derive
from .tasks import TASK_KINDS, Dataset, gen_task

SCHEMA_VERSION = 1


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class RunConfig:
    model: ModelConfig
    mode: Mode
    rank: int = 8
    alpha: Optional[float] = None
    optimizer: str = "adamw"
    lr: float = 1e-3
    weight_decay: float = 0.0
    steps: int = 100
    seed: int = 0
    task: str = "copy"
    n_examples: int = 256
    warmup_steps: int = 0
    equiv_every: int = 0
    report_path: Optional[str] = None

    def __post_init__(self):
        for name in ("rank", "steps", "seed", "n_examples", "warmup_steps", "equiv_every"):
            require_number(name, getattr(self, name), integral=True)
        for name in ("lr", "weight_decay"):
            require_number(name, getattr(self, name))
        if self.alpha is not None:
            require_number("alpha", self.alpha)
            if not self.alpha > 0:
                raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if self.report_path is not None and not isinstance(self.report_path, str):
            raise ParameterError(f"report_path must be a string, got {self.report_path!r}")
        if self.optimizer not in optim.OPTIMIZERS:
            raise ParameterError(f"optimizer must be in {optim.OPTIMIZERS}, got {self.optimizer!r}")
        if self.task not in TASK_KINDS:
            raise ParameterError(f"task must be one of {TASK_KINDS}, got {self.task!r}")
        # Met here so that a sweep cell cannot fail on it after training began.
        check_rank(self.model, self.mode, self.rank)
        # Token embedding, ffn weight, widest activation and attention scores:
        # the largest array a run builds must be within numpy's index range.
        m, b, s = self.model, self.model.batch_size, self.model.seq_len
        largest = max(m.vocab * m.d, m.d * m.d_ff, b * s * max(m.vocab, m.d, m.d_ff),
                      b * m.n_heads * s * s)
        if largest > np.iinfo(np.intp).max:
            size = (f"{float(largest):.3g} elements" if largest <= sys.float_info.max
                    else "a count beyond the float range")
            raise ParameterError(f"the largest array needs {size}, more than numpy can index")
        if self.steps < 0:
            raise ParameterError("steps must be >= 0")
        if not self.lr > 0:
            raise ParameterError("lr must be positive")
        for name in ("weight_decay", "warmup_steps", "equiv_every"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mode"] = self.mode.value
        return d

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """Validated config from a parsed JSON object; only ParameterError escapes."""
        if not isinstance(d, dict) or not isinstance(d.get("model"), dict):
            raise ParameterError("a run config must be a JSON object with a 'model' object")
        d = dict(d)
        _check_keys(d, RunConfig)
        _check_keys(d["model"], ModelConfig)
        d["model"] = ModelConfig(**d["model"])
        try:
            d["mode"] = Mode(d["mode"])
        except ValueError:
            modes = [m.value for m in Mode]
            raise ParameterError(f"mode must be one of {modes}, got {d['mode']!r}") from None
        return RunConfig(**d)


def _check_keys(d: dict, cls) -> None:
    """ParameterError for a key cls has no field for, or a required field missing."""
    names = {f.name for f in fields(cls)}
    unknown = sorted(str(k) for k in set(d) - names)
    if unknown:
        raise ParameterError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    missing = sorted(
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING and f.name not in d
    )
    if missing:
        raise ParameterError(f"missing {cls.__name__} keys: {', '.join(missing)}")


@dataclass
class RunReport:
    schema_version: int
    config: dict
    status: str                      # "ok" or "diverged"
    loss_curve: list[float]
    final_loss: Optional[float]
    trainable_linear_only: int
    trainable_full: int
    memory_analytic_paper_constant: dict
    memory_analytic_per_layer_count: dict
    memory_measured: dict
    reconciliation: dict
    equivalence: list[dict]
    wall_clock_s: float

    def to_json(self) -> str:
        return dumps_canonical(asdict(self))

    @staticmethod
    def from_json_dict(d: dict) -> "RunReport":
        return RunReport(**d)


def _eval_loss(model: TransformerModel, dataset: Dataset, batch_size: int) -> float:
    """Mean loss over the full dataset, batched deterministically."""
    n = len(dataset)
    total = 0.0
    batches = 0
    for start in range(0, n, batch_size):
        tokens = dataset.tokens[start : start + batch_size]
        targets = dataset.targets[start : start + batch_size]
        loss, _ = forward_loss(model, tokens, targets)
        total += loss
        batches += 1
    return total / batches


def _merged_weights(model: TransformerModel) -> dict[str, np.ndarray]:
    return {name: adapters.merge(layer) for name, layer in model.adapted_layers()}


def _meter(cfg: RunConfig, tape: Tape) -> tuple[dict, dict]:
    """The report's measured activations and their reconciliation, from one tape."""
    measured = memory.measured_activation_elements(tape)
    reconciliation = memory.reconcile(cfg.model, cfg.mode, cfg.rank, measured, tape.b, tape.s)
    return measured.to_dict(), reconciliation


def _equiv_snapshot(model: TransformerModel, merged_0: dict, step: int) -> dict:
    worst_residual = 0.0
    worst_rank = 0
    for name, layer in model.adapted_layers():
        delta = adapters.merge(layer) - merged_0[name]
        rep = subspace_check(layer.a, delta)
        worst_residual = max(worst_residual, rep.residual)
        worst_rank = max(worst_rank, rep.numerical_rank)
    return {
        "step": step,
        "max_subspace_residual": worst_residual,
        "max_numerical_rank": worst_rank,
        "rank_bound": model.rank,
        "pass": bool(worst_residual < SUBSPACE_PASS_RESIDUAL and worst_rank <= model.rank),
    }


def train_run(cfg: RunConfig) -> RunReport:
    """Execute one training run; deterministic under cfg (including seed)."""
    t0 = time.perf_counter()
    mc = cfg.model
    dataset = gen_task(cfg.task, mc.vocab, mc.seq_len, cfg.n_examples, cfg.seed)
    model = build_model(mc, cfg.mode, cfg.rank, cfg.alpha, RngState(cfg.seed))
    params = trainable_params(model)
    opt_state = optim.init_adamw_state(params) if cfg.optimizer == "adamw" else None

    def lr_at(step: int) -> float:
        # linear warmup hook; constant schedule otherwise
        if cfg.warmup_steps > 0 and step < cfg.warmup_steps:
            return cfg.lr * (step + 1) / cfg.warmup_steps
        return cfg.lr

    counts = count_trainable(model)
    analytic_pc = memory.analytic_report(
        mc, cfg.mode, cfg.rank, mc.batch_size, mc.seq_len, activation_model="paper_constant"
    )
    analytic_plc = memory.analytic_report(
        mc, cfg.mode, cfg.rank, mc.batch_size, mc.seq_len, activation_model="per_layer_count"
    )

    merged_0 = _merged_weights(model) if cfg.mode.has_adapter and cfg.equiv_every > 0 else None
    equivalence: list[dict] = []
    loss_curve: list[float] = []
    status = "ok"
    measured_dict: dict = {}
    reconciliation: dict = {}

    for step in range(cfg.steps):
        tokens, targets = dataset.batch(step, mc.batch_size)
        try:
            loss, tape = forward_loss(model, tokens, targets)
            if step == 0:
                measured_dict, reconciliation = _meter(cfg, tape)
            loss_curve.append(loss)
            grads = backward(model, tape)
            if cfg.optimizer == "adamw":
                opt_cfg = optim.AdamWConfig(eta=lr_at(step), weight_decay=cfg.weight_decay)
                optim.adamw_step(params, grads, opt_state, opt_cfg)
            else:
                optim.sgd_step(params, grads, optim.SGDConfig(eta=lr_at(step)))
            if merged_0 is not None and (step + 1) % cfg.equiv_every == 0:
                equivalence.append(_equiv_snapshot(model, merged_0, step + 1))
        except NumericsError:
            status = "diverged"
            break

    if cfg.steps == 0:
        # measure the untouched model once so the report is still complete
        tokens, targets = dataset.batch(0, mc.batch_size)
        measured_dict, reconciliation = _meter(cfg, forward_loss(model, tokens, targets)[1])

    final_loss = _eval_loss(model, dataset, mc.batch_size) if status == "ok" else None

    return RunReport(
        schema_version=SCHEMA_VERSION,
        config=cfg.to_dict(),
        status=status,
        loss_curve=loss_curve,
        final_loss=final_loss,
        trainable_linear_only=counts.linear_only,
        trainable_full=counts.full,
        memory_analytic_paper_constant=analytic_pc.to_dict(),
        memory_analytic_per_layer_count=analytic_plc.to_dict(),
        memory_measured=measured_dict,
        reconciliation=reconciliation,
        equivalence=equivalence,
        wall_clock_s=time.perf_counter() - t0,
    )


def cell_seed(base_seed: int, rank: int, lr: float) -> int:
    """Deterministic per-cell seed: hash of (seed, rank, lr bit pattern)."""
    return derive(RngState(base_seed), f"cell:{rank}:{float(lr).hex()}").seed


@dataclass
class SweepGrid:
    schema_version: int
    ranks: list[int]
    lrs: list[float]
    cells: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return dumps_canonical(asdict(self))

    def to_csv(self) -> str:
        lines = ["rank,lr,final_loss,status"]
        for cell in self.cells:
            fl = cell["final_loss"]
            lines.append(
                f"{cell['rank']},{cell['lr']},{'' if fl is None else repr(fl)},{cell['status']}"
            )
        return "\n".join(lines) + "\n"


def sweep(base: RunConfig, ranks: list[int], lrs: list[float]) -> SweepGrid:
    """Run every (rank, lr) cell; per-cell failures are recorded, not raised.

    Every cell's RunConfig is built first: a bad axis value raises before any trains.
    """
    if not ranks or not lrs:
        raise ParameterError("sweep axes must be non-empty")
    configs = []
    for rank in ranks:
        for lr in lrs:
            cfg_dict = base.to_dict()
            cfg_dict.update(rank=rank, lr=lr, seed=cell_seed(base.seed, rank, lr))
            configs.append(RunConfig.from_dict(cfg_dict))
    grid = SweepGrid(schema_version=SCHEMA_VERSION, ranks=list(ranks), lrs=list(lrs))
    for cfg in configs:
        cell = {"rank": cfg.rank, "lr": cfg.lr, "seed": cfg.seed}
        try:
            report = train_run(cfg)
            cell["final_loss"] = report.final_loss
            cell["status"] = report.status
        except LorafaError as exc:
            cell["final_loss"] = None
            cell["status"] = f"error:{type(exc).__name__}"
        grid.cells.append(cell)
    return grid
