"""Training runs, sweeps, and their reports in canonical JSON: sorted keys and
compact separators, so a parse and re-write gives the same bytes."""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import adapters, memory, optim
from .adapters import Mode
from .equivalence import SUBSPACE_PASS_RESIDUAL, subspace_check
from .errors import LorafaError, NumericsError, ParameterError, require_array_size, require_number
from .model import (
    ModelConfig,
    TransformerModel,
    backward,
    build_model,
    check_rank,
    count_trainable,
    forward_loss,
    trainable_params,
)
from .rng import RngState, derive
from .tasks import Dataset, check_task, gen_task

SCHEMA_VERSION = 2


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
        for name in ("steps", "warmup_steps", "equiv_every"):
            require_number(name, getattr(self, name), integral=True, at_least=0)
        require_number("seed", self.seed, integral=True)
        require_number("lr", self.lr, positive=True)
        require_number("weight_decay", self.weight_decay, at_least=0)
        if self.alpha is not None:
            require_number("alpha", self.alpha, positive=True)
        if self.report_path is not None and not isinstance(self.report_path, str):
            raise ParameterError(f"report_path must be a string, got {self.report_path!r}")
        if self.optimizer not in optim.OPTIMIZERS:
            raise ParameterError(f"optimizer must be in {optim.OPTIMIZERS}, got {self.optimizer!r}")
        # Met here so that a sweep cell cannot fail on them after training began.
        check_task(self.task, self.model.vocab, self.model.seq_len, self.n_examples)
        check_rank(self.model, self.mode, self.rank)
        # The token embedding's and ffn weight's draws (two stream words a
        # normal entry), the widest activation and the attention scores: the
        # largest array a run builds must be within numpy's index range.
        m, b, s = self.model, self.model.batch_size, self.model.seq_len
        require_array_size("the largest array", max(2 * m.vocab * m.d, 2 * m.d * m.d_ff,
                                                     b * s * max(m.vocab, m.d, m.d_ff),
                                                     b * m.n_heads * s * s))

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
        """The report a parsed JSON object holds; one that to_json would not write
        is a ParameterError. Of the memory and equivalence records only the
        containers are checked: objects, and a list of objects."""
        if not isinstance(d, dict):
            raise ParameterError("a run report must be a JSON object")
        _check_keys(d, RunReport)
        if d["schema_version"] != SCHEMA_VERSION or d["status"] not in ("ok", "diverged"):
            raise ParameterError(f"a run report has schema_version {SCHEMA_VERSION} and status ok "
                                 f"or diverged, got {d['schema_version']!r} and {d['status']!r}")
        RunConfig.from_dict(d["config"])
        records = [(name, dict) for name in d if name.startswith(("memory_", "reconciliation"))]
        for name, kind in [*records, ("loss_curve", list), ("equivalence", list)]:
            if not isinstance(d[name], kind):
                raise ParameterError(f"{name} must be a {kind.__name__}, got {d[name]!r}")
        if not all(isinstance(entry, dict) for entry in d["equivalence"]):
            raise ParameterError("equivalence must be a list of JSON objects")
        for loss in d["loss_curve"] + ([] if d["final_loss"] is None else [d["final_loss"]]):
            require_number("a loss", loss)
        for name in ("trainable_linear_only", "trainable_full", "wall_clock_s"):
            require_number(name, d[name], integral=name != "wall_clock_s", at_least=0)
        return RunReport(**d)


def _eval_loss(model: TransformerModel, dataset: Dataset, batch_size: int) -> float:
    """Mean loss over the full dataset, batched deterministically."""
    losses = [forward_loss(model, dataset.tokens[lo : lo + batch_size],
                           dataset.targets[lo : lo + batch_size])[0]
              for lo in range(0, len(dataset), batch_size)]
    return sum(losses) / len(losses)


def _merged_weights(model: TransformerModel) -> dict[str, np.ndarray]:
    return {name: adapters.merge(layer) for name, layer in model.adapted_layers()}


def _meter(cfg: RunConfig, tape: dict) -> tuple[dict, dict]:
    """The report's measured activations and their reconciliation, from one tape."""
    measured = memory.measured_activation_elements(tape)
    b, s = tape["tokens"].shape
    reconciliation = memory.reconcile(cfg.model, cfg.mode, cfg.rank, measured, b, s)
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
    analytic = {kind: memory.analytic_report(mc, cfg.mode, cfg.rank, mc.batch_size, mc.seq_len,
                                             kind).to_dict()
                for kind in ("paper_constant", "per_layer_count")}

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
                opt_cfg = optim.SGDConfig(eta=lr_at(step), weight_decay=cfg.weight_decay)
                optim.sgd_step(params, grads, opt_cfg)
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
        memory_analytic_paper_constant=analytic["paper_constant"],
        memory_analytic_per_layer_count=analytic["per_layer_count"],
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
