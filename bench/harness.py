"""The benchmark's workloads, driven only through lorafa's public functions.

One run is: a correctness gate (train_run replayed against the benchmark's
own step loop, bit for bit, plus a tracemalloc step per mode), which also
warms up every code path, then timed rounds until ``seconds`` have passed.
A round imports lorafa afresh, sets up ft, lora and lora-fa, optionally
runs the verification pass, then trains each mode for ``steps_per_round``
steps and evaluates it on the full dataset. Every round must reproduce the
first round's losses exactly. The step loop, like the gate's train_run, is
AdamW only.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans

DESIGN = json.loads((Path(__file__).resolve().parent / "design.json").read_text())
MODES = tuple(DESIGN["modes"])
LINEARS = tuple(DESIGN["linears"])
TRACED_MODULES = tuple(DESIGN["traced_modules"])
PACKAGE_MODULES = (
    "errors", "ops", "rng", "adapters", "model", "optim", "memory",
    "equivalence", "gradcheck", "tasks", "train",
)

# Pass thresholds of `lorafa gradcheck` and `lorafa equiv`, and their defaults.
# gradcheck runs at its CLI default seed: at 2 of 60 other seeds (34 and 54)
# its layer_norm primitive check reads 1.02e-5 to 1.04e-5, above PRIMITIVE_TOL.
GRADCHECK_SEED = 0
PRIMITIVE_TOL = 1e-5
ADAPTER_TOL = 1e-5
MODEL_TOL = 1e-4
SGD_IDENTITY_TOL = 1e-10
UNBIASED_TOL = 0.02
SUBSPACE_TOL = 1e-10
GRADCHECK_TRIALS = 20
EQUIV_LAYERS = 100
EQUIV_SAMPLES = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    model: dict
    rank: int
    lr: float
    n_examples: int
    steps_per_round: int
    gate_steps: int
    snapshot_mode: str | None
    verification: bool

    @staticmethod
    def load(name: str) -> "Workload":
        return Workload(name=name, **DESIGN["workloads"][name]["inputs"])


class Checks:
    """Counts operations and correctness checks; every failure is printed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", flush=True)


def load_lorafa():
    """Import lorafa afresh (dropping any earlier import); returns (modules, seconds)."""
    for name in [n for n in sys.modules if n == "lorafa" or n.startswith("lorafa.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("lorafa")
    lf = SimpleNamespace(**{m: importlib.import_module(f"lorafa.{m}") for m in PACKAGE_MODULES})
    return lf, time.perf_counter() - t0


@dataclass
class ModeState:
    mode: str
    config: object
    dataset: object
    model: object
    params: dict
    opt: object
    merged_0: dict | None


@dataclass
class ModeRun:
    step_s: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    meter_s: float = 0.0
    measured: object = None
    final_loss: float | None = None
    eval_s_per_token: list[float] = field(default_factory=list)


@dataclass
class RoundResult:
    traced: bool
    setup_s: float
    verify_s: float | None
    runs: dict[str, ModeRun]


def setup_mode(lf, wl: Workload, seed: int, mode: str, tr) -> ModeState:
    with tr.phase("setup", mode):
        mc = lf.model.ModelConfig(**wl.model)
        m = lf.adapters.Mode(mode)
        dataset = lf.tasks.gen_task(wl.task, mc.vocab, mc.seq_len, wl.n_examples, seed)
        model = lf.model.build_model(mc, m, wl.rank, None, lf.rng.RngState(seed))
        params = lf.model.trainable_params(model)
        opt = lf.optim.init_adamw_state(params)
        for activation_model in ("paper_constant", "per_layer_count"):
            lf.memory.analytic_report(
                mc, m, wl.rank, mc.batch_size, mc.seq_len, activation_model=activation_model
            )
        merged_0 = None
        if wl.snapshot_mode == mode:
            merged_0 = {name: lf.adapters.merge(layer) for name, layer in model.adapted_layers()}
    tr.register_model(model, LINEARS)
    return ModeState(mode, mc, dataset, model, params, opt, merged_0)


def _meter(lf, st: ModeState, wl: Workload, tape, tokens, checks: Checks, tr):
    """The step-0 activation meter and reconcile, as train_run runs them."""
    with tr.phase("meter", st.mode):
        measured = lf.memory.measured_activation_elements(tape)
        try:
            lf.memory.reconcile(
                st.config, st.model.mode, wl.rank, measured, tokens.shape[0], tokens.shape[1]
            )
            checks.record(True, "reconcile")
        except lf.errors.LorafaError as exc:
            checks.record(False, f"{st.mode}: reconcile: {exc}")
    return measured


def _snapshot(lf, st: ModeState, step: int, checks: Checks, tr) -> None:
    """Criterion-04 subspace snapshot: every adapted layer's delta-W lies in col(A)."""
    with tr.phase("snapshot", st.mode, step):
        worst_residual, worst_rank = 0.0, 0
        for name, layer in st.model.adapted_layers():
            delta = lf.adapters.merge(layer) - st.merged_0[name]
            rep = lf.equivalence.subspace_check(layer.a, delta)
            worst_residual = max(worst_residual, rep.residual)
            worst_rank = max(worst_rank, rep.numerical_rank)
    checks.record(
        worst_residual < SUBSPACE_TOL and worst_rank <= st.model.rank,
        f"{st.mode} step {step}: subspace residual {worst_residual:.3e}, rank {worst_rank}",
    )


def train_mode(lf, wl: Workload, st: ModeState, steps: int, checks: Checks, tr,
               snapshots: bool) -> ModeRun:
    """The timed loop: batch, forward_loss, backward, adamw_step, exactly as train_run."""
    run = ModeRun()
    ds, model, params, opt = st.dataset, st.model, st.params, st.opt
    b = st.config.batch_size
    forward_loss, backward = lf.model.forward_loss, lf.model.backward
    adamw_step, AdamWConfig = lf.optim.adamw_step, lf.optim.AdamWConfig
    for step in range(steps):
        with tr.phase("step", st.mode, step):
            t0 = time.perf_counter()
            meter_s = 0.0
            try:
                tokens, targets = ds.batch(step, b)
                loss, tape = forward_loss(model, tokens, targets)
                if step == 0:
                    t_meter = time.perf_counter()
                    run.measured = _meter(lf, st, wl, tape, tokens, checks, tr)
                    meter_s = time.perf_counter() - t_meter
                grads = backward(model, tape)
                adamw_step(params, grads, opt, AdamWConfig(eta=wl.lr, weight_decay=0.0))
                if snapshots:
                    _snapshot(lf, st, step + 1, checks, tr)
            except lf.errors.LorafaError as exc:
                checks.record(False, f"{st.mode} step {step}: {type(exc).__name__}: {exc}")
                return run
            run.step_s.append(time.perf_counter() - t0 - meter_s)
        run.meter_s += meter_s
        run.losses.append(loss)
        checks.record(math.isfinite(loss), f"{st.mode} step {step}: loss {loss}")
    return run


def evaluate(lf, st: ModeState, run: ModeRun, checks: Checks, tr) -> None:
    """Mean loss over the full dataset in order, forward only (train_run's final eval)."""
    ds, b = st.dataset, st.config.batch_size
    total, batches = 0.0, 0
    with tr.phase("eval", st.mode):
        for start in range(0, len(ds), b):
            t0 = time.perf_counter()
            tokens = ds.tokens[start:start + b]
            try:
                loss, _ = lf.model.forward_loss(st.model, tokens, ds.targets[start:start + b])
            except lf.errors.LorafaError as exc:
                checks.record(False, f"{st.mode} eval batch at {start}: {exc}")
                return
            run.eval_s_per_token.append((time.perf_counter() - t0) / tokens.size)
            checks.record(True, "eval batch")
            total += loss
            batches += 1
    run.final_loss = total / batches


def verification_pass(lf, seed: int, checks: Checks, tr) -> float:
    """The work of `lorafa gradcheck` (at its default seed) and `lorafa equiv`; returns seconds."""
    t0 = time.perf_counter()
    with tr.phase("verify"):
        _verify_checks(lf, seed, checks)
    return time.perf_counter() - t0


def _verify_checks(lf, seed: int, checks: Checks) -> None:
    gc_, Mode, rng_mod = lf.gradcheck, lf.adapters.Mode, lf.rng
    LorafaError = lf.errors.LorafaError

    def guarded(what, fn):
        try:
            return fn()
        except LorafaError as exc:
            checks.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    primitives = guarded("gradcheck primitives",
                         lambda: gc_.check_primitives(GRADCHECK_SEED, GRADCHECK_TRIALS))
    for name, err in (primitives or {}).items():
        checks.record(err < PRIMITIVE_TOL, f"gradcheck primitive:{name}: rel error {err:.3e}")
    for mode in MODES:
        m = Mode(mode)
        err = guarded(f"gradcheck adapter:{mode}", lambda: gc_.check_adapter_layer(m, GRADCHECK_SEED))
        if err is not None:
            checks.record(err < ADAPTER_TOL, f"gradcheck adapter:{mode}: rel error {err:.3e}")
        err = guarded(f"gradcheck model:{mode}", lambda: gc_.check_tiny_model(m, GRADCHECK_SEED))
        if err is not None:
            checks.record(err < MODEL_TOL, f"gradcheck model:{mode}: rel error {err:.3e}")

    rng = rng_mod.RngState(seed)
    randint, randn = rng_mod.randint, rng_mod.randn

    def sgd_identity():
        worst = 0.0
        for _ in range(EQUIV_LAYERS):
            d_in, d_out = (int(v) for v in randint(rng, 2, 24, (2,)))
            r = int(randint(rng, 1, min(d_in, d_out) + 1, ()))
            layer = lf.adapters.init_adapter(d_in, d_out, r, None, Mode.LORA_FA, rng)
            layer.b[:] = randn(layer.b.shape, rng)
            x = randn((2, 3, d_in), rng)
            dy = randn((2, 3, d_out), rng)
            worst = max(worst, lf.equivalence.verify_sgd_equivalence(layer, x, dy, eta=0.1))
        return worst

    worst = guarded("equiv sgd identity", sgd_identity)
    if worst is not None:
        checks.record(worst < SGD_IDENTITY_TOL, f"equiv sgd identity: max abs {worst:.3e}")
    err = guarded("equiv unbiasedness",
                  lambda: lf.equivalence.estimate_unbiasedness(8, 4, EQUIV_SAMPLES, rng))
    if err is not None:
        checks.record(err < UNBIASED_TOL, f"equiv unbiasedness: rel error {err:.4f}")

    def subspace():
        layer = lf.adapters.init_adapter(16, 8, 4, None, Mode.LORA_FA, rng)
        layer.b[:] = randn(layer.b.shape, rng)
        return lf.equivalence.subspace_check(layer.a, layer.alpha * (layer.a @ layer.b))

    rep = guarded("equiv subspace", subspace)
    if rep is not None:
        checks.record(rep.residual < SUBSPACE_TOL and rep.numerical_rank <= 4,
                      f"equiv subspace: residual {rep.residual:.3e}, rank {rep.numerical_rank}")


def run_round(wl: Workload, seed: int, checks: Checks, tracer=None) -> RoundResult:
    gc.collect()
    lf, import_s = load_lorafa()
    tr = tracer if tracer is not None else spans.NullTracer()
    if tracer is not None:
        tracer.install(lf)
    with tr.phase("round"):
        t0 = time.perf_counter()
        states = {m: setup_mode(lf, wl, seed, m, tr) for m in MODES}
        setup_s = import_s + time.perf_counter() - t0
        verify_s = verification_pass(lf, seed, checks, tr) if wl.verification else None
        runs = {}
        for m, st in states.items():
            runs[m] = train_mode(lf, wl, st, wl.steps_per_round, checks, tr,
                                 snapshots=wl.snapshot_mode == m)
            setup_s += runs[m].meter_s
            evaluate(lf, st, runs[m], checks, tr)
    if tracer is not None:
        tracer.clear_models()
    return RoundResult(tracer is not None, setup_s, verify_s, runs)


def gate(wl: Workload, seed: int, checks: Checks):
    """Replay train_run against the benchmark loop; returns (seconds, peak MB and statics per mode).

    The losses of the first gate_steps steps, the eval loss after them and the
    measured activations must equal train_run's bit for bit, and reconcile must
    pass. One more step per mode then runs under tracemalloc for step_peak_mb.
    """
    lf, _ = load_lorafa()
    tr = spans.NullTracer()
    gate_s = 0.0
    statics = {}
    for mode in MODES:
        t0 = time.perf_counter()
        cfg = lf.train.RunConfig(
            model=lf.model.ModelConfig(**wl.model), mode=lf.adapters.Mode(mode), rank=wl.rank,
            optimizer="adamw", lr=wl.lr, steps=wl.gate_steps, seed=seed, task=wl.task,
            n_examples=wl.n_examples,
        )
        report = lf.train.train_run(cfg)
        st = setup_mode(lf, wl, seed, mode, tr)
        run = train_mode(lf, wl, st, wl.gate_steps, checks, tr, snapshots=False)
        evaluate(lf, st, run, checks, tr)
        checks.record(report.status == "ok", f"{mode}: train_run status {report.status}")
        checks.record(run.losses == report.loss_curve,
                      f"{mode}: step losses differ from train_run: {run.losses} vs {report.loss_curve}")
        checks.record(run.final_loss == report.final_loss,
                      f"{mode}: eval loss {run.final_loss!r} != train_run final_loss {report.final_loss!r}")
        checks.record(run.measured is not None and run.measured.to_dict() == report.memory_measured,
                      f"{mode}: measured activations differ from train_run's")
        gate_s += time.perf_counter() - t0

        peak = _peak_step_bytes(lf, wl, st, wl.gate_steps, checks)
        measured = run.measured or lf.memory.MeasuredActivations()
        itemsize = st.model.tok_emb.dtype.itemsize
        statics[mode] = {
            "peak_mb": peak / 1e6,
            "elements": sum(p.size for p in st.params.values()),
            "linear_elements": measured.linear_full + measured.linear_low,
            "other_elements": measured.other,
            "retained_mb": (measured.linear_full + measured.linear_low + measured.other) * itemsize / 1e6,
            "dtype": str(st.model.tok_emb.dtype),
        }
    return gate_s, statics


def _peak_step_bytes(lf, wl: Workload, st: ModeState, step: int, checks: Checks) -> int:
    """tracemalloc peak over one training step (allocations made during the step only)."""
    tracemalloc.start()
    try:
        tokens, targets = st.dataset.batch(step, st.config.batch_size)
        loss, tape = lf.model.forward_loss(st.model, tokens, targets)
        grads = lf.model.backward(st.model, tape)
        lf.optim.adamw_step(st.params, grads, st.opt, lf.optim.AdamWConfig(eta=wl.lr))
        del tape, grads
        checks.record(math.isfinite(loss), f"{st.mode}: tracemalloc step loss {loss}")
        return tracemalloc.get_traced_memory()[1]
    except lf.errors.LorafaError as exc:
        checks.record(False, f"{st.mode}: tracemalloc step: {type(exc).__name__}: {exc}")
        return 0
    finally:
        tracemalloc.stop()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Measurement:
    value: float
    unit: str
    samples: int


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool, trace_path: Path | None):
    """Returns (checks, end-to-end or per-layer measurements, notes for the report)."""
    checks = Checks()
    gate_s, statics = gate(wl, seed, checks)  # also warms up every code path before timing

    tracer = spans.Tracer(wl.name, seed) if traced else None
    rounds: list[RoundResult] = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or (traced and len(rounds) < 2):
        use_tracer = tracer if traced and len(rounds) % 2 == 1 else None
        r = run_round(wl, seed, checks, use_tracer)
        for m in MODES if rounds else ():
            ref, got = rounds[0].runs[m], r.runs[m]
            checks.record(got.losses == ref.losses and got.final_loss == ref.final_loss,
                          f"{m}: round losses differ from the first round's")
        rounds.append(r)
    window_s = time.perf_counter() - t_start

    notes = {
        "rounds": len(rounds),
        "window_s": window_s,
        "final_loss": {m: rounds[0].runs[m].final_loss for m in MODES},
        "compute_dtype": statics[MODES[0]]["dtype"],
    }
    if traced:
        metrics = layer_metrics(tracer, [r for r in rounds if r.traced],
                                [r for r in rounds if not r.traced], statics, notes)
        if trace_path is not None:
            tracer.write(trace_path)
            notes["trace_file"] = str(trace_path)
    else:
        metrics = end_to_end_metrics(wl, rounds, gate_s, statics)
    return checks, metrics, notes


def _step_samples(rounds: list[RoundResult], mode: str) -> list[float]:
    return [s for r in rounds for s in r.runs[mode].step_s]


def end_to_end_metrics(wl: Workload, rounds, gate_s: float, statics) -> dict[str, Measurement]:
    out: dict[str, Measurement] = {}
    n = len(rounds)
    out["setup_s"] = Measurement(statistics.median(r.setup_s for r in rounds), "s", n)
    for m in MODES:
        steps = _step_samples(rounds, m)
        out[f"step_ms_p50.{m}"] = Measurement(1e3 * statistics.median(steps), "ms", len(steps))
        out[f"step_ms_p90.{m}"] = Measurement(1e3 * percentile(steps, 0.9), "ms", len(steps))
    # Each mode's eval at its median per-batch speed, the three passes back to back.
    per_token = [[x for r in rounds for x in r.runs[m].eval_s_per_token] for m in MODES]
    out["eval_tokens_per_s"] = Measurement(
        len(MODES) / sum(statistics.median(xs) for xs in per_token), "tokens/s",
        sum(len(xs) for xs in per_token))
    for m in MODES:
        out[f"step_peak_mb.{m}"] = Measurement(statics[m]["peak_mb"], "MB", 1)
    if wl.verification:
        out["verify_s"] = Measurement(statistics.median(r.verify_s for r in rounds), "s", n)
    else:
        out["verify_s"] = Measurement(gate_s, "s", 1)
    return out


def layer_metrics(tracer: spans.Tracer, traced, untraced, statics, notes) -> dict[str, Measurement]:
    cols = tracer.columns()
    dur, self_ns = spans.self_times(cols)
    name_id, label = cols["name_id"], cols["label"]
    ctx_mode = np.array([MODES.index(c[1]) if c[1] in MODES else -1 for c in tracer.contexts])
    span_mode = ctx_mode[cols["ctx"]]
    # Per-mode and per-linear times count only spans inside training steps, so
    # eval and verification forwards do not inflate the per-step figures.
    in_step = np.array([c[0] == "step" for c in tracer.contexts])[cols["ctx"]]
    ids = {name: i for i, name in enumerate(tracer.names)}
    steps = {m: len(_step_samples(traced, m)) for m in MODES}
    n_steps = sum(steps.values())
    out: dict[str, Measurement] = {}

    def mask(name):
        return name_id == ids.get(name, -1)

    def per_step_ms(ns, denom):
        return float(ns) / 1e6 / max(denom, 1)

    def put(key, value, unit="ms"):
        out[key] = Measurement(float(value), unit, n_steps)

    ops_self = ("ensure_finite", "matmul", "gelu", "gelu_vjp", "layer_norm", "layer_norm_vjp",
                "softmax_rows", "softmax_rows_vjp", "qr", "qr_pivoted")
    for op in ops_self:
        put(f"ops.{op}.ms", per_step_ms(self_ns[mask(f"ops.{op}")].sum(), n_steps))
    for op in ("ensure_finite", "matmul", "qr", "qr_pivoted"):
        put(f"ops.{op}.calls", mask(f"ops.{op}").sum() / max(n_steps, 1), "count")

    for kind in ("forward", "backward"):
        sel = mask(f"adapters.{kind}") & in_step
        for mi, m in enumerate(MODES):
            put(f"adapters.{kind}_ms.{m}", per_step_ms(dur[sel & (span_mode == mi)].sum(), steps[m]))
        for li, lin in enumerate(LINEARS):
            put(f"adapters.{kind}_ms.{lin}", per_step_ms(dur[sel & (label == li)].sum(), n_steps))
    for mi, m in enumerate(MODES):
        in_mode = (span_mode == mi) & in_step
        put(f"model.forward_loss_ms.{m}", per_step_ms(dur[mask("model.forward_loss") & in_mode].sum(), steps[m]))
        put(f"model.backward_ms.{m}", per_step_ms(dur[mask("model.backward") & in_mode].sum(), steps[m]))
        put(f"optim.adamw_step_ms.{m}", per_step_ms(dur[mask("optim.adamw_step") & in_mode].sum(), steps[m]))
    put("model.forward_self_ms", per_step_ms(self_ns[mask("model.forward_loss")].sum(), n_steps))
    put("model.backward_self_ms", per_step_ms(self_ns[mask("model.backward")].sum(), n_steps))
    for m in MODES:
        put(f"optim.elements.{m}", statics[m]["elements"], "count")
        put(f"memory.retained_mb.{m}", statics[m]["retained_mb"], "MB")
        put(f"memory.linear_elements.{m}", statics[m]["linear_elements"], "count")
        put(f"memory.other_elements.{m}", statics[m]["other_elements"], "count")
    meter = mask("memory.measured_activation_elements") | mask("memory.reconcile")
    put("memory.meter_ms", per_step_ms(self_ns[meter].sum(), n_steps))
    put("equivalence.snapshot_ms", per_step_ms(dur[mask("bench.snapshot")].sum(), n_steps))
    for fn in ("subspace_check", "verify_sgd_equivalence", "estimate_unbiasedness"):
        put(f"equivalence.{fn}_ms", per_step_ms(self_ns[mask(f"equivalence.{fn}")].sum(), n_steps))
    put("rng.randn_ms", per_step_ms(self_ns[mask("rng.randn")].sum(), n_steps))
    put("rng.randn_calls", mask("rng.randn").sum() / max(n_steps, 1), "count")
    for fn in ("check_primitives", "check_adapter_layer", "check_tiny_model"):
        put(f"gradcheck.{fn}_ms", per_step_ms(self_ns[mask(f"gradcheck.{fn}")].sum(), n_steps))
    put("gradcheck.fd_gradient_calls", mask("gradcheck.fd_gradient").sum() / max(n_steps, 1), "count")
    put("tasks.gen_task_ms", per_step_ms(self_ns[mask("tasks.gen_task")].sum(), n_steps))
    put("tasks.batch_ms", per_step_ms(self_ns[mask("tasks.batch")].sum(), n_steps))

    # Module partition: every span's self time belongs to exactly one module,
    # the benchmark's own spans count as unattributed, and the root spans are
    # the traced rounds, so the parts add up to the traced wall time.
    module_of = np.array([TRACED_MODULES.index(n.split(".")[0]) if n.split(".")[0] in TRACED_MODULES
                          else len(TRACED_MODULES) for n in tracer.names])
    by_module = np.bincount(module_of[name_id], weights=self_ns, minlength=len(TRACED_MODULES) + 1)
    for i, mod in enumerate(TRACED_MODULES):
        put(f"self_ms.{mod}", per_step_ms(by_module[i], n_steps))
    put("self_ms.unattributed", per_step_ms(by_module[-1], n_steps))
    traced_ns = dur[cols["parent"] < 0].sum()
    put("trace.ms_per_step", per_step_ms(traced_ns, n_steps))
    notes["partition_gap_ns"] = int(traced_ns - round(by_module.sum()))
    for m in MODES:
        traced_p50 = statistics.median(_step_samples(traced, m))
        untraced_p50 = statistics.median(_step_samples(untraced, m))
        put(f"trace.overhead_ms.{m}", 1e3 * (traced_p50 - untraced_p50))
    return out
