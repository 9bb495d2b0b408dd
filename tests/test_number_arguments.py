"""Every number a public function or config takes goes through
errors.require_number: a bad one is a ParameterError, never numpy's or
Python's TypeError, IndexError, OverflowError or RuntimeWarning, nor a
value computed from it.

Three tests: the probed calls, each of which must raise ParameterError; a
property that draws bad values for every parameter in DRAWS and lets only a
LorafaError escape; and a walk over the package's exports that fails for any
int or float parameter DRAWS does not cover."""

import dataclasses
import inspect
import math
import sys
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorafa
from lorafa.adapters import AdaptedLinear, Mode, init_adapter
from lorafa.equivalence import estimate_unbiasedness, verify_sgd_equivalence
from lorafa.errors import LorafaError, ParameterError
from lorafa.gradcheck import check_adapter_layer, check_primitives
from lorafa.memory import analytic_report, measured_activation_elements, reconcile
from lorafa.model import ModelConfig, build_model, count_trainable_formula, forward_loss
from lorafa.optim import AdamWConfig, SGDConfig
from lorafa.rng import RngState, randint, randn, uniform
from lorafa.tasks import Dataset, gen_task
from lorafa.train import RunConfig

INF = float("inf")
CFG_KW = dict(d=8, n_layers=1, n_heads=2, vocab=12, seq_len=8, batch_size=2)
CFG = ModelConfig(**CFG_KW)
MODEL = build_model(CFG, Mode.LORA_FA, 2, None, RngState(0))
_TOKENS = randint(RngState(1), 0, 12, (2, 8))
MEASURED = measured_activation_elements(forward_loss(MODEL, _TOKENS, _TOKENS)[1])
DATA = gen_task("copy", 12, 8, 4, 0)
LAYER = init_adapter(4, 3, 2, None, Mode.LORA_FA, RngState(0))


def _call(call):
    """Run call with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


PROBES = {
    "analytic_report(b='2')": lambda: analytic_report(CFG, Mode.LORA, 2, "2", 8),
    "analytic_report(rank=1.5)": lambda: analytic_report(CFG, Mode.LORA, 1.5, 2, 8),
    "analytic_report(s=1.5)": lambda: analytic_report(CFG, Mode.LORA, 2, 2, 1.5),
    "analytic_report(rank=True)": lambda: analytic_report(CFG, Mode.LORA_FA, True, 2, 8),
    "count_trainable_formula(rank=-3)": lambda: count_trainable_formula(CFG, Mode.LORA, -3),
    "count_trainable_formula(rank=1.5)": lambda: count_trainable_formula(CFG, Mode.LORA, 1.5),
    "reconcile(rank=1.5)": lambda: reconcile(CFG, Mode.LORA_FA, 1.5, MEASURED, 2, 8),
    "reconcile(b=0)": lambda: reconcile(CFG, Mode.LORA_FA, 2, MEASURED, 0, 8),
    "reconcile(s='8')": lambda: reconcile(CFG, Mode.LORA_FA, 2, MEASURED, 2, "8"),
    "gen_task(seed=1.5)": lambda: gen_task("copy", 12, 8, 4, 1.5),
    "gen_task(vocab='12')": lambda: gen_task("copy", "12", 8, 4, 0),
    "gen_task(seq_len=8.0)": lambda: gen_task("copy", 12, 8.0, 4, 0),
    "gen_task(n_examples=2.5)": lambda: gen_task("copy", 12, 8, 2.5, 0),
    "Dataset.batch(0, 2.5)": lambda: DATA.batch(0, 2.5),
    "Dataset.batch(1.5, 2)": lambda: DATA.batch(1.5, 2),
    "Dataset.batch(-1, 2)": lambda: DATA.batch(-1, 2),
    "Dataset.batch(0, 0)": lambda: DATA.batch(0, 0),
    "SGDConfig(eta=inf)": lambda: SGDConfig(eta=INF),
    "SGDConfig(weight_decay=nan)": lambda: SGDConfig(eta=0.1, weight_decay=float("nan")),
    "AdamWConfig(eps=inf)": lambda: AdamWConfig(eta=0.1, eps=INF),
    "AdamWConfig(weight_decay=-1.0)": lambda: AdamWConfig(eta=0.1, weight_decay=-1.0),
    "AdamWConfig(eta='0.1')": lambda: AdamWConfig(eta="0.1"),
    "check_primitives(0, 2.5)": lambda: check_primitives(0, 2.5),
    "check_primitives(seed='0')": lambda: check_primitives("0", 1),
    "check_adapter_layer(trials=None)": lambda: check_adapter_layer(Mode.LORA_FA, 0, None),
    "randn(std=inf)": lambda: randn((2,), RngState(0), std=INF),
    "randn(std='1')": lambda: randn((2,), RngState(0), std="1"),
    "RngState(0, position=1.5)": lambda: RngState(0, position=1.5),
    "RngState(seed=None)": lambda: RngState(None),
    "init_adapter(0, 4, ...)": lambda: init_adapter(0, 4, 1, None, Mode.FT, RngState(0)),
    "init_adapter(rank='2')": lambda: init_adapter(4, 4, "2", None, Mode.LORA, RngState(0)),
    "build_model(alpha='x')": lambda: build_model(CFG, Mode.LORA, 2, "x"),
    "build_model(d=10**400)": lambda: build_model(
        ModelConfig(d=10**400, n_layers=1, n_heads=1, vocab=4, seq_len=4), Mode.FROZEN),
    "gen_task(vocab=10**400)": lambda: gen_task("copy", 10**400, 8, 4, 0),
    "gen_task(seq_len=10**400)": lambda: gen_task("copy", 12, 10**400, 4, 0),
    "gen_task(n_examples=10**400)": lambda: gen_task("char-lm", 12, 8, 10**400, 0),
    "gen_task(n_examples=2**62)": lambda: gen_task("copy", 12, 8, 2**62, 0),
    "Dataset.batch(0, 10**400)": lambda: DATA.batch(0, 10**400),
    "init_adapter(d_in=2**62)": lambda: init_adapter(2**62, 4, 1, None, Mode.FT, RngState(0)),
    "estimate_unbiasedness(d=2**32)": lambda: estimate_unbiasedness(2**32, 2, 10, RngState(0)),
    "RunConfig(vocab=2**60)": lambda: RunConfig(
        model=ModelConfig(d=4, n_layers=1, n_heads=1, vocab=2**60, seq_len=4, batch_size=1),
        mode=Mode.FROZEN, rank=1, n_examples=1),
    "randn((2**62, 4))": lambda: randn((2**62, 4), RngState(0)),
    "uniform((2**32, 2**32))": lambda: uniform((2**32, 2**32), RngState(0)),
}


@pytest.mark.parametrize("call", PROBES.values(), ids=PROBES.keys())
def test_a_probed_bad_number_is_a_parameter_error(call):
    with pytest.raises(ParameterError):
        _call(call)


# --- the draw table ---------------------------------------------------------------

# Parameter kinds. A size counts the elements of an array the call allocates,
# and errors.require_array_size bounds it by numpy's index range; a loop count
# bounds work, and is bounded by the same INDEX_MAX. Integers beyond that range
# and the float range are drawn for both. An optional parameter takes None as
# its default.
INT, SIZE, LOOP, FLOAT, OPT_INT, OPT_FLOAT = "int", "size", "loop", "float", "int?", "float?"
INTEGRAL = (INT, SIZE, LOOP, OPT_INT)


def _replace_model(**kw):
    return dataclasses.replace(MODEL, **kw)


def _draw_rng_state(seed=0, position=0):
    # A draw at the position, so that the stream's arithmetic meets it too.
    return randn((2,), RngState(seed, position))


_RUN = dict(model=CFG, mode=Mode.LORA_FA, rank=2, steps=1, n_examples=4)
_X, _DY = np.ones((2, 4)), np.ones((2, 3))

# (name the export walk knows it by, callable, valid arguments, {parameter: kind})
DRAWS = [
    ("AdamWConfig", AdamWConfig, dict(eta=0.1),
     dict(eta=FLOAT, beta1=FLOAT, beta2=FLOAT, eps=FLOAT, weight_decay=FLOAT)),
    ("SGDConfig", SGDConfig, dict(eta=0.1), dict(eta=FLOAT, weight_decay=FLOAT)),
    ("AdaptedLinear", AdaptedLinear,
     dict(w=np.eye(2), a=None, b=None, rank=1, alpha=1.0, mode=Mode.FT),
     dict(rank=INT, alpha=FLOAT)),
    ("ModelConfig", ModelConfig, CFG_KW,
     dict(d=INT, n_layers=INT, n_heads=INT, vocab=INT, seq_len=INT, batch_size=INT, d_ff=OPT_INT)),
    ("RngState", _draw_rng_state, {}, dict(seed=INT, position=INT)),
    ("RunConfig", RunConfig, _RUN,
     dict(rank=INT, alpha=OPT_FLOAT, lr=FLOAT, weight_decay=FLOAT, steps=INT, seed=INT,
          n_examples=INT, warmup_steps=INT, equiv_every=INT)),
    ("TransformerModel", _replace_model, {}, dict(rank=INT, alpha=FLOAT)),
    ("analytic_report", analytic_report, dict(config=CFG, mode=Mode.LORA, rank=2, b=2, s=8),
     dict(rank=INT, b=INT, s=INT)),
    ("build_model", build_model, dict(config=CFG, mode=Mode.LORA, rank=2),
     dict(rank=INT, alpha=OPT_FLOAT)),
    ("count_trainable_formula", count_trainable_formula,
     dict(config=CFG, mode=Mode.LORA, rank=2), dict(rank=INT)),
    ("estimate_unbiasedness", estimate_unbiasedness,
     dict(d=4, r=2, num_samples=10, rng=RngState(0)), dict(d=SIZE, r=SIZE, num_samples=LOOP)),
    ("gen_task", gen_task, dict(kind="copy", vocab=12, seq_len=8, n_examples=4, seed=0),
     dict(vocab=SIZE, seq_len=SIZE, n_examples=SIZE, seed=INT)),
    ("init_adapter", init_adapter,
     dict(d_in=4, d_out=3, rank=2, alpha=None, mode=Mode.LORA, rng=RngState(0)),
     dict(d_in=SIZE, d_out=SIZE, rank=INT, alpha=OPT_FLOAT)),
    ("randn", randn, dict(shape=(2,), rng=RngState(0)), dict(std=FLOAT)),
    ("reconcile", reconcile,
     dict(config=CFG, mode=Mode.LORA_FA, rank=2, measured=MEASURED, b=2, s=8),
     dict(rank=INT, b=INT, s=INT)),
    ("verify_sgd_equivalence", verify_sgd_equivalence, dict(layer=LAYER, x=_X, dy=_DY, eta=0.1),
     dict(eta=FLOAT)),
    ("Dataset.batch", DATA.batch, dict(step=0, batch_size=2), dict(step=INT, batch_size=SIZE)),
    ("check_primitives", check_primitives, dict(seed=0, trials=1), dict(seed=INT, trials=LOOP)),
    ("check_adapter_layer", check_adapter_layer, dict(mode=Mode.LORA_FA, seed=0, trials=1),
     dict(seed=INT, trials=LOOP)),
]
PARAMETERS = {f"{name}.{param}": (fn, base, param, kind)
              for name, fn, base, params in DRAWS for param, kind in params.items()}

BEYOND_FLOAT = st.sampled_from([10**400, -(10**400)])
INDEX_MAX = int(np.iinfo(np.intp).max)
BEYOND_INDEX = st.sampled_from([INDEX_MAX + 1, 2**80])


def bad_values(kind: str):
    """str, bool, None (where it is not the default), a float where an int is
    expected, NaN, +-Inf, an integer beyond the float range, one beyond numpy's
    index range (for a size or a loop count), a negative number and 0."""
    integral = kind in INTEGRAL
    return st.one_of(
        st.text(max_size=4), st.booleans(), st.just(float("nan")), st.sampled_from([INF, -INF]),
        st.integers(max_value=-1),
        st.floats(max_value=-1e-6, allow_infinity=False) if not integral else st.nothing(),
        st.just(0), st.just(0.0),
        st.none() if kind not in (OPT_INT, OPT_FLOAT) else st.nothing(),
        st.floats(allow_nan=False, allow_infinity=False) if integral else st.nothing(),
        BEYOND_FLOAT,
        BEYOND_INDEX if kind in (SIZE, LOOP) else st.nothing(),
    )


def always_bad(value, kind: str) -> bool:
    """Whether the rule rejects value whatever the parameter's bound."""
    if isinstance(value, (str, bool)) or value is None:
        return True
    if isinstance(value, float):
        return kind in INTEGRAL or not math.isfinite(value)
    return (kind in (FLOAT, OPT_FLOAT) and abs(value) > sys.float_info.max
            or kind in (SIZE, LOOP) and value > INDEX_MAX)


@pytest.mark.parametrize("parameter", PARAMETERS)
@settings(derandomize=True, max_examples=25, database=None, deadline=None)
@given(data=st.data())
def test_a_bad_number_raises_only_a_lorafa_error(parameter, data):
    fn, base, param, kind = PARAMETERS[parameter]
    value = data.draw(bad_values(kind), label=parameter)
    try:
        _call(lambda: fn(**{**base, param: value}))
    except ParameterError:
        return
    except LorafaError:
        assert not always_bad(value, kind)
        return
    assert not always_bad(value, kind), f"{parameter}={value!r} was accepted"


# --- every public number is in the draw table ----------------------------------------

# Records of results: the library writes their numbers, and no call reads them as input.
RESULT_RECORDS = {"MemoryBreakdown", "RunReport", "SweepGrid"}
NUMBER_TYPES = (int, float, typing.Optional[int], typing.Optional[float])


def _number_parameters(obj) -> list[str]:
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj) if f.init]
    else:
        names = list(inspect.signature(obj).parameters)
    hints = typing.get_type_hints(obj)
    return [f"{obj.__qualname__}.{n}" for n in names if hints.get(n) in NUMBER_TYPES]


def test_every_public_number_parameter_has_a_draw():
    exported = [getattr(lorafa, name) for name in dir(lorafa) if not name.startswith("_")]
    callables = [obj for obj in exported if callable(obj) and not inspect.ismodule(obj)
                 and not (inspect.isclass(obj) and issubclass(obj, BaseException))
                 and getattr(obj, "__qualname__", None) not in RESULT_RECORDS]
    found = {p for obj in callables + [Dataset.batch] for p in _number_parameters(obj)}
    assert "Dataset.batch.step" in found and "RunConfig.lr" in found  # the walk sees them
    missing = sorted(found - set(PARAMETERS))
    assert not missing, f"no bad-value draw for {missing}"
