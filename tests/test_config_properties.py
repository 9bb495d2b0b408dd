"""Property tests: whatever a parsed JSON config holds, RunConfig.from_dict
either builds a config or raises a LorafaError, which the CLI maps to exit 2."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from lorafa.errors import LorafaError
from lorafa.train import RunConfig

VALID = {
    "model": {"d": 16, "n_layers": 1, "n_heads": 2, "vocab": 12, "seq_len": 8,
              "batch_size": 4, "d_ff": None},
    "mode": "lora-fa", "rank": 2, "alpha": None, "optimizer": "adamw", "lr": 0.01,
    "weight_decay": 0.0, "steps": 5, "seed": 0, "task": "copy", "n_examples": 16,
    "warmup_steps": 0, "equiv_every": 0, "report_path": None,
}

# JSON-shaped values: wrong types, bools, NaN/+-Inf, integers far beyond
# int64 and the float range, and strings; plus every valid field value, so
# that some generated configs are accepted.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**63, -(2**63) - 1, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(["ft", "lora", "lora-fa", "frozen", "sgd", "copy", "char-lm", "1e-3"]),
    st.sampled_from([v for v in VALID.values() if not isinstance(v, dict)]),
    st.sampled_from(list(VALID["model"].values())),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


@st.composite
def config_objects(draw):
    cfg = copy.deepcopy(VALID)
    for section in (cfg, cfg["model"]):
        for key in draw(st.lists(st.sampled_from(sorted(section)), unique=True, max_size=3)):
            if draw(st.booleans()):
                del section[key]
            else:
                section[key] = draw(VALUES)
        if draw(st.integers(0, 3)) == 0:
            section.update(draw(st.dictionaries(st.text(max_size=10), VALUES, max_size=2)))
    return draw(st.one_of(st.just(cfg), VALUES)) if draw(st.integers(0, 9)) == 0 else cfg


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(config_objects())
def test_from_dict_raises_only_lorafa_errors(obj):
    try:
        cfg = RunConfig.from_dict(obj)
    except LorafaError:
        return
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
