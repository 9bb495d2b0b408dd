"""Property test for the equivalence checks: whatever layer modes, sizes and
values (NaN, Inf and overflowing ones included), whatever inputs, upstreams
and merged-weight changes (lists, non-numbers and any shape included), and
whatever sizes, step sizes and sample counts (floats, bools and strings
included), each of ``verify_sgd_equivalence``, ``estimate_unbiasedness``
and ``subspace_check`` run with warnings as errors either returns or raises
a LorafaError. numpy's own AttributeError, TypeError, ValueError or
RuntimeWarning must never escape."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lorafa.adapters import Mode, init_adapter
from lorafa.equivalence import estimate_unbiasedness, subspace_check, verify_sgd_equivalence
from lorafa.errors import DimensionError, LorafaError, ParameterError
from lorafa.rng import RngState

VALUES = st.floats(allow_nan=True, allow_infinity=True, width=64) | st.sampled_from(
    [np.nan, np.inf, -np.inf, 1e200, -1e200, 0.0])
# A size, step size or sample count: small integers mostly, else what a
# caller might pass by mistake.
SCALARS = st.integers(-1, 4) | st.sampled_from([0.0, 2.5, -1.0, np.nan, np.inf, 1e200, True, "3"])


def _operand(data, shape: tuple):
    """A float64 array of the given shape, now and then of a drawn one, or a list."""
    kind = data.draw(st.sampled_from(["array"] * 6 + ["other shape", "list"]))
    if kind == "list":
        return data.draw(st.lists(st.lists(VALUES, max_size=3), max_size=3))
    if kind == "other shape":
        shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
    return data.draw(hnp.arrays(np.float64, shape, elements=VALUES))


def _layer(data):
    """A layer of a drawn mode (lora-fa mostly) and size whose B holds drawn values."""
    mode = data.draw(st.sampled_from([Mode.LORA_FA] * 3 + list(Mode)))
    d_in, d_out = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rank = data.draw(st.integers(1, min(d_in, d_out)))
    layer = init_adapter(d_in, d_out, rank, None, mode, RngState(data.draw(st.integers(0, 9))))
    if layer.b is not None and data.draw(st.booleans()):
        layer.b[...] = data.draw(hnp.arrays(np.float64, layer.b.shape, elements=VALUES))
    return layer


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(st.sampled_from(["sgd equivalence", "unbiasedness", "subspace"]), st.data())
def test_equivalence_checks_return_or_raise_a_lorafa_error(check, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if check == "sgd equivalence":
                layer = _layer(data)
                lead = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3))
                verify_sgd_equivalence(layer, _operand(data, lead + (layer.d_in,)),
                                       _operand(data, lead + (layer.d_out,)),
                                       data.draw(SCALARS | VALUES))
            elif check == "unbiasedness":
                estimate_unbiasedness(data.draw(SCALARS), data.draw(SCALARS),
                                      data.draw(SCALARS), RngState(data.draw(st.integers(0, 9))))
            else:
                d, r, d_out = (data.draw(st.integers(1, 3)) for _ in range(3))
                subspace_check(_operand(data, (d, r)), _operand(data, (d, d_out)))
        except LorafaError:
            pass


def test_a_list_for_a_and_a_float_size_are_typed_errors():
    # These used to escape as AttributeError and TypeError.
    with pytest.raises(DimensionError):
        subspace_check([[1.0], [2.0]], np.ones((2, 2)))
    with pytest.raises(ParameterError):
        estimate_unbiasedness(2.5, 1, 10, RngState(0))
