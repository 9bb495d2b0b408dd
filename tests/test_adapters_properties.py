"""Property test for the adapted linear layer: whatever modes, sizes and
values (NaN, Inf and overflowing ones included) a layer has, and whatever
shapes (0-d and width 0 included) its input, residual stream, retained
activations and upstream have, or whether they are float64 arrays, arrays
of another dtype or lists, each of ``forward``, ``backward`` and ``merge``
run with warnings as errors either returns or raises a LorafaError. numpy's
own AttributeError, IndexError, ValueError, TypeError or RuntimeWarning must
never escape."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lorafa import adapters
from lorafa.adapters import Mode, RetainedActivations, init_adapter
from lorafa.errors import LorafaError
from lorafa.rng import RngState

VALUES = st.floats(allow_nan=True, allow_infinity=True, width=64) | st.sampled_from(
    [np.nan, np.inf, -np.inf, 1e200, -1e200, 0.0])
# An array operand of another dtype, now and then: integers are reals to a
# layer, and a bool, complex, string or object array is a DimensionError.
OTHER_DTYPES = [np.int64, np.bool_, np.complex128, np.dtype("U2"), np.dtype(object)]


def _operand(data, shape: tuple):
    """A float64 array of the given shape, now and then of a drawn one or of
    another dtype, or a list."""
    kind = data.draw(st.sampled_from(["array"] * 6 + ["other shape", "other dtype", "list"]))
    if kind == "list":
        return data.draw(st.lists(VALUES, max_size=4))
    if kind == "other shape":
        shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
    dtype = data.draw(st.sampled_from(OTHER_DTYPES)) if kind == "other dtype" else np.float64
    elements = VALUES if dtype in (np.float64, object) else None  # None: any value of dtype
    return data.draw(hnp.arrays(dtype, shape, elements=elements))


def _layer(data):
    """A layer of a drawn mode and size whose tensors hold drawn values."""
    mode = data.draw(st.sampled_from(list(Mode)))
    d_in, d_out = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rank = data.draw(st.integers(1, min(d_in, d_out)))
    layer = init_adapter(d_in, d_out, rank, None, mode, RngState(data.draw(st.integers(0, 9))))
    for name in ("w", "a", "b"):
        tensor = getattr(layer, name)
        if tensor is not None and data.draw(st.booleans()):
            tensor[...] = data.draw(hnp.arrays(np.float64, tensor.shape, elements=VALUES))
    return layer


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(st.sampled_from(["forward", "forward into a stream", "backward", "merge"]), st.data())
def test_layer_calls_return_or_raise_a_lorafa_error(call, data):
    layer = _layer(data)
    lead = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if call == "forward":
                adapters.forward(layer, _operand(data, lead + (layer.d_in,)))
            elif call == "forward into a stream":
                adapters.forward(layer, _operand(data, lead + (layer.d_in,)),
                                 gelu_into=_operand(data, lead + (layer.d_out,)))
            elif call == "backward":
                # what forward kept, from an input whose leading dims may differ from dy's
                rows = data.draw(st.sampled_from([lead] * 3 + [lead + (2,), (1,) + lead]))
                kept = RetainedActivations(
                    x_full=(data.draw(hnp.arrays(np.float64, rows + (layer.d_in,), elements=VALUES))
                            if layer.mode.retains_full_input else None),
                    x_low=(data.draw(hnp.arrays(np.float64, rows + (layer.rank,), elements=VALUES))
                           if layer.mode.has_adapter else None),
                )
                adapters.backward(layer, kept, _operand(data, lead + (layer.d_out,)),
                                  data.draw(st.booleans()))
            else:
                adapters.merge(layer)
        except LorafaError:
            pass
