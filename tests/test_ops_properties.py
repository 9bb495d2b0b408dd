"""Property test for the primitive ops: whatever shapes (0-d and width 0
included) and values (NaN, Inf and overflowing ones included) their
operands have, and whether they are float64 arrays, arrays of another
dtype or lists, every op run with warnings as errors either returns or
raises a LorafaError. numpy's own AttributeError, IndexError, ValueError,
TypeError, LinAlgError or RuntimeWarning must never escape."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lorafa import ops
from lorafa.errors import LorafaError

VALUES = st.floats(allow_nan=True, allow_infinity=True, width=64) | st.sampled_from(
    [np.nan, np.inf, -np.inf, 1e200, -1e200, 0.0])
# An array operand of another dtype, now and then: integers are reals to the
# ops, and a bool, complex, string or object array is a DimensionError.
OTHER_DTYPES = [np.int64, np.bool_, np.complex128, np.dtype("U2"), np.dtype(object)]


def _operand(data, shape: tuple, fit: bool = True):
    """A float64 array of the given shape (or, now and then, of a drawn one
    or of another dtype), or a list."""
    kind = data.draw(st.sampled_from(["array"] * 6 + ["other shape", "other dtype", "list"]))
    if kind == "list":
        return data.draw(st.lists(VALUES, max_size=4))
    if kind == "other shape" or not fit:
        shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
    dtype = data.draw(st.sampled_from(OTHER_DTYPES)) if kind == "other dtype" else np.float64
    elements = VALUES if dtype in (np.float64, object) else None  # None: any value of dtype
    return data.draw(hnp.arrays(dtype, shape, elements=elements))


def _operands(data, op: str) -> tuple:
    """Operands for op, shaped to fit one another unless _operand draws otherwise."""
    x = _operand(data, (), fit=False)
    shape = np.shape(x)
    rows, width = shape[:-1], shape[-1:]
    n = data.draw(st.integers(0, 3))
    if op == "matmul":
        return x, _operand(data, width + (n,))
    if op == "matmul_vjp":
        return x, _operand(data, width + (n,)), _operand(data, rows + (n,))
    if op in ("gelu_vjp", "softmax_rows_vjp"):
        return x, _operand(data, shape)
    if op == "layer_norm":
        return x, _operand(data, width), _operand(data, width)
    if op == "layer_norm_vjp":
        return x, _operand(data, rows + (1,)), _operand(data, width), _operand(data, shape)
    return (x,)


OPS = ["matmul", "matmul_vjp", "gelu", "gelu_vjp", "softmax_rows", "softmax_rows_vjp",
       "layer_norm", "layer_norm_vjp", "qr", "qr_pivoted", "numerical_rank"]


@settings(derandomize=True, max_examples=600, database=None, deadline=None)
@given(st.sampled_from(OPS), st.data())
def test_ops_return_or_raise_a_lorafa_error(op, data):
    operands = _operands(data, op)
    options = {"param_grads": data.draw(st.booleans())} if op == "layer_norm_vjp" else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            getattr(ops, op)(*operands, **options)
        except LorafaError:
            pass
