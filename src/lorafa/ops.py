"""Primitive tensor operations and their reverse-mode (vjp) rules.

Values are float64 numpy arrays, as every array lorafa builds is; the
kernels allocate results and scratch in float64. Every operation validates
shapes up front; an operand that is not a numpy array of integers or reals
(a list, a string or complex array) is a DimensionError too. Backward rules
are paired ``*_vjp`` functions taking exactly the tensors the forward pass
retained; the gradient-check harness pairs each with its forward op.
NaN/Inf is an error state (NumericsError), checked where a value leaves a
step and nowhere inside it: in the model's logits, the loss and each
gradient backward returns, which every product reaches; and ``qr``,
``qr_pivoted`` and ``numerical_rank`` check what LAPACK takes or gives. The
kernels compute through NaN/Inf, with numpy's RuntimeWarning; a caller that
turns warnings into errors gets a NumericsError instead.

No operation writes into its arguments: the tape retains forward inputs and
outputs for backward. The three exceptions are the ``out=`` of ``gelu_vjp``
and ``layer_norm_vjp``, which a caller may point at a dead gradient,
upstream included, and of ``matmul``, which it points at part of an array
it fills; none writes into anything unless a caller passes one. The
elementwise kernels (GeLU, layer norm, softmax) write each intermediate
into a buffer they allocated themselves, with ``out=``, applying the same
operations in the same order and association as the plain numpy expression,
so results are bit for bit the same. GeLU and its vjp, whose chains of a
dozen passes over a multi-MB activation would otherwise stream through
memory, run over flat blocks sized to stay in L2: a kernel's scratch rows
total ``BLOCK`` elements, so gelu_vjp's four rows take BLOCK // 4 elements
of each operand per pass; inputs up to one pass take a single one. Layer
norm and softmax are not blocked: their row reductions (and the whole-array
column sums of dgamma/dbeta, whose summation order blocking would change)
see the whole array, and their arrays are small enough to stay cached.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .errors import DimensionError, NumericsError

# GeLU uses the tanh approximation throughout so forward and backward share
# one canonical formula.
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715

# Scratch elements of a blocked GeLU kernel, all its rows together: 16,384
# float64 values are 128 KB, so one pass's operands and scratch stay in a
# core's L2, and no kernel holds more scratch than that.
BLOCK = 16_384

# Rows per block of the row-blocked ffn2 forward (adapters.forward with
# gelu_into=). The GEMMs of a row block must give the whole array's rows bit
# for bit, and BLAS may block a product of fewer rows differently: with
# OpenBLAS 0.3.31 on one thread the g2-wide x@A (512x512 @ 512x16) changes
# bits for blocks below 128 rows, and 64-row blocks move the g2-wide lora and
# lora-fa lines of tools/report_digest.py; at 128 rows all of its lines match
# the whole-array products'.
ROWS = 128

# Relative threshold on singular values when counting numerical rank.
RANK_REL_TOL = 1e-8

LAYER_NORM_EPS = 1e-5  # added to the row variance in layer_norm


def _op(fn, arrays: bool = True):
    """fn as an op: its positional arguments are its operands, and (with
    arrays) one that is not a numpy array of integer or real floating dtype
    is a DimensionError; numpy's floating-point warning (NaN/Inf met or
    made), raised as an exception where the caller's warnings filter says
    so, is a NumericsError. A try costs nothing until it catches; an
    np.errstate that silenced the warning instead would cost 0.6 us a call
    (numpy 2.4), 7% of the benchmark's verify pass on a 2-vCPU VM."""
    @functools.wraps(fn)
    def op(*operands, **options):
        for x in operands if arrays else ():
            if not isinstance(x, np.ndarray) or x.dtype.kind not in "iuf":
                raise DimensionError(f"{fn.__name__} takes numpy arrays, got "
                                     f"{getattr(x, 'dtype', type(x).__name__)}")
        try:
            return fn(*operands, **options)
        except RuntimeWarning as exc:
            raise NumericsError(f"{fn.__name__}: {exc}") from exc
    return op


def numerics(fn):
    """fn with numpy's floating-point warning as a NumericsError, as for an op,
    for a function whose operands are not all arrays and that checks them itself."""
    return _op(fn, arrays=False)


def _rows(op: str, x: np.ndarray) -> None:
    """DimensionError unless x has a last dimension of at least one element."""
    if x.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError(f"{op} needs a non-empty last dimension")


def ensure_finite(x: np.ndarray, what: str = "result") -> np.ndarray:
    # The sum is NaN/Inf-propagating and cheaper than isfinite().all(), which
    # decides only when the sum is not finite: finite values can overflow it.
    # That overflow (or inf - inf between partial sums) is expected, so it
    # warns of neither. np.add.reduce is np.sum without its Python-level
    # dispatch, which costs more than the reduction on the tiny arrays of the
    # gradient checks.
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(np.add.reduce(x, axis=None)) or np.isfinite(x).all()
    if not finite:
        raise NumericsError(f"{what} contains NaN or Inf")
    return x


@_op
def matmul(a: np.ndarray, b: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Product of a (..., k) activation and a 2-d (k, n) weight.

    The leading dimensions of ``a`` are folded into one (rows, k) @ (k, n)
    GEMM, not numpy's stacked per-batch products, written into a fresh
    buffer of the result's shape, so the result owns its memory and a tape
    retaining it keeps nothing else alive; or into ``out``, which comes
    back: a float (rows, n) view with unit column stride, such as a column
    block of a C-contiguous array, which BLAS writes like a whole array.
    """
    if a.ndim < 2 or b.ndim != 2:
        raise DimensionError(
            f"matmul needs a (..., k) activation and a 2-d weight: {a.shape} x {b.shape}"
        )
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner extents differ: {a.shape} x {b.shape}"
        )
    rows = math.prod(a.shape[:-1])
    if out is not None and (not isinstance(out, np.ndarray) or out.dtype.kind != "f"
                            or out.shape != (rows, b.shape[1]) or out.strides[1] != out.itemsize):
        raise DimensionError(f"matmul out must be a float {(rows, b.shape[1])} array "
                             "with unit column stride")
    if out is None:
        out = np.empty(a.shape[:-1] + b.shape[1:])
    np.matmul(a.reshape(rows, a.shape[-1]), b, out=out.reshape(rows, b.shape[1]))
    return out


@_op
def matmul_vjp(a: np.ndarray, b: np.ndarray, upstream: np.ndarray):
    """d(a @ b) for ``matmul``: da = upstream @ b^T, db = a^T @ upstream.

    da is one folded product like the forward's; the leading dimensions of
    ``a`` are folded into db. upstream must have the product's shape.
    """
    # A b that is not 2-d fails matmul's own check below.
    product = a.shape[:-1] + b.shape[1:]
    if b.ndim == 2 and (a.shape[-1:] != b.shape[:1] or upstream.shape != product):
        raise DimensionError(f"matmul_vjp shapes: {a.shape} x {b.shape}, upstream {upstream.shape}")
    da = matmul(upstream, b.T)
    rows = math.prod(a.shape[:-1])
    db = a.reshape(rows, a.shape[-1]).T @ upstream.reshape(rows, upstream.shape[-1])
    return da, db


def _blockwise(kernel, arrays: tuple, n_scratch: int) -> None:
    """Run ``kernel(*arrays, *scratch)`` over aligned pieces of same-shape arrays.

    The n_scratch scratch rows total BLOCK elements, BLOCK // n_scratch each.
    Up to that many elements that is one call on the whole arrays; above it,
    one call per flat block of that many, all blocks sharing the scratch rows,
    so a kernel's chain of in-place ufuncs stays in cache.
    """
    step = BLOCK // n_scratch
    n = arrays[0].size
    if n <= step:
        kernel(*arrays, *[np.empty(arrays[0].shape) for _ in range(n_scratch)])
        return
    flat = [a.reshape(-1) for a in arrays]
    scratch = [np.empty(step) for _ in range(n_scratch)]
    for lo in range(0, n, step):
        k = min(step, n - lo)
        kernel(*[f[lo : lo + k] for f in flat], *[s[:k] for s in scratch])


# The GeLU kernels pass ``out`` positionally: on the tiny inputs of the
# gradient checks the keyword form costs a measurable share of each call.

def _gelu_kernel(x, out, w):
    # out = 0.5 x (1 + tanh(c (x + a (x^2 x)))); w holds the temporaries.
    np.multiply(x, x, w)
    np.multiply(w, x, w)
    np.multiply(w, _GELU_A, w)
    np.add(x, w, w)
    np.multiply(_GELU_C, w, out)
    np.tanh(out, out)
    np.add(out, 1.0, out)
    np.multiply(0.5, x, w)
    np.multiply(out, w, out)


def _gelu_vjp_kernel(x, upstream, out, x2, w, t, s):
    # out = (0.5 (1 + t) + (0.5 c) x (1 - t t) (1 + 3a x2)) * upstream,
    # t = tanh(c (x + a (x2 x))); x2, w, t and s are scratch, w holding the
    # derivative once t exists. out is written only by the last multiply,
    # after upstream's last read, so out may be upstream itself.
    np.multiply(x, x, x2)
    np.multiply(x2, x, w)
    np.multiply(w, _GELU_A, w)
    np.add(x, w, w)
    np.multiply(_GELU_C, w, t)
    np.tanh(t, t)
    np.multiply(0.5 * _GELU_C, x, w)
    np.multiply(t, t, s)
    np.subtract(1.0, s, s)
    np.multiply(w, s, w)
    np.multiply(x2, 3.0 * _GELU_A, x2)
    np.add(x2, 1.0, x2)
    np.multiply(w, x2, w)
    np.add(t, 1.0, t)
    np.multiply(t, 0.5, t)
    np.add(t, w, w)
    np.multiply(w, upstream, out)


@_op
def gelu(x: np.ndarray) -> np.ndarray:
    """GeLU, tanh approximation: 0.5 x (1 + tanh(c (x + a x^3)))."""
    out = np.empty(x.shape)
    _blockwise(_gelu_kernel, (x, out), 1)
    return out


@_op
def gelu_vjp(x: np.ndarray, upstream: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """d gelu(x) * upstream, into a fresh array or into ``out``, which may be
    ``upstream`` (a dead gradient the caller hands over) and must be a
    C-contiguous array of x's shape."""
    # d/dx [0.5 x (1+t)] = 0.5 (1+t) + 0.5 x (1-t^2) * c (1 + 3a x^2)
    _check_out("gelu_vjp", out, x.shape)
    if upstream.shape != x.shape:
        raise DimensionError(f"gelu_vjp upstream {upstream.shape} vs x {x.shape}")
    if out is None:
        out = np.empty(x.shape)
    _blockwise(_gelu_vjp_kernel, (x, upstream, out), 4)
    return out


def _check_out(op: str, out: Optional[np.ndarray], shape: tuple) -> None:
    """DimensionError unless out is None or a C-contiguous float array of the given shape."""
    if out is not None and (not isinstance(out, np.ndarray) or out.shape != shape
                            or not out.flags.c_contiguous or out.dtype.kind != "f"):
        raise DimensionError(f"{op} out must be a C-contiguous float {shape} array")


@_op
def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last dimension, max-subtracted for stability.

    -Inf entries are permitted in the input (attention masking) as long as
    each row keeps at least one finite entry.
    """
    _rows("softmax_rows", x)
    m = np.max(x, axis=-1, keepdims=True)
    e = np.subtract(x, m, dtype=np.result_type(x, 0.0))  # a float, for integer x too
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


@_op
def softmax_rows_vjp(probs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    if probs.ndim < 1 or upstream.shape != probs.shape:
        raise DimensionError(f"softmax_rows_vjp needs rows: upstream {upstream.shape} "
                             f"vs probs {probs.shape}")
    t = np.multiply(upstream, probs)
    dot = np.sum(t, axis=-1, keepdims=True)
    np.subtract(upstream, dot, out=t)
    t *= probs
    return t


@_op
def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Normalize rows (last dim) to mean 0 / variance 1, then affine.

    gamma and beta are per-feature vectors of x's last extent. Returns
    (y, x_hat, inv_std); the latter two are what backward needs.
    """
    _rows("layer_norm", x)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise DimensionError(
            f"layer_norm gamma {gamma.shape} and beta {beta.shape} must be {x.shape[-1:]}"
        )
    mean = np.mean(x, axis=-1, keepdims=True)
    x_hat = np.subtract(x, mean)
    sq = np.multiply(x_hat, x_hat)
    var = np.mean(sq, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    x_hat *= inv_std
    # y = gamma * x_hat + beta, built in sq's buffer.
    y = np.multiply(gamma, x_hat, out=sq)
    y += beta
    return y, x_hat, inv_std


@_op
def layer_norm_vjp(
    x_hat: np.ndarray,
    inv_std: np.ndarray,
    gamma: np.ndarray,
    upstream: np.ndarray,
    *,
    param_grads: bool = True,
    out: Optional[np.ndarray] = None,
):
    """Gradients (dx, dgamma, dbeta) for layer_norm, from its x_hat and inv_std.

    With param_grads false, gamma and beta are frozen: dgamma and dbeta are
    not computed and come back as None. dx goes into a fresh array or into
    ``out``, which may be ``upstream`` (a dead gradient the caller hands
    over) and must be a C-contiguous array of x_hat's shape.
    """
    _rows("layer_norm_vjp", x_hat)
    if (
        upstream.shape != x_hat.shape
        or gamma.shape != x_hat.shape[-1:]
        or inv_std.shape != x_hat.shape[:-1] + (1,)
    ):
        raise DimensionError(
            f"layer_norm_vjp shapes differ: x_hat {x_hat.shape}, inv_std {inv_std.shape}, "
            f"gamma {gamma.shape}, upstream {upstream.shape}"
        )
    _check_out("layer_norm_vjp", out, x_hat.shape)
    dxhat = np.multiply(upstream, gamma, dtype=np.result_type(upstream, gamma, 0.0))
    dgamma = dbeta = None
    if param_grads:
        # upstream's last reads, before out may take the product and then dx.
        axes = tuple(range(x_hat.ndim - 1))
        dbeta = np.sum(upstream, axis=axes)
        dgamma = np.sum(np.multiply(upstream, x_hat, out=out), axis=axes)
    mean_dxhat = np.mean(dxhat, axis=-1, keepdims=True)
    # dx = inv_std * ((dxhat - mean(dxhat)) - x_hat * mean(dxhat * x_hat)), built
    # in out or in the buffer of dxhat * x_hat.
    dx = np.multiply(dxhat, x_hat, out=out)
    mean_dxhat_xhat = np.mean(dx, axis=-1, keepdims=True)
    np.multiply(x_hat, mean_dxhat_xhat, out=dx)
    dxhat -= mean_dxhat
    np.subtract(dxhat, dx, out=dx)
    np.multiply(inv_std, dx, out=dx)
    return dx, dgamma, dbeta


def _apply_reflector(v: np.ndarray, block: np.ndarray) -> None:
    block -= 2.0 * (v[:, None] * (v @ block))  # np.outer(v, v @ block), inlined


@_op
def qr(m: np.ndarray):
    """Reduced QR of a d x r matrix (d >= r) by LAPACK: m = q @ rr.

    q is d x r with orthonormal columns, rr is r x r upper-triangular, both
    float64. Rank-deficient input is allowed; it shows up as near-zero
    diagonal entries of rr. LAPACK returns NaN without raising, so the
    finiteness checks turn non-finite input into a NumericsError.
    """
    if m.ndim != 2:
        raise DimensionError("qr expects a matrix")
    d, r = m.shape
    if d < r:
        raise DimensionError(f"qr expects d >= r, got {d} x {r}")
    q, rr = np.linalg.qr(np.asarray(m, dtype=np.float64))
    return ensure_finite(q, "qr"), ensure_finite(rr, "qr")


@_op
def qr_pivoted(m: np.ndarray):
    """Column-pivoted Householder QR: m[:, perm] = q @ rr.

    Pivoting on the largest remaining column norm makes |diag(rr)|
    non-increasing. Norms and reflector updates are the sums
    np.linalg.norm and np.outer evaluate, called directly, so every result
    is bit for bit theirs; a zero column gets a zero reflector.
    """
    if m.ndim != 2:
        raise DimensionError("qr_pivoted expects a matrix")
    work = np.array(m, dtype=np.float64, copy=True)
    d, n = work.shape
    perm = np.arange(n)
    vs: list[np.ndarray] = []
    for j in range(min(d, n)):
        blk = work[j:, j:]
        p = j + int(np.sqrt(np.add.reduce(blk * blk, axis=0)).argmax())
        if p != j:
            col = work[:, j].copy()
            work[:, j] = work[:, p]
            work[:, p] = col
            perm[j], perm[p] = perm[p], perm[j]
        v = work[j:, j].copy()
        normx = math.sqrt(v.dot(v))
        vnorm = 0.0
        if normx > 0.0:
            v[0] += normx if v[0] >= 0 else -normx
            vnorm = math.sqrt(v.dot(v))
        if vnorm > 0.0:
            v /= vnorm
            _apply_reflector(v, blk)
        else:
            v[:] = 0.0
        vs.append(v)
    k = len(vs)
    rr = np.triu(work[:k, :])
    q = np.eye(d, k)
    for j in reversed(range(k)):
        _apply_reflector(vs[j], q[j:, :])
    return ensure_finite(q, "qr_pivoted"), ensure_finite(rr, "qr_pivoted"), perm


@_op
def numerical_rank(m: np.ndarray) -> int:
    """Count singular values above RANK_REL_TOL * ||m||_F (LAPACK, values only);
    a NaN/Inf entry is a NumericsError. The norm is taken of m divided by the
    power of two just above max|m|, which is exact and cannot overflow."""
    if m.ndim != 2:
        raise DimensionError("numerical_rank expects a matrix")
    peak = ensure_finite(np.max(np.abs(m), initial=0.0), "numerical_rank's input")
    if peak == 0.0:
        return 0
    e = np.frexp(peak)[1]
    threshold = np.ldexp(RANK_REL_TOL * np.linalg.norm(np.ldexp(m, -e)), e)
    return int(np.sum(np.linalg.svd(m, compute_uv=False) > threshold))
