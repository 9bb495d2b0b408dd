import tracemalloc
import warnings

import numpy as np
import pytest

from lorafa import ops
from lorafa.errors import DimensionError, NumericsError, ParameterError
from lorafa.gradcheck import check_primitives, fd_gradient
from lorafa.rng import RngState, randn


# --- matmul ---------------------------------------------------------------

def test_matmul_hand_value():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(ops.matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_identity_and_annihilator():
    x = randn((4, 4), RngState(0))
    assert np.array_equal(ops.matmul(x, np.eye(4)), x)
    assert np.array_equal(ops.matmul(x, np.zeros((4, 4))), np.zeros((4, 4)))


def test_matmul_batched_leading_dims():
    x = randn((2, 3, 4), RngState(1))
    w = randn((4, 5), RngState(2))
    out = ops.matmul(x, w)
    assert out.shape == (2, 3, 5)
    assert np.allclose(out[1], x[1] @ w)


@pytest.mark.parametrize("lead", [(2, 3), (8, 64), (2, 2, 5)])
@pytest.mark.parametrize("transposed", [False, True])
def test_matmul_folds_leading_dims_into_one_product(lead, transposed):
    rng = np.random.default_rng(3)
    a = rng.standard_normal(lead + (16,))
    b = rng.standard_normal((11, 16)).T if transposed else rng.standard_normal((16, 11))
    out = ops.matmul(a, b)
    folded = a.reshape(-1, 16) @ b
    assert out.shape == lead + (11,)
    assert np.array_equal(out, folded.reshape(out.shape))
    assert out.base is None and out.flags.c_contiguous


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        ops.matmul(np.ones((2, 3)), np.ones((4, 2)))
    with pytest.raises(DimensionError):
        ops.matmul(np.ones(3), np.ones((3, 2)))
    with pytest.raises(DimensionError, match="2-d weight"):
        ops.matmul(np.ones((2, 3, 4)), np.ones((2, 4, 5)))
    with pytest.raises(DimensionError, match="2-d weight"):
        ops.matmul_vjp(np.ones((2, 3, 4)), np.ones((2, 4, 5)), np.ones((2, 3, 5)))


def test_matmul_computes_through_nan():
    # NaN/Inf is checked where a value leaves the step (the logits, the loss,
    # the gradients), not in each product.
    out = ops.matmul(np.array([[np.nan, 1.0]]), np.ones((2, 2)))
    assert np.isnan(out).all()


def test_ensure_finite_passes_finite_values_whose_sum_overflows():
    # Small and large arrays, without a warning: the sum's overflow (and
    # inf - inf between partial sums, or beside an Inf) is expected.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (10, 1024, 1025, 3072):
            big = np.full(n, 1e308)
            assert ops.ensure_finite(big) is big
            for bad in (np.nan, np.inf, -np.inf):
                x = big.copy()
                x[3] = bad
                with pytest.raises(NumericsError):
                    ops.ensure_finite(x)
            mixed = np.concatenate([big[: n // 2], -big[n // 2:]])
            assert ops.ensure_finite(mixed) is mixed


# --- elementwise ----------------------------------------------------------

def test_gelu_points():
    assert ops.gelu(np.array([0.0]))[0] == 0.0
    assert abs(ops.gelu(np.array([10.0]))[0] - 10.0) < 1e-6
    # odd-ish behavior for large negatives
    assert abs(ops.gelu(np.array([-10.0]))[0]) < 1e-6


def test_gelu_vjp_at_zero_is_half_upstream():
    up = np.array([2.0, -3.0, 0.5])
    out = ops.gelu_vjp(np.zeros(3), up)
    assert np.allclose(out, 0.5 * up)


# --- softmax / layer_norm ---------------------------------------------------

def test_softmax_uniform():
    assert np.allclose(ops.softmax_rows(np.array([0.0, 0.0])), [0.5, 0.5])


def test_softmax_closed_form():
    out = ops.softmax_rows(np.array([np.log(2.0), 0.0]))
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_softmax_rows_sum_to_one():
    x = randn((5, 7), RngState(3))
    assert np.allclose(ops.softmax_rows(x).sum(axis=-1), 1.0)


def test_softmax_tolerates_masked_minus_inf():
    x = np.array([[0.0, -np.inf], [1.0, 2.0]])
    out = ops.softmax_rows(x)
    assert out[0, 1] == 0.0 and out[0, 0] == 1.0
    assert np.all(np.isfinite(out))


def test_layer_norm_constant_row():
    y, _, _ = ops.layer_norm(np.array([[1.0, 1.0, 1.0]]), np.ones(3), np.zeros(3))
    assert np.array_equal(y, np.zeros((1, 3)))


def test_layer_norm_standardizes():
    x = randn((6, 32), RngState(4))
    y, x_hat, _ = ops.layer_norm(x, np.ones(32), np.zeros(32))
    assert np.allclose(x_hat.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(x_hat.var(axis=-1), 1.0, atol=1e-4)  # up to eps
    assert np.array_equal(y, x_hat)


@pytest.mark.parametrize("call", [
    lambda: ops.layer_norm(np.array(1.0), np.ones(1), np.zeros(1)),
    lambda: ops.softmax_rows(np.array(1.0)),
    lambda: ops.softmax_rows_vjp(np.array(1.0), np.array(1.0)),
], ids=["layer_norm", "softmax_rows", "softmax_rows_vjp"])
def test_row_ops_reject_a_0d_input(call):
    with pytest.raises(DimensionError):
        call()


def test_layer_norm_vjp_rejects_rows_of_width_0():
    # as layer_norm does, instead of a "Mean of empty slice" warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="non-empty last dimension"):
            ops.layer_norm_vjp(np.zeros((2, 0)), np.ones((2, 1)), np.ones(0), np.zeros((2, 0)))


@pytest.mark.parametrize("call", [
    lambda: ops.matmul([[1.0]], np.ones((1, 1))),
    lambda: ops.gelu([1.0, 2.0]),
    lambda: ops.gelu_vjp(np.ones(2), [1.0, 2.0]),
    lambda: ops.softmax_rows([1.0, 2.0]),
    lambda: ops.softmax_rows_vjp(np.ones(2), [1.0, 2.0]),
    lambda: ops.layer_norm([1.0, 2.0], np.ones(2), np.zeros(2)),
], ids=["matmul", "gelu", "gelu_vjp", "softmax_rows", "softmax_rows_vjp", "layer_norm"])
def test_ops_reject_a_list(call):
    with pytest.raises(DimensionError, match="takes numpy arrays, got list"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ops.matmul(np.array([["a"]]), np.ones((1, 1))),
    lambda: ops.softmax_rows(np.array([1.0, 2.0], dtype=object)),
    lambda: ops.layer_norm(np.array([[1 + 2j, 3.0]]), np.ones(2), np.zeros(2)),
    lambda: ops.gelu(np.array([True, False])),
], ids=["string", "object", "complex", "bool"])
def test_ops_reject_an_array_of_non_reals(call):
    # These escaped as numpy's UFuncTypeError or TypeError, or (complex)
    # returned a complex result.
    with pytest.raises(DimensionError, match="takes numpy arrays, got"):
        call()


def test_ops_take_integer_arrays_as_reals():
    # softmax_rows and layer_norm_vjp used to write float results into an
    # integer buffer, which numpy refused with a UFuncTypeError.
    ints, inv = np.array([[1, -2, 4]]), np.array([[0.5]])
    floats = ints.astype(float)
    assert np.array_equal(ops.softmax_rows(ints), ops.softmax_rows(floats))
    assert np.array_equal(ops.matmul(ints, np.eye(3)), floats)
    for got, want in zip(ops.layer_norm_vjp(ints, inv, ints[0], ints),
                         ops.layer_norm_vjp(floats, inv, floats[0], floats)):
        assert np.array_equal(got, want)


# --- qr --------------------------------------------------------------------

def test_qr_identity():
    q, r = ops.qr(np.eye(3))
    assert np.allclose(q @ r, np.eye(3), atol=1e-14)
    assert np.allclose(np.abs(np.diag(r)), 1.0)


def test_qr_hand_value_up_to_sign():
    q, r = ops.qr(np.array([[3.0], [4.0]]))
    assert np.allclose(np.abs(q), [[0.6], [0.8]], atol=1e-14)
    assert np.allclose(np.abs(r), [[5.0]], atol=1e-14)
    assert np.allclose(q @ r, [[3.0], [4.0]], atol=1e-14)


def test_qr_orthonormal_and_reconstructs():
    m = randn((64, 8), RngState(5))
    q, r = ops.qr(m)
    assert np.linalg.norm(q.T @ q - np.eye(8)) < 1e-10
    assert np.linalg.norm(q @ r - m) < 1e-10
    assert np.allclose(r, np.triu(r))


def test_qr_rank_deficient_permitted():
    m = np.ones((4, 2))  # rank 1
    q, r = ops.qr(m)
    assert np.allclose(q @ r, m, atol=1e-12)
    assert abs(r[1, 1]) < 1e-12


def test_qr_rejects_wide():
    with pytest.raises(DimensionError):
        ops.qr(np.ones((2, 3)))


def test_qr_pivoted_reconstructs():
    m = randn((10, 6), RngState(6))
    q, r, perm = ops.qr_pivoted(m)
    assert np.linalg.norm(q @ r - m[:, perm]) < 1e-10
    diag = np.abs(np.diag(r))
    assert np.all(np.diff(diag) <= 1e-12)  # non-increasing


@pytest.mark.parametrize("true_rank", [1, 3, 6])
def test_numerical_rank(true_rank):
    rng = RngState(true_rank)
    a = randn((12, true_rank), rng)
    b = randn((true_rank, 9), rng)
    assert ops.numerical_rank(a @ b) == true_rank


def test_numerical_rank_zero():
    assert ops.numerical_rank(np.zeros((5, 4))) == 0


def test_numerical_rank_nonfinite_raises():
    for bad in (np.nan, np.inf, -np.inf):
        m = randn((8, 64), RngState(3))
        m[5, 0] = bad
        with pytest.raises(NumericsError):
            ops.numerical_rank(m)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_numerical_rank_of_a_huge_finite_matrix(scale):
    # The plain sum of squares of these entries overflows; the threshold,
    # taken from the matrix scaled by a power of two, stays finite.
    assert ops.numerical_rank(scale * np.eye(4)) == 4
    m = randn((8, 3), RngState(4)) @ randn((3, 64), RngState(5))
    assert ops.numerical_rank(scale * m) == ops.numerical_rank(m) == 3


@pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_numerical_rank_rejects_non_matrix(shape, fill):
    # the zero shortcut must not let a non-matrix through
    with pytest.raises(DimensionError):
        ops.numerical_rank(np.full(shape, fill))


# --- qr against plain Householder loops ---------------------------------------
# Reference loops, unpivoted and column-pivoted, written with np.linalg.norm
# and np.outer. qr_pivoted does the same arithmetic with fewer numpy calls
# and must match bit for bit; ops.qr (LAPACK) within QR_TOL; numerical_rank
# (singular values) must give the rank of the pivoted-QR diagonal rule.

def _ref_reflect(v, block):
    block -= 2.0 * np.outer(v, v @ block)


def _ref_householder_step(R, j, vs):
    x = R[j:, j]
    normx = np.linalg.norm(x)
    v = x.copy()
    if normx > 0.0:
        v[0] += (1.0 if x[0] >= 0 else -1.0) * normx
        vnorm = np.linalg.norm(v)
        if vnorm > 0.0:
            v /= vnorm
            _ref_reflect(v, R[j:, j:])
        else:
            v[:] = 0.0
    else:
        v[:] = 0.0
    vs.append(v)


def _ref_q(vs, d):
    q = np.eye(d, len(vs))
    for j in reversed(range(len(vs))):
        _ref_reflect(vs[j], q[j:, :])
    return q


def _ref_qr(m):
    R = np.array(m, dtype=np.float64, copy=True)
    vs = []
    for j in range(m.shape[1]):
        _ref_householder_step(R, j, vs)
    return _ref_q(vs, m.shape[0]), np.triu(R[: m.shape[1], :])


def _ref_qr_pivoted(m):
    R = np.array(m, dtype=np.float64, copy=True)
    d, n = R.shape
    perm = np.arange(n)
    vs = []
    for j in range(min(d, n)):
        p = j + int(np.argmax(np.linalg.norm(R[j:, j:], axis=0)))
        if p != j:
            R[:, [j, p]] = R[:, [p, j]]
            perm[[j, p]] = perm[[p, j]]
        _ref_householder_step(R, j, vs)
    return _ref_q(vs, d), np.triu(R[: len(vs), :]), perm


def _ref_pivoted_rank(m):
    scale_f = np.linalg.norm(m)
    if scale_f == 0.0:
        return 0
    _, rr, _ = _ref_qr_pivoted(m)
    return int(np.sum(np.abs(np.diag(rr)) > ops.RANK_REL_TOL * scale_f))


def _pivot_cases():
    rng = RngState(21)
    low = randn((12, 3), rng) @ randn((3, 9), rng)
    zero_col = randn((8, 16), rng)
    zero_col[:, 5] = 0.0
    tied = randn((8, 12), rng)
    tied[:, 2] *= 10.0  # the three tied columns lead the first pivot search
    tied[:, 7] = tied[:, 2]
    tied[:, 9] = -tied[:, 2]
    return {
        "wide_8x64": randn((8, 64), rng),
        "wide_8x256": randn((8, 256), rng),
        "tall_64x8": randn((64, 8), rng),
        "square_12x12": randn((12, 12), rng),
        "rank3_12x9": low,
        "zero_column": zero_col,
        "tied_columns": tied,
        "all_zero": np.zeros((4, 6)),
    }


PIVOT_CASES = _pivot_cases()


@pytest.mark.parametrize("name", sorted(PIVOT_CASES))
def test_qr_pivoted_bit_identical_to_reference(name):
    m = PIVOT_CASES[name]
    before = m.copy()
    q, r, perm = ops.qr_pivoted(m)
    q_ref, r_ref, perm_ref = _ref_qr_pivoted(m)
    assert q.tobytes() == q_ref.tobytes()
    assert r.tobytes() == r_ref.tobytes()
    assert np.array_equal(perm, perm_ref)
    assert np.array_equal(m, before)


@pytest.mark.parametrize("name", sorted(PIVOT_CASES))
def test_numerical_rank_matches_reference(name):
    m = PIVOT_CASES[name]
    assert ops.numerical_rank(m) == _ref_pivoted_rank(m)


def test_numerical_rank_of_cases():
    assert [ops.numerical_rank(PIVOT_CASES[k]) for k in (
        "rank3_12x9", "zero_column", "tied_columns", "all_zero"
    )] == [3, 8, 8, 0]


# LAPACK and the old loop apply the same reflectors in a different order of
# operations, so ops.qr may differ from the loop by rounding only. Bound set
# from the float64 unit roundoff, about 10x the largest gap seen on these shapes.
QR_TOL = 64 * np.finfo(np.float64).eps


@pytest.mark.parametrize("shape", [(64, 8), (256, 8), (256, 16), (16, 4), (7, 1)])
def test_qr_matches_householder_loop(shape):
    m = randn(shape, RngState(shape[0] + shape[1]))
    q, r = ops.qr(m)
    q_ref, r_ref = _ref_qr(m)
    assert np.max(np.abs(q - q_ref)) <= QR_TOL
    assert np.max(np.abs(r - r_ref)) <= QR_TOL * np.linalg.norm(m)


def test_qr_square_matches_loop_up_to_last_sign():
    # On a square matrix the last step reflects a single entry: the loop
    # flips its sign, LAPACK leaves it (identity reflector). Column signs of q
    # (row signs of r) are otherwise the same convention.
    m = randn((12, 12), RngState(22))
    q, r = ops.qr(m)
    q_ref, r_ref = _ref_qr(m)
    s = np.sign(np.diag(r)) * np.sign(np.diag(r_ref))
    assert np.all(s[:-1] == 1.0)
    assert np.max(np.abs(q * s - q_ref)) <= QR_TOL
    assert np.max(np.abs(s[:, None] * r - r_ref)) <= QR_TOL * np.linalg.norm(m)


def test_qr_float32_input_gives_float64():
    m = randn((16, 4), RngState(23)).astype(np.float32)
    q, r = ops.qr(m)
    assert q.dtype == np.float64 and r.dtype == np.float64
    assert np.linalg.norm(q @ r - m) < 1e-5 * np.linalg.norm(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_qr_nonfinite_raises(bad):
    m = randn((16, 4), RngState(24))
    m[3, 1] = bad
    with pytest.raises(NumericsError):
        ops.qr(m)


def test_qr_rejects_non_matrix():
    with pytest.raises(DimensionError):
        ops.qr(np.ones((4, 2, 1)))


# --- vjp rules and gradient oracle ------------------------------------------

def test_vjp_matmul_with_identity_upstream():
    a = randn((3, 4), RngState(7))
    b = randn((4, 3), RngState(8))
    da, db = ops.matmul_vjp(a, b, np.eye(3))
    assert np.allclose(da, b.T)
    assert np.allclose(db, a.T)


@pytest.mark.parametrize("call", [
    # an upstream of the wrong shape, including ones numpy would broadcast
    # or fold into a gradient of the wrong shape without complaint
    lambda: ops.softmax_rows_vjp(np.full((4, 5), 0.2), np.ones((4, 6))),
    lambda: ops.softmax_rows_vjp(np.full((4, 5), 0.2), np.ones((3, 4, 5))),
    lambda: ops.matmul_vjp(np.ones((2, 3, 4)), np.ones((4, 5)), np.ones((3, 3, 5))),
    lambda: ops.matmul_vjp(np.ones((2, 3, 4)), np.ones((4, 5)), np.ones((6, 5))),
    lambda: ops.matmul_vjp(np.ones((2, 3, 4)), np.ones((3, 5)), np.ones((2, 3, 5))),
    lambda: ops.gelu_vjp(np.ones((3, 4)), np.ones((3, 5))),
    lambda: ops.gelu_vjp(np.ones((3, ops.BLOCK)), np.ones(ops.BLOCK)),
    lambda: ops.gelu_vjp(np.ones((3, 4)), 2.0),
], ids=["softmax-width", "softmax-rank", "matmul-rows", "matmul-folded", "matmul-inner", "gelu",
        "gelu-row", "gelu-scalar"])
def test_vjps_reject_mismatched_upstream(call):
    with pytest.raises(DimensionError):
        call()


@pytest.mark.parametrize("x, out", [
    (np.ones((3, 4)), np.empty((3, 5))),
    (np.ones(ops.BLOCK + 1), np.empty(2 * (ops.BLOCK + 1))[::2]),  # its flat view is a copy
    (np.ones((3, 4)), np.empty((3, 4), dtype=int)),  # numpy will not cast floats into it
], ids=["shape", "strided", "integer"])
def test_gelu_vjp_rejects_an_out_it_cannot_write_in_place(x, out):
    with pytest.raises(DimensionError, match="out"):
        ops.gelu_vjp(x, np.ones(x.shape), out=out)


@pytest.mark.parametrize("out", [np.empty((3, 5)), np.empty((4, 8))[:, ::2], [0.0] * 4,
                                 np.empty((3, 4), dtype=int)],
                         ids=["shape", "strided", "list", "integer"])
def test_layer_norm_vjp_rejects_a_bad_out(out):
    _, x_hat, inv_std = ops.layer_norm(randn((3, 4), RngState(15)), np.ones(4), np.zeros(4))
    with pytest.raises(DimensionError, match="out"):
        ops.layer_norm_vjp(x_hat, inv_std, np.ones(4), np.ones((3, 4)), out=out)


def test_primitive_gradients_match_finite_differences():
    results = check_primitives(seed=11, trials=6)
    assert results, "no primitives checked"
    for name, err in results.items():
        assert err < 1e-5, f"{name}: {err}"


def test_fd_gradient_of_a_quadratic_is_its_analytic_gradient():
    # loss = 0.5 x^T Q x reads x from where it lives; its gradient is Q x.
    q = randn((4, 4), RngState(3))
    q = q @ q.T
    x = randn((2, 2), RngState(4))
    g = fd_gradient(lambda: 0.5 * float(x.reshape(-1) @ q @ x.reshape(-1)), x)
    assert np.allclose(g.reshape(-1), q @ x.reshape(-1), rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_fd_gradient_restores_x_when_the_loss_raises(k):
    x = randn((2, 3), RngState(5))
    before = x.tobytes()
    calls = []

    def loss():
        calls.append(1)
        if len(calls) == k:
            raise NumericsError("loss raised")
        return float(np.sum(x * x))

    with pytest.raises(NumericsError, match="loss raised"):
        fd_gradient(loss, x)
    assert x.tobytes() == before


def test_fd_gradient_rejects_a_non_contiguous_tensor():
    x = randn((2, 3), RngState(6)).T  # reshape(-1) of a transpose is a copy
    with pytest.raises(DimensionError, match="C-contiguous"):
        fd_gradient(lambda: float(np.sum(x)), x)


def test_primitive_gradients_reject_zero_trials():
    with pytest.raises(ParameterError, match="trials"):
        check_primitives(trials=0)


@pytest.mark.parametrize("seed", [34, 54])
def test_primitive_gradients_at_seeds_sensitive_to_the_fd_step(seed):
    # With a step well below cbrt(eps) rounding error put layer_norm over the
    # 1e-5 bound at these seeds (20 trials, as `lorafa gradcheck` runs).
    for name, err in check_primitives(seed=seed, trials=20).items():
        assert err < 1e-5, f"{name}: {err}"


# --- in-place kernels against the plain expressions ---------------------------
#
# The kernels write into preallocated buffers (and GeLU works in flat blocks
# of ops.BLOCK elements); the formulas below are the plain numpy expressions
# they replaced. Results must match bit for bit, in value and dtype, and no
# argument may change: forward outputs are retained on the tape.

def ref_gelu(x):
    x2 = x * x
    t = np.tanh(ops._GELU_C * (x + ops._GELU_A * (x2 * x)))
    t += 1.0
    t *= 0.5 * x
    return t


def ref_gelu_vjp(x, upstream):
    x2 = x * x
    t = np.tanh(ops._GELU_C * (x + ops._GELU_A * (x2 * x)))
    grad = 0.5 * (1.0 + t) + (0.5 * ops._GELU_C) * x * (1.0 - t * t) * (1.0 + 3.0 * ops._GELU_A * x2)
    grad *= upstream
    return grad


def ref_softmax_rows(x):
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def ref_softmax_rows_vjp(probs, upstream):
    dot = np.sum(upstream * probs, axis=-1, keepdims=True)
    return probs * (upstream - dot)


def ref_layer_norm(x, gamma, beta, eps=1e-5):
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.mean((x - mean) ** 2, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean) * inv_std
    return gamma * x_hat + beta, x_hat, inv_std


def ref_layer_norm_vjp(x_hat, inv_std, gamma, upstream):
    dxhat = upstream * gamma
    dx = inv_std * (
        dxhat
        - np.mean(dxhat, axis=-1, keepdims=True)
        - x_hat * np.mean(dxhat * x_hat, axis=-1, keepdims=True)
    )
    axes = tuple(range(x_hat.ndim - 1))
    return dx, np.sum(upstream * x_hat, axis=axes), np.sum(upstream, axis=axes)


KERNEL_SHAPES = [
    (1,), (ops.BLOCK - 1,), (ops.BLOCK,), (ops.BLOCK + 1,), (3 * ops.BLOCK + 7,), (8, 64, 512),
]


def assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def call_unchanged(fn, *args):
    """fn(*args), asserting that no argument array was written."""
    before = [np.array(a, copy=True) for a in args]
    out = fn(*args)
    for a, b in zip(args, before):
        assert_same(a, b)
    return out


def kernel_inputs(shape, dtype, seed=0):
    rng = RngState(seed + sum(shape))
    x = (3.0 * randn(shape, rng)).astype(dtype)
    upstream = randn(shape, rng).astype(dtype)
    gamma = randn(shape[-1:], rng).astype(dtype)
    beta = randn(shape[-1:], rng).astype(dtype)
    return x, upstream, gamma, beta


@pytest.mark.parametrize("dtype", [np.float64])  # gelu computes in float64 only
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_gelu_kernels_match_plain_expressions(shape, dtype):
    x, upstream, _, _ = kernel_inputs(shape, dtype)
    assert_same(call_unchanged(ops.gelu, x), ref_gelu(x))
    want = ref_gelu_vjp(x, upstream)
    assert_same(call_unchanged(ops.gelu_vjp, x, upstream), want)
    # out= may be upstream itself, a dead gradient the vjp overwrites.
    x0 = x.copy()
    assert ops.gelu_vjp(x, upstream, out=upstream) is upstream
    assert_same(upstream, want)
    assert_same(x, x0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_softmax_kernels_match_plain_expressions(shape, dtype):
    x, upstream, _, _ = kernel_inputs(shape, dtype)
    probs = call_unchanged(ops.softmax_rows, x)
    assert_same(probs, ref_softmax_rows(x))
    assert_same(call_unchanged(ops.softmax_rows_vjp, probs, upstream),
                ref_softmax_rows_vjp(probs, upstream))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_layer_norm_kernels_match_plain_expressions(shape, dtype):
    x, upstream, gamma, beta = kernel_inputs(shape, dtype)
    got = call_unchanged(ops.layer_norm, x, gamma, beta)
    want = ref_layer_norm(x, gamma, beta)
    for g, w in zip(got, want):
        assert_same(g, w)
    _, x_hat, inv_std = want
    got = call_unchanged(ops.layer_norm_vjp, x_hat, inv_std, gamma, upstream)
    for g, w in zip(got, ref_layer_norm_vjp(x_hat, inv_std, gamma, upstream)):
        assert_same(g, w)


@pytest.mark.parametrize("param_grads", [True, False])
@pytest.mark.parametrize("shape", [(1,), (8, 64, 512)])
def test_layer_norm_vjp_into_its_upstream_matches_the_default(shape, param_grads):
    # out= may be upstream itself, a dead gradient the caller hands over:
    # dgamma and dbeta read it first, and dx comes out bit for bit the
    # default's. Nothing but out is written.
    x, upstream, gamma, beta = kernel_inputs(shape, np.float64)
    _, x_hat, inv_std = ops.layer_norm(x, gamma, beta)
    want = ops.layer_norm_vjp(x_hat, inv_std, gamma, upstream, param_grads=param_grads)
    held = [np.array(a, copy=True) for a in (x_hat, inv_std, gamma)]
    got = ops.layer_norm_vjp(x_hat, inv_std, gamma, upstream, param_grads=param_grads,
                             out=upstream)
    assert got[0] is upstream
    assert_same(got[0], want[0])
    if param_grads:
        assert_same(got[1], want[1])
        assert_same(got[2], want[2])
    else:
        assert got[1:] == want[1:] == (None, None)
    for a, b in zip((x_hat, inv_std, gamma), held):
        assert_same(a, b)


def test_gelu_vjp_scratch_totals_one_block():
    # The vjp's four scratch rows hold ops.BLOCK // 4 elements each, so on
    # more than ops.BLOCK elements, writing into its upstream, it allocates
    # at most ops.BLOCK float64 values, plus the views' few hundred bytes.
    x, upstream, _, _ = kernel_inputs((3 * ops.BLOCK + 7,), np.float64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ops.gelu_vjp(x, upstream, out=upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= ops.BLOCK * 8 + 4096


def test_softmax_kernel_keeps_masked_entries_exact():
    s = 64
    scores = randn((8, 4, s, s), RngState(13))
    scores[..., np.triu(np.ones((s, s), dtype=bool), 1)] = -np.inf
    assert_same(call_unchanged(ops.softmax_rows, scores), ref_softmax_rows(scores))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(1,), (8, 64, 512)])
def test_layer_norm_vjp_without_param_grads(shape, dtype):
    # frozen gamma and beta: the same dx, and no dgamma or dbeta at all
    x, upstream, gamma, beta = kernel_inputs(shape, dtype)
    _, x_hat, inv_std = ops.layer_norm(x, gamma, beta)
    dx, dgamma, dbeta = call_unchanged(
        lambda *args: ops.layer_norm_vjp(*args, param_grads=False), x_hat, inv_std, gamma, upstream
    )
    assert dgamma is None and dbeta is None
    assert_same(dx, ops.layer_norm_vjp(x_hat, inv_std, gamma, upstream)[0])


def test_layer_norm_rejects_mismatched_shapes():
    x = randn((4, 6), RngState(14))
    with pytest.raises(DimensionError):
        ops.layer_norm(x, np.ones(5), np.zeros(6))
    with pytest.raises(DimensionError):
        ops.layer_norm(x, np.ones(6), np.zeros((1, 6)))
    _, x_hat, inv_std = ops.layer_norm(x, np.ones(6), np.zeros(6))
    with pytest.raises(DimensionError):
        ops.layer_norm_vjp(x_hat, inv_std, np.ones(6), np.ones(6))
    with pytest.raises(DimensionError):
        ops.layer_norm_vjp(x_hat, inv_std[0], np.ones(6), np.ones((4, 6)))
