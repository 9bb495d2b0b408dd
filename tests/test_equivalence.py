import numpy as np
import pytest

from lorafa import ops
from lorafa.adapters import AdaptedLinear, Mode, init_adapter
from lorafa.equivalence import (
    RANK_FROM_COEFF_RESIDUAL,
    estimate_unbiasedness,
    subspace_check,
    verify_sgd_equivalence,
)
from lorafa.errors import DimensionError, ModeError, NumericsError, ParameterError
from lorafa.ops import numerical_rank
from lorafa.rng import RngState, randn


# --- SGD equivalence -------------------------------------------------------------

def worked_layer():
    return AdaptedLinear(
        w=np.eye(2),
        a=np.array([[1.0], [0.0]]),
        b=np.zeros((1, 2)),
        rank=1,
        alpha=1.0,
        mode=Mode.LORA_FA,
    )


def test_sgd_equivalence_worked_example():
    from lorafa import adapters
    from lorafa.optim import SGDConfig, sgd_step

    layer = worked_layer()
    x = np.array([[1.0, 0.0]])
    dy = np.array([[2.0, 3.0]])
    assert verify_sgd_equivalence(layer, x, dy, eta=0.1) < 1e-15
    # and the actual merged-weight delta is the hand value
    work = layer.clone()
    before = adapters.merge(work)
    _, kept = adapters.forward(work, x)
    _, grads = adapters.backward(work, kept, dy)
    sgd_step({"b": work.b}, grads, SGDConfig(eta=0.1))
    delta = adapters.merge(work) - before
    assert np.allclose(delta, [[-0.2, -0.3], [0.0, 0.0]], atol=1e-15)


def test_sgd_equivalence_eta_zero():
    layer = worked_layer()
    assert verify_sgd_equivalence(layer, np.array([[1.0, 0.0]]), np.array([[2.0, 3.0]]), 0.0) == 0.0


def test_sgd_equivalence_random_layers():
    rng = RngState(3)
    worst = 0.0
    for _ in range(20):
        layer = init_adapter(16, 8, 4, None, Mode.LORA_FA, rng)
        layer.b[:] = randn(layer.b.shape, rng)
        x = randn((2, 3, 16), rng)
        dy = randn((2, 3, 8), rng)
        worst = max(worst, verify_sgd_equivalence(layer, x, dy, eta=0.1))
    assert worst < 1e-10


def test_sgd_equivalence_rejects_other_modes():
    layer = init_adapter(4, 4, 2, None, Mode.LORA, RngState(0))
    with pytest.raises(ModeError):
        verify_sgd_equivalence(layer, np.ones((1, 4)), np.ones((1, 4)), 0.1)


def test_sgd_equivalence_leaves_layer_untouched():
    layer = init_adapter(6, 5, 2, None, Mode.LORA_FA, RngState(7))
    b_before = layer.b.tobytes()
    verify_sgd_equivalence(layer, randn((2, 6), RngState(8)), randn((2, 5), RngState(9)), 0.3)
    assert layer.b.tobytes() == b_before


# --- unbiasedness -----------------------------------------------------------------

def test_second_moment_identity_small():
    # d=2, r=1: E[a a^T] = I, so mean over many samples approaches 1*I
    err = estimate_unbiasedness(2, 1, 40_000, RngState(4))
    assert err < 0.05


def test_unbiasedness_rejects_zero_samples():
    with pytest.raises(ParameterError, match="num_samples"):
        estimate_unbiasedness(8, 4, 0, RngState(5))


@pytest.mark.parametrize("d, r", [(0, 4), (4, 0), (-1, 4)])
def test_unbiasedness_rejects_sizes_below_one(d, r):
    # d or r of 0 would be a 0/0 NaN, not an error
    with pytest.raises(ParameterError, match="must be >= 1"):
        estimate_unbiasedness(d, r, 10, RngState(5))


def test_unbiasedness_reference_config():
    err = estimate_unbiasedness(8, 4, 100_000, RngState(5))
    assert err < 0.02


def test_unbiasedness_decays_with_samples():
    e_small = estimate_unbiasedness(8, 4, 2_000, RngState(6))
    e_large = estimate_unbiasedness(8, 4, 32_000, RngState(7))
    assert e_large < e_small / 2  # 16x samples should give ~4x reduction


# --- subspace ------------------------------------------------------------------------

def test_subspace_zero_delta():
    a = randn((8, 3), RngState(8))
    rep = subspace_check(a, np.zeros((8, 5)))
    assert rep.residual == 0.0
    assert rep.numerical_rank == 0


def test_subspace_residual_inside_column_space():
    rng = RngState(9)
    a = randn((12, 4), rng)
    delta = a @ randn((4, 6), rng)
    rep = subspace_check(a, delta)
    assert rep.residual < 1e-12
    assert rep.numerical_rank <= 4


def test_subspace_check_of_an_overflowing_delta_raises():
    # delta lies in col(A), but its norm overflows: no residual or rank can be
    # read, and the check must not report residual 0 and rank 0 as it did
    rng = RngState(11)
    a = randn((12, 4), rng)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
        subspace_check(a, a @ (1e160 * randn((4, 6), rng)))


def test_subspace_residual_outside_column_space():
    rng = RngState(10)
    a = randn((12, 2), rng)
    rep = subspace_check(a, randn((12, 6), rng))
    assert rep.residual > 0.5  # random matrix is mostly off a rank-2 subspace
    assert rep.numerical_rank == 6  # the off-subspace part counts towards the rank


def _factored_shapes(monkeypatch) -> list:
    """Record the shape of every matrix subspace_check hands to numerical_rank."""
    shapes = []
    real = ops.numerical_rank

    def spy(m, *args, **kw):
        shapes.append(m.shape)
        return real(m, *args, **kw)

    monkeypatch.setattr(ops, "numerical_rank", spy)
    return shapes


@pytest.mark.parametrize("d_in,d_out", [(64, 64), (64, 256), (256, 64)])
@pytest.mark.parametrize("live_rows", [8, 3])
def test_subspace_rank_from_coefficients_matches_full(monkeypatch, d_in, d_out, live_rows):
    # PARITY_MODEL layer shapes at r = 8; live_rows = 3 is a rank-deficient dB
    rng = RngState(12)
    layer = init_adapter(d_in, d_out, 8, None, Mode.LORA_FA, rng)
    db = np.zeros((8, d_out))
    db[:live_rows] = randn((live_rows, d_out), rng)
    delta = layer.alpha * (layer.a @ db)
    shapes = _factored_shapes(monkeypatch)
    rep = subspace_check(layer.a, delta)
    assert shapes == [(8, d_out)]  # rank taken from Q^T dW
    assert rep.numerical_rank == numerical_rank(delta) == live_rows


@pytest.mark.parametrize("factor,full_path", [(0.5, False), (2.0, True)])
def test_subspace_rank_path_follows_residual_gate(monkeypatch, factor, full_path):
    rng = RngState(13)
    a = randn((64, 8), rng)
    inside = a @ randn((8, 32), rng)
    perp = randn((64, 32), rng)
    perp -= a @ np.linalg.lstsq(a, perp, rcond=None)[0]
    target = factor * RANK_FROM_COEFF_RESIDUAL
    delta = inside + perp * (target * np.linalg.norm(inside) / np.linalg.norm(perp))
    shapes = _factored_shapes(monkeypatch)
    rep = subspace_check(a, delta)
    assert rep.residual == pytest.approx(target, rel=1e-2)
    assert shapes == [delta.shape if full_path else (8, 32)]
    assert rep.numerical_rank == 8  # the off part sits far below the rank threshold


def coefficients_with_last_singular_value(factor, r=8, d_out=64, seed=22):
    """An r x d_out matrix with singular values 1 (r - 1 times) and one at
    factor times the rank threshold RANK_REL_TOL * ||m||_F."""
    rng = RngState(seed)
    u = np.linalg.qr(randn((r, r), rng))[0]
    v = np.linalg.qr(randn((d_out, r), rng))[0]
    k = factor * ops.RANK_REL_TOL
    s = np.ones(r)
    s[-1] = k * np.sqrt(r - 1) / np.sqrt(1.0 - k * k)  # s[-1] = k * ||s||
    return (u * s) @ v.T


@pytest.mark.parametrize("factor,rank", [(0.5, 7), (2.0, 8)])
def test_numerical_rank_threshold(factor, rank):
    assert numerical_rank(coefficients_with_last_singular_value(factor)) == rank


@pytest.mark.parametrize("factor,rank", [(0.5, 7), (2.0, 8)])
def test_subspace_rank_counts_coefficient_singular_values(monkeypatch, factor, rank):
    # delta_w = A C with orthonormal A: Q^T delta_w = (Q^T A) C has C's
    # singular values, the last at factor times the rank threshold
    a = np.linalg.qr(randn((64, 8), RngState(14)))[0]
    delta = a @ coefficients_with_last_singular_value(factor)
    shapes = _factored_shapes(monkeypatch)
    rep = subspace_check(a, delta)
    assert rep.residual < RANK_FROM_COEFF_RESIDUAL
    assert shapes == [(8, 64)]
    assert rep.numerical_rank == rank


@pytest.mark.parametrize("a_shape,dw_shape", [
    ((8, 2), (6, 3)),      # row counts differ
    ((8,), (8, 3)),        # A not a matrix
    ((8, 2), (8, 3, 1)),   # delta_w not a matrix
])
def test_subspace_check_rejects_bad_shapes(a_shape, dw_shape):
    with pytest.raises(DimensionError):
        subspace_check(np.ones(a_shape), np.ones(dw_shape))


@pytest.mark.parametrize("bad", [np.full((2, 1), "a"), np.ones((2, 1), dtype=complex)],
                         ids=["string", "complex"])
def test_subspace_check_rejects_an_array_of_non_reals(bad):
    # A string A escaped as ops.qr's ValueError; a complex one was cast to its real part.
    with pytest.raises(DimensionError):
        subspace_check(bad, np.ones((2, 2)))
    with pytest.raises(DimensionError):
        subspace_check(np.ones((2, 1)), bad)

