import numpy as np
import pytest

from lorafa import adapters
from lorafa.adapters import Mode, init_adapter, merge
from lorafa.errors import (
    DimensionError,
    ModeError,
    ParameterError,
    RetentionPolicyError,
)
from lorafa.gradcheck import check_adapter_layer, check_tiny_model
from lorafa.ops import numerical_rank
from lorafa.rng import RngState, randn


def make_layer(mode, d_in=6, d_out=5, rank=3, alpha=None, seed=0, random_b=False):
    layer = init_adapter(d_in, d_out, rank, alpha, mode, RngState(seed))
    if random_b and layer.b is not None:
        layer.b[:] = randn(layer.b.shape, RngState(seed + 1000))
    return layer


# --- initialization ---------------------------------------------------------

def test_init_shapes_and_zero_b():
    layer = make_layer(Mode.LORA_FA)
    assert layer.w.shape == (6, 5)
    assert layer.a.shape == (6, 3)
    assert layer.b.shape == (3, 5)
    assert np.array_equal(layer.b, np.zeros((3, 5)))


def test_init_no_adapter_in_ft_and_frozen():
    for mode in (Mode.FT, Mode.FROZEN):
        layer = make_layer(mode)
        assert layer.a is None and layer.b is None


def test_init_rank_validation():
    with pytest.raises(ParameterError):
        init_adapter(4, 3, 4, None, Mode.LORA, RngState(0))
    with pytest.raises(ParameterError):
        init_adapter(4, 3, 0, None, Mode.LORA, RngState(0))


def test_init_alpha_default_is_reciprocal_rank():
    layer = make_layer(Mode.LORA, rank=3)
    assert layer.alpha == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("inf"), float("nan")])
def test_init_rejects_alpha_not_positive_and_finite(alpha):
    with pytest.raises(ParameterError, match="alpha"):
        make_layer(Mode.LORA_FA, alpha=alpha)


def test_gradcheck_rejects_zero_trials():
    with pytest.raises(ParameterError, match="trials"):
        check_adapter_layer(Mode.LORA_FA, trials=0)


@pytest.mark.parametrize("check", [check_adapter_layer, check_tiny_model])
def test_gradcheck_of_frozen_mode_is_a_mode_error(check):
    # Frozen mode emits no gradient, so there is nothing to check.
    with pytest.raises(ModeError, match="frozen"):
        check(Mode.FROZEN)


def test_a_has_full_numerical_rank_across_seeds():
    for seed in range(100):
        layer = init_adapter(64, 64, 8, None, Mode.LORA_FA, RngState(seed))
        assert numerical_rank(layer.a) == 8


def test_zero_init_transparency():
    x = randn((3, 4, 8), RngState(2))
    for mode in (Mode.LORA, Mode.LORA_FA):
        layer = make_layer(mode, d_in=8, d_out=7, rank=2)
        y, _ = adapters.forward(layer, x)
        assert np.array_equal(y, x @ layer.w)
        y2, _ = adapters.forward(layer, x[0])
        assert np.array_equal(y2, x[0] @ layer.w)


# --- forward ---------------------------------------------------------------

def test_forward_hand_value():
    layer = adapters.AdaptedLinear(
        w=np.eye(2),
        a=np.array([[1.0], [0.0]]),
        b=np.array([[2.0, 3.0]]),
        rank=1,
        alpha=1.0,
        mode=Mode.LORA_FA,
    )
    y, _ = adapters.forward(layer, np.array([[1.0, 0.0]]))
    assert np.array_equal(y, [[3.0, 3.0]])


def test_forward_shape_error():
    layer = make_layer(Mode.FT)
    with pytest.raises(DimensionError):
        adapters.forward(layer, np.ones((2, 4)))


def _kept(layer):
    return adapters.forward(layer, np.ones((2, 6)))[1]


@pytest.mark.parametrize("call", [
    lambda layer: adapters.forward(layer, [[1.0] * 6]),
    lambda layer: adapters.forward(layer, np.array(1.0)),
    lambda layer: adapters.forward(layer, np.ones((2, 6)), gelu_into=[[0.0] * 5] * 2),
    lambda layer: adapters.backward(layer, _kept(layer), [[1.0] * 5] * 2),
    lambda layer: adapters.backward(layer, _kept(layer), np.ones((3, 5))),
    lambda layer: adapters.forward(layer, np.ones((2, 6), dtype=complex)),
    lambda layer: adapters.forward(layer, np.ones((2, 6)), gelu_into=np.zeros((2, 5), dtype=int)),
    lambda layer: adapters.backward(layer, _kept(layer), np.full((2, 5), "a")),
], ids=["forward-list", "forward-0d", "stream-list", "backward-list", "backward-leading-dims",
        "forward-complex", "stream-int", "backward-string"])
@pytest.mark.parametrize("mode", [Mode.FT, Mode.LORA, Mode.LORA_FA])
def test_bad_operands_are_dimension_errors(mode, call):
    # not numpy's AttributeError, IndexError or ValueError
    with pytest.raises(DimensionError):
        call(make_layer(mode))


@pytest.mark.parametrize("out", [np.zeros((2, 4)), np.zeros((2, 10))[:, ::2]],
                         ids=["shape", "strided"])
def test_forward_into_a_stream_rejects_a_bad_out(out):
    # The product is added into out's row blocks through a folded view,
    # which a strided out would not share memory with.
    layer = make_layer(Mode.LORA_FA)
    with pytest.raises(DimensionError, match="C-contiguous"):
        adapters.forward(layer, np.ones((2, 6)), gelu_into=out)


@pytest.mark.parametrize(
    "mode,has_full,has_low",
    [
        (Mode.FT, True, False),
        (Mode.LORA, True, True),
        (Mode.LORA_FA, False, True),
        (Mode.FROZEN, False, False),
    ],
)
def test_retention_policy_by_mode(mode, has_full, has_low):
    layer = make_layer(mode)
    x = randn((2, 3, 6), RngState(4))
    _, kept = adapters.forward(layer, x)
    assert kept.has_x_full == has_full
    assert kept.has_x_low == has_low
    if not has_full:
        with pytest.raises(RetentionPolicyError):
            _ = kept.x_full
    if not has_low:
        with pytest.raises(RetentionPolicyError):
            _ = kept.x_low


def test_lorafa_keeps_only_low_rank_projection():
    layer = make_layer(Mode.LORA_FA, d_in=6, rank=3)
    x = randn((2, 4, 6), RngState(5))
    _, kept = adapters.forward(layer, x)
    assert kept.x_low.shape == (2, 4, 3)
    assert kept.x_low.size == 2 * 4 * 3
    assert np.array_equal(kept.x_low, x @ layer.a)


# --- backward ----------------------------------------------------------------

def test_backward_hand_value():
    layer = adapters.AdaptedLinear(
        w=np.eye(2),
        a=np.array([[1.0], [0.0]]),
        b=np.zeros((1, 2)),
        rank=1,
        alpha=1.0,
        mode=Mode.LORA_FA,
    )
    x = np.array([[1.0, 0.0]])
    _, kept = adapters.forward(layer, x)
    _, grads = adapters.backward(layer, kept, np.array([[2.0, 3.0]]))
    assert list(grads) == ["b"]
    assert np.array_equal(grads["b"], [[2.0, 3.0]])


def test_lora_and_lorafa_db_bitwise_equal():
    lora = make_layer(Mode.LORA, seed=9, random_b=True)
    fa = adapters.AdaptedLinear(
        lora.w.copy(), lora.a.copy(), lora.b.copy(), lora.rank, lora.alpha, Mode.LORA_FA
    )
    x = randn((2, 3, 6), RngState(10))
    dy = randn((2, 3, 5), RngState(11))
    _, kept_l = adapters.forward(lora, x)
    _, kept_f = adapters.forward(fa, x)
    _, gl = adapters.backward(lora, kept_l, dy)
    _, gf = adapters.backward(fa, kept_f, dy)
    assert gl["b"].tobytes() == gf["b"].tobytes()


def test_gradient_sets_by_mode():
    x = randn((2, 3, 6), RngState(12))
    dy = randn((2, 3, 5), RngState(13))
    expected = {Mode.FT: ["w"], Mode.LORA: ["a", "b"], Mode.LORA_FA: ["b"], Mode.FROZEN: []}
    for mode, keys in expected.items():
        layer = make_layer(mode, random_b=True)
        _, kept = adapters.forward(layer, x)
        dx, grads = adapters.backward(layer, kept, dy)
        assert sorted(grads) == sorted(keys)
        assert dx.shape == x.shape


def test_backward_matches_finite_differences():
    for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA):
        assert check_adapter_layer(mode, seed=21, trials=4) < 1e-5


@pytest.mark.parametrize("mode", [Mode.LORA, Mode.LORA_FA])
@pytest.mark.parametrize("lead", [(), (2, 3)])
def test_forward_is_x_times_the_merged_weight(mode, lead):
    layer = make_layer(mode, d_in=12, d_out=9, rank=4, seed=5, random_b=True)
    x = randn(lead + (7, 12), RngState(40))
    y, _ = adapters.forward(layer, x)
    x2 = x.reshape(-1, 12)
    assert np.array_equal(y, (x2 @ merge(layer)).reshape(y.shape))


@pytest.mark.parametrize("mode", [Mode.LORA, Mode.LORA_FA])
def test_backward_dx_matches_the_unmerged_branch(mode):
    layer = make_layer(mode, d_in=12, d_out=9, rank=4, seed=6, random_b=True)
    x = randn((2, 5, 12), RngState(41))
    dy = randn((2, 5, 9), RngState(42))
    _, kept = adapters.forward(layer, x)
    dx, _ = adapters.backward(layer, kept, dy)
    reference = dy @ layer.w.T + layer.alpha * ((dy @ layer.b.T) @ layer.a.T)
    assert np.max(np.abs(dx - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("mode", [Mode.FT, Mode.LORA, Mode.LORA_FA])
def test_backward_without_input_grad_builds_no_dx(monkeypatch, mode):
    layer = make_layer(mode, d_in=12, d_out=9, rank=4, seed=7, random_b=True)
    x = randn((2, 5, 12), RngState(43))
    dy = randn((2, 5, 9), RngState(44))
    _, kept = adapters.forward(layer, x)
    _, want = adapters.backward(layer, kept, dy)
    monkeypatch.setattr(adapters, "matmul", None)  # the dx product must not run
    monkeypatch.setattr(adapters, "_merged", None)  # nor the merged weight
    dx, got = adapters.backward(layer, kept, dy, input_grad=False)
    assert dx is None
    assert list(got) == list(want) == list(mode.trains)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)


def test_backward_rejects_mismatched_upstream():
    layer = make_layer(Mode.FT)
    x = randn((2, 6), RngState(14))
    _, kept = adapters.forward(layer, x)
    with pytest.raises(DimensionError):
        adapters.backward(layer, kept, np.ones((2, 7)))


# --- merge -------------------------------------------------------------------

def test_merge_with_zero_b_is_w():
    layer = make_layer(Mode.LORA)
    assert np.array_equal(merge(layer), layer.w)


def test_merge_equivalence_float64():
    layer = make_layer(Mode.LORA_FA, d_in=12, d_out=9, rank=4, seed=3, random_b=True)
    x = randn((5, 12), RngState(30))
    y, _ = adapters.forward(layer, x)
    assert np.array_equal(y, x @ merge(layer))


def test_merge_equivalence_float32():
    layer = make_layer(Mode.LORA, d_in=12, d_out=9, rank=4, seed=4, random_b=True)
    layer.w = layer.w.astype(np.float32)
    layer.a = layer.a.astype(np.float32)
    layer.b = layer.b.astype(np.float32)
    x = randn((5, 12), RngState(31)).astype(np.float32)
    y, _ = adapters.forward(layer, x)
    assert np.max(np.abs(x @ merge(layer) - y)) < 1e-5


def test_merge_is_pure_and_idempotent():
    layer = make_layer(Mode.LORA_FA, random_b=True)
    w_before = layer.w.copy()
    m1 = merge(layer)
    m2 = merge(layer)
    assert np.array_equal(m1, m2)
    assert np.array_equal(layer.w, w_before)


def test_merge_mode_error():
    for mode in (Mode.FT, Mode.FROZEN):
        with pytest.raises(ModeError):
            merge(make_layer(mode))


# --- retained element accounting ----------------------------------------------

def retained(layer, b, s):
    """Elements one (b, s) forward of layer keeps for its backward."""
    _, kept = adapters.forward(layer, np.zeros((b, s, layer.d_in)))
    full = kept.x_full.size if kept.has_x_full else 0
    return full + (kept.x_low.size if kept.has_x_low else 0)


def test_retained_elements_table():
    fa = make_layer(Mode.LORA_FA, d_in=8, rank=4)
    assert retained(fa, 1, 1) == 4
    ft = make_layer(Mode.FT, d_in=8)
    assert retained(ft, 2, 3) == 48
    frozen = make_layer(Mode.FROZEN, d_in=8)
    assert retained(frozen, 2, 3) == 0


def test_retained_elements_wide_layer_ratio():
    # retention depends on d_in and r only, so a narrow d_out keeps this cheap
    w = np.zeros((8192, 4))
    a = np.zeros((8192, 4))
    b = np.zeros((4, 4))
    lora = adapters.AdaptedLinear(w, a, b, 4, 0.25, Mode.LORA)
    fa = adapters.AdaptedLinear(w, a, b, 4, 0.25, Mode.LORA_FA)
    ft = adapters.AdaptedLinear(w, None, None, 4, 0.25, Mode.FT)
    assert retained(lora, 1, 1) == 8196
    assert retained(fa, 1, 1) == 4
    assert retained(ft, 1, 1) // retained(fa, 1, 1) == 2048
