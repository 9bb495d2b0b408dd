import numpy as np
import pytest

from lorafa.adapters import Mode
from lorafa.errors import DimensionError, ParameterError, StateError
from lorafa.model import ModelConfig, backward, build_model, count_trainable, forward_loss, trainable_params
from lorafa.optim import AdamWConfig, SGDConfig, adamw_step, init_adamw_state, sgd_step
from lorafa.rng import RngState, randint, randn


def test_sgd_scalar_example():
    p = {"x": np.array([1.0])}
    sgd_step(p, {"x": np.array([2.0])}, SGDConfig(eta=0.1))
    assert p["x"][0] == pytest.approx(0.8)


def test_sgd_zero_gradient_leaves_params():
    p = {"x": np.array([3.0, -1.0])}
    before = p["x"].copy()
    sgd_step(p, {"x": np.zeros(2)}, SGDConfig(eta=0.5))
    assert np.array_equal(p["x"], before)


def test_sgd_updates_in_place():
    arr = np.array([1.0, 2.0])
    p = {"x": arr}
    sgd_step(p, {"x": np.ones(2)}, SGDConfig(eta=1.0))
    assert arr[0] == 0.0  # same storage mutated


def test_sgd_shape_mismatch():
    with pytest.raises(DimensionError):
        sgd_step({"x": np.ones(2)}, {"x": np.ones(3)}, SGDConfig(eta=0.1))
    with pytest.raises(StateError):
        sgd_step({"x": np.ones(2)}, {"y": np.ones(2)}, SGDConfig(eta=0.1))


def test_learning_rate_must_be_positive():
    with pytest.raises(ParameterError):
        SGDConfig(eta=0.0)
    with pytest.raises(ParameterError):
        AdamWConfig(eta=-1.0)
    with pytest.raises(ParameterError):
        AdamWConfig(eta=0.1, beta1=1.0)


def test_adamw_first_step_closed_form():
    # with constant g on step 1: delta = -eta * g / (|g| + eps)
    g = 0.5
    p = {"x": np.array([1.0])}
    state = init_adamw_state(p)
    cfg = AdamWConfig(eta=0.1)
    adamw_step(p, {"x": np.array([g])}, state, cfg)
    expected = 1.0 - 0.1 * g / (abs(g) + cfg.eps)
    assert p["x"][0] == pytest.approx(expected, rel=1e-9)


def test_adamw_zero_grad_zero_decay_is_identity():
    p = {"x": np.array([2.0, -3.0])}
    state = init_adamw_state(p)
    for _ in range(4):
        adamw_step(p, {"x": np.zeros(2)}, state, AdamWConfig(eta=0.1))
    assert np.array_equal(p["x"], [2.0, -3.0])


def test_adamw_weight_decay_decouples():
    p = {"x": np.array([2.0])}
    state = init_adamw_state(p)
    adamw_step(p, {"x": np.zeros(1)}, state, AdamWConfig(eta=0.1, weight_decay=0.5))
    assert p["x"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def _state_elements(state):
    return sum(x.size for x in (*state.m.values(), *state.v.values()))


def test_adamw_state_shapes_and_count():
    p = {"a": randn((3, 4), RngState(0)), "b": randn((5,), RngState(1))}
    state = init_adamw_state(p)
    assert state.m["a"].shape == (3, 4) and state.v["b"].shape == (5,)
    assert _state_elements(state) == 2 * (12 + 5)


def test_adamw_state_mismatch():
    p = {"a": np.ones(2)}
    state = init_adamw_state({"b": np.ones(2)})
    with pytest.raises(StateError):
        adamw_step(p, {"a": np.ones(2)}, state, AdamWConfig(eta=0.1))


def test_adamw_deterministic():
    def run():
        p = {"x": np.array([1.0, 2.0, 3.0])}
        state = init_adamw_state(p)
        rng = RngState(5)
        for _ in range(10):
            adamw_step(p, {"x": randn((3,), rng)}, state, AdamWConfig(eta=0.05))
        return p["x"].tobytes()

    assert run() == run()


def test_optimizer_state_covers_exactly_the_trainable_set():
    cfg = ModelConfig(d=16, n_layers=2, n_heads=2, vocab=11, seq_len=8)
    for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA, Mode.FROZEN):
        m = build_model(cfg, mode, rank=2, rng=RngState(2))
        params = trainable_params(m)
        state = init_adamw_state(params)
        assert _state_elements(state) == 2 * count_trainable(m).full


def test_one_sgd_step_on_model_moves_only_trainables():
    cfg = ModelConfig(d=16, n_layers=1, n_heads=2, vocab=11, seq_len=8)
    m = build_model(cfg, Mode.LORA_FA, rank=2, rng=RngState(3))
    tokens = randint(RngState(4), 0, 11, (2, 8))
    targets = randint(RngState(5), 0, 11, (2, 8))
    frozen_bytes = [layer.w.tobytes() + layer.a.tobytes() for _, layer in m.adapted_layers()]
    _, tape = forward_loss(m, tokens, targets)
    grads = backward(m, tape)
    sgd_step(trainable_params(m), grads, SGDConfig(eta=0.1))
    assert [layer.w.tobytes() + layer.a.tobytes() for _, layer in m.adapted_layers()] == frozen_bytes
    assert any(np.any(layer.b != 0) for _, layer in m.adapted_layers())


def ref_adamw_update(p, g, m, v, t, cfg):
    """The plain-expression AdamW update adamw_step must reproduce bit for bit."""
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    if cfg.weight_decay != 0.0:
        p -= cfg.eta * cfg.weight_decay * p
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    p -= cfg.eta * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


@pytest.mark.parametrize("p_dtype,g_dtype", [(np.float64, np.float64)])  # float64 only
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adamw_matches_plain_update_bitwise(p_dtype, g_dtype, weight_decay):
    rng = RngState(6)
    shapes = {"w": (64, 48), "b": (48,), "s": (1,)}
    params = {k: randn(s, rng).astype(p_dtype) for k, s in shapes.items()}
    ref = {k: p.copy() for k, p in params.items()}
    state = init_adamw_state(params)
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    cfg = AdamWConfig(eta=0.05, weight_decay=weight_decay)
    for t in range(1, 6):
        grads = {k: randn(s, rng).astype(g_dtype) for k, s in shapes.items()}
        before = {k: g.copy() for k, g in grads.items()}
        adamw_step(params, grads, state, cfg)
        for k in shapes:
            ref_adamw_update(ref[k], grads[k], ref_m[k], ref_v[k], t, cfg)
            assert np.array_equal(grads[k], before[k])
            for got, want in ((params[k], ref[k]), (state.m[k], ref_m[k]), (state.v[k], ref_v[k])):
                assert got.dtype == want.dtype and np.array_equal(got, want)
