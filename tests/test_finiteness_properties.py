"""Property tests for the numeric contract: NaN/Inf is caught where a value
crosses the step boundary (a matmul, the loss, the returned gradients), not
after every kernel. Whatever tensor of a tiny model holds a planted NaN or
Inf, trainable or frozen, forward_loss then backward either raise
NumericsError or return a finite loss and finite gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorafa import adapters, ops
from lorafa.adapters import Mode
from lorafa.errors import NumericsError
from lorafa.model import ModelConfig, backward, build_model, forward_loss
from lorafa.rng import RngState, randint

TINY = ModelConfig(d=8, n_layers=2, n_heads=2, vocab=10, seq_len=6, batch_size=2)
MODES = [Mode.FT, Mode.LORA, Mode.LORA_FA]
# Shorter than seq_len, so the last pos_emb rows are unread and a value
# planted there may leave the loss and gradients finite.
TOKENS = randint(RngState(1), 0, TINY.vocab, (2, 4))
TARGETS = randint(RngState(2), 0, TINY.vocab, (2, 4))


def _model(mode: Mode):
    return build_model(TINY, mode, rank=2, rng=RngState(0))


def _tensors(model) -> dict[str, np.ndarray]:
    """Every array of the model by name, trainable or frozen."""
    out = {"tok_emb": model.tok_emb, "pos_emb": model.pos_emb,
           "ln_f.gamma": model.lnf_gamma, "ln_f.beta": model.lnf_beta}
    for i, block in enumerate(model.blocks):
        for name in ("ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta"):
            out[f"block{i}.{name}"] = getattr(block, name)
        for name, layer in block.layers().items():
            for tensor in ("w", "a", "b"):
                if getattr(layer, tensor) is not None:
                    out[f"block{i}.{name}.{tensor}"] = getattr(layer, tensor)
    return out


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(st.sampled_from(MODES), st.data())
def test_planted_nan_or_inf_raises_or_leaves_the_step_finite(mode, data):
    model = _model(mode)
    tensors = _tensors(model)
    target = tensors[data.draw(st.sampled_from(sorted(tensors)))]
    index = data.draw(st.integers(0, target.size - 1))
    target.reshape(-1)[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with np.errstate(all="ignore"):
        try:
            loss, tape = forward_loss(model, TOKENS, TARGETS)
            grads = backward(model, tape)
        except NumericsError:
            return
    assert np.isfinite(loss)
    assert all(np.isfinite(g).all() for g in grads.values())


@pytest.mark.parametrize("mode", MODES)
def test_a_nan_from_a_kernel_vjp_is_caught_in_backward(mode, monkeypatch):
    # gelu_vjp no longer checks its output; the NaN must still end the step
    model = _model(mode)
    _, tape = forward_loss(model, TOKENS, TARGETS)
    monkeypatch.setattr(ops, "gelu_vjp", lambda x, upstream: np.full(x.shape, np.nan))
    with pytest.raises(NumericsError):
        backward(model, tape)


@pytest.mark.parametrize("mode", MODES)
def test_a_nan_in_a_parameter_gradient_is_caught_in_backward(mode, monkeypatch):
    # a parameter gradient feeds no later matmul: only backward's own check sees it
    tensor = mode.trains[-1]
    rule = adapters._GRADIENTS[tensor]
    monkeypatch.setitem(adapters._GRADIENTS, tensor, lambda *args: rule(*args) * np.nan)
    model = _model(mode)
    _, tape = forward_loss(model, TOKENS, TARGETS)
    with pytest.raises(NumericsError, match="gradient block"):
        backward(model, tape)
