"""Property tests for the numeric contract: NaN/Inf is checked where a value
leaves a step (the logits, the loss, each returned gradient) and nowhere
inside it. Whatever tensor of a tiny model holds a planted NaN or Inf,
trainable or not, in any of the four modes, forward_loss then backward
either raise NumericsError or return a finite loss and finite gradients,
and forward_logits over a whole sequence, which reads every tensor, raises
NumericsError. A step makes one check per gradient plus the logits'."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorafa import adapters, ops
from lorafa.adapters import Mode
from lorafa.errors import NumericsError
from lorafa.model import (ModelConfig, backward, build_model, forward_logits, forward_loss,
                          trainable_params)
from lorafa.rng import RngState, randint

TINY = ModelConfig(d=8, n_layers=2, n_heads=2, vocab=10, seq_len=6, batch_size=2)
MODES = [Mode.FT, Mode.LORA, Mode.LORA_FA]  # the modes that train
# Shorter than seq_len, so the last pos_emb rows are unread and a value
# planted there may leave the loss and gradients finite.
TOKENS = randint(RngState(1), 0, TINY.vocab, (2, 4))
TARGETS = randint(RngState(2), 0, TINY.vocab, (2, 4))
# A whole sequence: every pos_emb row is read.
WHOLE = randint(RngState(3), 0, TINY.vocab, (2, TINY.seq_len))


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


def _planted(data):
    """A tiny model of a drawn mode with NaN or Inf at a drawn entry of a drawn tensor."""
    model = _model(data.draw(st.sampled_from(list(Mode))))
    tensors = _tensors(model)
    target = tensors[data.draw(st.sampled_from(sorted(tensors)))]
    index = data.draw(st.integers(0, target.size - 1))
    target.reshape(-1)[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return model


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(st.data())
def test_planted_nan_or_inf_raises_or_leaves_the_step_finite(data):
    model = _planted(data)
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
    monkeypatch.setattr(ops, "gelu_vjp", lambda x, upstream, out=None: np.full(x.shape, np.nan))
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


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(st.data())
def test_planted_nan_or_inf_reaches_forward_logits(data):
    # With no loss or gradient after it, forward_logits is checked at the logits.
    model = _planted(data)
    with np.errstate(all="ignore"), pytest.raises(NumericsError, match="logits"):
        forward_logits(model, WHOLE)


@pytest.mark.parametrize("mode,checks", [(Mode.FT, 25), (Mode.LORA, 25), (Mode.LORA_FA, 13),
                                         (Mode.FROZEN, 1)], ids=lambda v: getattr(v, "value", v))
def test_a_step_checks_the_logits_and_each_gradient_once(mode, checks, monkeypatch):
    calls = []
    check = ops.ensure_finite
    monkeypatch.setattr(ops, "ensure_finite",
                        lambda x, what="result": calls.append(what) or check(x, what))
    model = _model(mode)
    backward(model, forward_loss(model, TOKENS, TARGETS)[1])
    assert len(calls) == checks == 1 + len(trainable_params(model))
    assert calls[0] == "logits"
    calls.clear()
    forward_logits(model, TOKENS)
    assert calls == ["logits"]
