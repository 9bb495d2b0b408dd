"""Central finite-difference gradient checking.

The oracle is intentionally independent of the analytic backward rules: it
perturbs one coordinate at a time with step 6e-6 * max(1, |x|) and
compares the derivative of a scalar loss against the analytic gradient.
6e-6 is about cbrt(eps), which balances the central difference's O(h^2)
truncation error against its O(eps / h) rounding error; at 1e-6 rounding
put layer_norm over 1e-5 on some seeds. Each check perturbs the tensor it
checks in place (an op input, a layer's W, A or B, a model parameter), and
the loss reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import adapters, ops
from .errors import INDEX_MAX, DimensionError, ModeError, require_number
from .model import ModelConfig, backward, build_model, forward_loss, trainable_params
from .rng import RngState, derive, randint, randn

FD_STEP = 6e-6
# Relative-error denominators are floored so that finite-difference noise on
# near-zero gradient entries does not register as spurious failure.
REL_FLOOR = 1e-4
# `lorafa gradcheck` passes a check whose max relative error is below these.
PRIMITIVE_PASS_REL_ERROR = 1e-5
ADAPTER_PASS_REL_ERROR = 1e-5
MODEL_PASS_REL_ERROR = 1e-4


def fd_gradient(loss: Callable[[], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of loss() in x, coordinate by coordinate.

    loss reads x where it lives (the model or the op inputs). x is perturbed
    in place, and each coordinate is put back even when loss raises.
    """
    if not x.flags.c_contiguous:
        raise DimensionError(f"fd_gradient needs a C-contiguous tensor, got strides {x.strides}")
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        h = FD_STEP * max(1.0, abs(orig))
        try:
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
        finally:
            flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max elementwise relative error with an absolute floor on the denominator."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), REL_FLOOR)
    return float(np.max(np.abs(analytic - fd) / denom))


def _worst_error(loss: Callable[[], float], tensors, grads) -> float:
    """Worst rel_error of each analytic gradient against FD of loss in its tensor."""
    return max(rel_error(g, fd_gradient(loss, t)) for t, g in zip(tensors, grads))


@dataclass
class OpCheck:
    """One primitive's gradient-check case."""

    name: str
    sample: Callable[[RngState], tuple]          # draws the op's inputs
    forward: Callable[..., np.ndarray]
    vjp: Callable[..., Sequence[np.ndarray]]     # (inputs..., upstream) -> grads
    n_diff: int                                  # how many leading inputs are differentiable


def _check_one(case: OpCheck, rng: RngState) -> float:
    inputs = case.sample(rng)
    upstream = randn(case.forward(*inputs).shape, rng)
    grads = case.vjp(*inputs, upstream)
    if isinstance(grads, np.ndarray):
        grads = (grads,)
    return _worst_error(lambda: float(np.sum(case.forward(*inputs) * upstream)),
                        inputs[:case.n_diff], grads)


def primitive_checks() -> list[OpCheck]:
    """The table of primitives covered by the gradient oracle."""

    def sample_matmul(rng: RngState):
        m, k, n = (int(v) for v in randint(rng, 2, 6, (3,)))
        return randn((m, k), rng), randn((k, n), rng)

    def sample_matmul_batched(rng: RngState):
        b, s, k, n = (int(v) for v in randint(rng, 2, 5, (4,)))
        return randn((b, s, k), rng), randn((k, n), rng)

    def sample_matrix(rng: RngState):
        m, n = (int(v) for v in randint(rng, 2, 6, (2,)))
        return (randn((m, n), rng),)

    def sample_layer_norm(rng: RngState):
        m, n = (int(v) for v in randint(rng, 2, 6, (2,)))
        return randn((m, n), rng), randn((n,), rng), randn((n,), rng)

    def softmax_vjp_from_input(x, upstream):
        return ops.softmax_rows_vjp(ops.softmax_rows(x), upstream)

    def layer_norm_fwd(x, gamma, beta):
        return ops.layer_norm(x, gamma, beta)[0]

    def layer_norm_vjp_from_input(x, gamma, beta, upstream):
        _, x_hat, inv_std = ops.layer_norm(x, gamma, beta)
        return ops.layer_norm_vjp(x_hat, inv_std, gamma, upstream)

    return [
        OpCheck("matmul", sample_matmul, ops.matmul, ops.matmul_vjp, 2),
        OpCheck("matmul_batched", sample_matmul_batched, ops.matmul, ops.matmul_vjp, 2),
        OpCheck("gelu", sample_matrix, ops.gelu, ops.gelu_vjp, 1),
        OpCheck("softmax_rows", sample_matrix, ops.softmax_rows, softmax_vjp_from_input, 1),
        OpCheck("layer_norm", sample_layer_norm, layer_norm_fwd, layer_norm_vjp_from_input, 3),
    ]


def _require_trainable(mode) -> None:
    # A mode that trains nothing emits no gradient to check.
    if not mode.trains:
        raise ModeError(f"gradcheck needs a mode that trains a tensor; {mode.value} trains none")


def check_primitives(seed: int = 0, trials: int = 20) -> dict[str, float]:
    """Worst relative error per primitive over ``trials`` random shapes (at least
    one: zero would check nothing and still report a worst error of 0)."""
    require_number("trials", trials, integral=True, at_least=1, at_most=INDEX_MAX)
    results: dict[str, float] = {}
    for case in primitive_checks():
        rng = RngState(seed)
        worst = 0.0
        for _ in range(trials):
            worst = max(worst, _check_one(case, rng))
        results[case.name] = worst
    return results


def check_adapter_layer(mode, seed: int = 0, trials: int = 5) -> float:
    """FD-check every gradient an adapted layer emits, via loss = 0.5 ||y||^2."""
    _require_trainable(mode)
    require_number("trials", trials, integral=True, at_least=1, at_most=INDEX_MAX)
    rng = RngState(seed)
    worst = 0.0
    for _ in range(trials):
        d_in, d_out, r = (int(v) for v in randint(rng, 2, 7, (3,)))
        r = min(r, d_in, d_out)
        layer = adapters.init_adapter(d_in, d_out, r, None, mode, rng)
        if layer.b is not None:
            # zero B hides the adapter branch from the loss; give it signal
            layer.b[:] = randn(layer.b.shape, rng)
        x = randn((2, 3, d_in), rng)

        def loss():
            y, _ = adapters.forward(layer, x)
            return 0.5 * float(np.sum(y * y))

        y, kept = adapters.forward(layer, x)
        _, grads = adapters.backward(layer, kept, y.copy())
        tensors = [getattr(layer, t) for t in grads]
        worst = max(worst, _worst_error(loss, tensors, grads.values()))
    return worst


def check_tiny_model(mode, seed: int = 0, d: int = 8, n_layers: int = 1, vocab: int = 11) -> float:
    """FD-check the full backward pass of a tiny transformer against its loss."""
    _require_trainable(mode)
    rng = RngState(seed)
    config = ModelConfig(
        d=d, n_layers=n_layers, n_heads=2, vocab=vocab, seq_len=6, batch_size=2
    )
    m = build_model(config, mode, rank=2, alpha=0.5, rng=rng)
    data_rng = derive(rng, "gradcheck-data")
    tokens = randint(data_rng, 0, vocab, (2, 6))
    targets = randint(data_rng, 0, vocab, (2, 6))
    targets[0, 0] = -1  # exercise the ignore mask
    if mode.has_adapter:
        # B starts at zero, which zeroes dA in lora mode; perturb so every
        # gradient path carries signal.
        for _, layer in m.adapted_layers():
            layer.b[:] = 0.1 * randn(layer.b.shape, data_rng)
    _, tape = forward_loss(m, tokens, targets)
    grads = backward(m, tape)
    params = trainable_params(m)
    return _worst_error(lambda: forward_loss(m, tokens, targets)[0],
                        params.values(), (grads[k] for k in params))
