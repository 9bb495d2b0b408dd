"""Parameter updates over a named trainable set.

Parameters and gradients travel as insertion-ordered {name: array} dicts;
updates mutate the arrays in place (they are views into the model), so
frozen tensors are untouched by construction. Optimizer state exists only
for the trainable set, which is what the byte-accounting in the memory
model counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, StateError, require_number

Params = dict[str, np.ndarray]

OPTIMIZERS = ("adamw", "sgd")  # the update rules a run config can name


@dataclass
class SGDConfig:
    eta: float
    weight_decay: float = 0.0

    def __post_init__(self):
        require_number("eta", self.eta, positive=True)
        require_number("weight_decay", self.weight_decay, at_least=0)


@dataclass
class AdamWConfig:
    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        for name in ("eta", "eps"):
            require_number(name, getattr(self, name), positive=True)
        for name in ("beta1", "beta2", "weight_decay"):
            require_number(name, getattr(self, name), at_least=0)
        if not (self.beta1 < 1.0 and self.beta2 < 1.0):
            raise ParameterError("betas must lie in [0, 1)")


@dataclass
class AdamWState:
    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)
    step: int = 0


def _check_match(params: Params, grads: Params) -> None:
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise StateError(f"param/grad key mismatch: {sorted(missing)}")
    for k in params:
        if params[k].shape != grads[k].shape:
            raise DimensionError(
                f"shape mismatch for {k}: {params[k].shape} vs {grads[k].shape}"
            )


def sgd_step(params: Params, grads: Params, cfg: SGDConfig) -> Params:
    """p <- p - eta * wd * p (adamw_step's decoupled decay), then p <- p - eta * g, in place."""
    _check_match(params, grads)
    for k, p in params.items():
        if cfg.weight_decay != 0.0:
            p -= cfg.eta * cfg.weight_decay * p
        p -= cfg.eta * grads[k]
    return params


def init_adamw_state(params: Params) -> AdamWState:
    return AdamWState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        step=0,
    )


def adamw_step(params: Params, grads: Params, state: AdamWState, cfg: AdamWConfig):
    """Decoupled-weight-decay Adam with bias correction; returns (params, state)."""
    _check_match(params, grads)
    if set(state.m) != set(params):
        raise StateError("optimizer state does not cover the parameter set")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for k, p in params.items():
        g = grads[k]
        m = state.m[k]
        v = state.v[k]
        # p -= eta * (m / bc1) / (sqrt(v / bc2) + eps), with every temporary in
        # one of two scratch rows allocated once per parameter. The operations
        # and their order are the plain expression's, so the update is
        # bit-identical.
        num_buf, den_buf = np.empty((2,) + p.shape)
        if cfg.weight_decay != 0.0:
            p -= np.multiply(cfg.eta * cfg.weight_decay, p, out=num_buf)
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=num_buf)
        v *= cfg.beta2
        g2 = np.multiply(1.0 - cfg.beta2, g, out=num_buf)
        v += np.multiply(g2, g, out=num_buf)
        den = np.divide(v, bc2, out=den_buf)
        den = np.sqrt(den, out=den_buf)
        den = np.add(den, cfg.eps, out=den_buf)
        num = np.divide(m, bc1, out=num_buf)
        num = np.multiply(cfg.eta, num, out=num_buf)
        p -= np.divide(num, den, out=num_buf)
    return params, state
