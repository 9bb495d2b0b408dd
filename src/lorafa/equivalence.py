"""Executable checks that frozen-A training is low-rank gradient compression.

Three facts are verified numerically rather than assumed:

  1. one SGD step on B changes the merged weight by exactly
     -eta * alpha^2 * A A^T dW (project dW onto rank r, lift back);
  2. E[A A^T] = r I when A has unit-variance normal entries, so the
     compression is unbiased up to the scalar r;
  3. however B is trained, the cumulative merged-weight change stays in
     the column space of the frozen A (residual at rounding level and
     numerical rank at most r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adapters, ops
from .adapters import AdaptedLinear, Mode
from .errors import (INDEX_MAX, DimensionError, ModeError, NumericsError, require_array_size,
                     require_number)
from .optim import SGDConfig, sgd_step
from .rng import RngState, randn

SUBSPACE_TINY = 1e-30  # residual denominator floor for the zero-update case
# A subspace snapshot passes when its residual is below this (criterion 04).
SUBSPACE_PASS_RESIDUAL = 1e-10
# `lorafa equiv` pass thresholds: SGD identity max-abs gap, unbiasedness error.
SGD_PASS_DISCREPANCY = 1e-10
UNBIASED_PASS_REL_ERROR = 0.02
# Residual below which subspace_check takes the rank from Q^T delta_w: four
# decades under ops.RANK_REL_TOL, so the part of delta_w outside col(A) is
# far too small to lift a singular value over the rank threshold.
RANK_FROM_COEFF_RESIDUAL = 1e-12


@dataclass
class SubspaceReport:
    residual: float           # ||dW - Q Q^T dW||_F / max(||dW||_F, tiny)
    numerical_rank: int


@ops.numerics
def verify_sgd_equivalence(
    layer: AdaptedLinear, x: np.ndarray, dy: np.ndarray, eta: float
) -> float:
    """Max-abs gap between a real SGD step's merged-weight change and the identity.

    Asserted identity (the alpha^2 factor carries the adapter scale on both
    the forward branch and the B gradient):

        merged(after) - merged(before) = -eta * alpha^2 * A A^T dW,
        dW = X^T dY (batch and sequence folded).

    Both sides are computed through independent code paths: the left via
    adapters.forward/backward and optim.sgd_step on a cloned layer, the
    right directly from the inputs.
    """
    if layer.mode is not Mode.LORA_FA:
        raise ModeError("sgd equivalence is defined for frozen-A layers")
    require_number("eta", eta)
    work = layer.clone()
    before = adapters.merge(work)
    _, kept = adapters.forward(work, x)
    _, grads = adapters.backward(work, kept, dy)
    if eta != 0.0:  # eta = 0 is a legal degenerate probe: no step, zero change
        sgd_step({"b": work.b}, {"b": grads["b"]}, SGDConfig(eta=eta))
    after = adapters.merge(work)
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = x2.T @ dy2
    predicted = -eta * layer.alpha**2 * (layer.a @ (layer.a.T @ dw))
    return float(np.max(np.abs((after - before) - predicted)))


@ops.numerics
def estimate_unbiasedness(d: int, r: int, num_samples: int, rng: RngState) -> float:
    """Relative Frobenius error of the Monte-Carlo mean of A A^T against r * I.

    Shrinks at the Monte-Carlo rate ~1/sqrt(num_samples); entries of A are
    unit-variance normals.
    """
    for name, value in (("d", d), ("r", r), ("num_samples", num_samples)):
        require_number(name, value, integral=True, at_least=1, at_most=INDEX_MAX)
    chunk = min(num_samples, 20000)
    require_array_size("A A^T", d * d)
    acc = np.zeros((d, d))
    for lo in range(0, num_samples, chunk):
        a = randn((min(chunk, num_samples - lo), d, r), rng)
        acc += np.einsum("mik,mjk->ij", a, a)
    mean = acc / num_samples
    target = r * np.eye(d)
    return float(np.linalg.norm(mean - target) / np.linalg.norm(target))


@ops._op  # an operand that is not a numpy array is a DimensionError
def subspace_check(a: np.ndarray, delta_w: np.ndarray) -> SubspaceReport:
    """How far delta_w sits from the column space of A, plus its numerical rank.

    The residual and the rank share one projection, the r x d_out
    coefficients C = Q^T delta_w in the orthonormal basis Q of col(A),
    which ops.qr takes from LAPACK. A zero delta_w (e.g. before any
    update) reports residual 0 by definition. The rank is the count of
    singular values above the repo-wide 1e-8 relative threshold
    (ops.RANK_REL_TOL) on the Frobenius norm (ops.numerical_rank: one
    values-only LAPACK SVD). When the residual is below
    RANK_FROM_COEFF_RESIDUAL, delta_w = Q C up to rounding; Q has
    orthonormal columns, so delta_w and C share their singular values and
    the rank is taken from the r x d_out matrix C. Otherwise the full
    delta_w is used, so a component outside col(A) is still counted. Per
    layer a snapshot costs one LAPACK QR of A plus one values-only SVD of
    the coefficients.
    """
    if a.ndim != 2 or delta_w.ndim != 2 or a.shape[0] != delta_w.shape[0]:
        raise DimensionError(f"incompatible shapes A {a.shape}, delta_w {delta_w.shape}")
    q, _ = ops.qr(a)
    coeff = q.T @ delta_w
    norm = float(np.linalg.norm(delta_w))
    if not np.isfinite(norm):  # NaN/Inf in delta_w, or a sum of squares past the float range
        raise NumericsError(f"subspace_check: ||delta_w|| is {norm}")
    if norm == 0.0:
        residual = 0.0
    else:
        off = delta_w - q @ coeff
        residual = float(np.linalg.norm(off) / max(norm, SUBSPACE_TINY))
    in_subspace = residual < RANK_FROM_COEFF_RESIDUAL
    return SubspaceReport(
        residual=residual,
        numerical_rank=ops.numerical_rank(coeff if in_subspace else delta_w),
    )
