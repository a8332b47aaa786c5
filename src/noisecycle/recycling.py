"""Core noise-recycling arithmetic.

A correct decoding reveals the noise a channel experienced:
``z_hat = y - x_hat``.  Scaling that estimate by the normalized correlation
``rho' = rho * sigma_target / sigma_source`` and subtracting it from a
correlated channel's output is the linear least-squares update; when the
estimate equals the true source noise the residual variance drops to
``sigma^2 * (1 - rho^2)``, which is what raises the target's effective SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel

__all__ = [
    "NoiseEstimate",
    "normalized_corr",
    "estimate_noise",
    "llse_update",
    "effective_variance",
    "effective_snr",
    "composite_bler",
]


@dataclass(frozen=True)
class NoiseEstimate:
    """Estimated noise of one channel (0-based ``source_channel``): one
    block's vector, or the rows (..., n) of many blocks."""

    values: np.ndarray
    source_channel: int

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim < 1:
            raise ValueError("estimate must be a vector or stacked vectors")
        object.__setattr__(self, "values", v)


def normalized_corr(model: ChannelModel, i: int, j: int) -> float:
    """rho'_{i,j} = rho_{i,j} * sigma_j / sigma_i for source i, target j."""
    if i == j:
        raise ValueError("normalized correlation needs two distinct channels")
    if not (0 <= i < model.m and 0 <= j < model.m):
        raise IndexError("channel index out of range")
    return float(model.corr[i, j] * np.sqrt(model.sigma2[j] / model.sigma2[i]))


def estimate_noise(received, decoded_modulated, source: int) -> NoiseEstimate:
    """z_hat = y - x_hat, elementwise."""
    y = np.asarray(received, dtype=float)
    x = np.asarray(decoded_modulated, dtype=float)
    if y.shape != x.shape:
        raise ValueError("length mismatch between received and decoded signals")
    return NoiseEstimate(values=y - x, source_channel=source)


def llse_update(target_received, est: NoiseEstimate, model: ChannelModel,
                j: int) -> np.ndarray:
    """y_j - rho'_{i,j} * z_hat_i, elementwise."""
    i = est.source_channel
    if i == j:
        raise ValueError("cannot recycle a channel's own estimate")
    y = np.asarray(target_received, dtype=float)
    if y.shape != est.values.shape:
        raise ValueError("length mismatch between target signal and estimate")
    return y - normalized_corr(model, i, j) * est.values


def effective_variance(sigma2_j: float, rho_ij: float) -> float:
    """Var(Z_j - rho' Z_i) = sigma_j^2 * (1 - rho^2)."""
    if abs(rho_ij) > 1:
        raise ValueError("need |rho| <= 1")
    if sigma2_j <= 0:
        raise ValueError("variance must be positive")
    return sigma2_j * (1.0 - rho_ij * rho_ij)


def effective_snr(model: ChannelModel, i: int, j: int | None = None) -> float:
    """SNR of channel i, optionally after recycling channel j's noise."""
    if not 0 <= i < model.m:
        raise IndexError("channel index out of range")
    if j is None:
        return model.snr(i)
    if not 0 <= j < model.m:
        raise IndexError("source index out of range")
    rho = float(model.corr[i, j])
    if rho * rho >= 1.0:
        raise ValueError(f"channels {min(i, j) + 1} and {max(i, j) + 1} have |rho| = 1, "
                         "which gives unbounded effective SNR")
    return float(model.power[i] / effective_variance(model.sigma2[i], rho))


def composite_bler(bler_lead: float, bler_reduced: float) -> float:
    """Two-channel recycling average: b*b + (1 - b)*b_reduced.

    With a validating lead decoder the trailing channel sees the raw
    variance when the lead fails (probability b) and the reduced variance
    otherwise, so the composite never exceeds b when b_reduced <= b.

    The ``b*b`` term stands for P(lead fails AND trailing channel fails on
    its raw output) and is exact only when those two events are independent.
    Correlated noise breaks this: at rho = 0.6 the acceptance suite's C6
    measures a joint rate about 2.9x b*b, so there this formula
    underestimates the trailing channel's BLER.  The success branch
    ``(1 - b)*b_reduced`` stays exact for jointly Gaussian noise, since the
    recycled residual is independent of the lead's noise.
    """
    for p in (bler_lead, bler_reduced):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
    return bler_lead * bler_lead + (1.0 - bler_lead) * bler_reduced
