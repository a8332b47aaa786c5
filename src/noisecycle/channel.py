"""BPSK modulation and jointly Gaussian correlated noise across channels.

A :class:`ChannelModel` describes ``m`` orthogonal channels with per-channel
noise variances, power budgets, and a cross-channel correlation matrix.
Noise columns are i.i.d. draws from N(0, Sigma) with
``Sigma[i, j] = corr[i, j] * sigma_i * sigma_j``; correlation acts per
symbol index, and noise is white within each channel.

Conventions fixed here: unit symbol energy with bit 0 -> +1.0 and
bit 1 -> -1.0; SNR is varied through the noise variance only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelModel",
    "NoiseBlock",
    "ChannelOutput",
    "build_gm_model",
    "modulate_bpsk",
    "ebn0_to_sigma2",
    "sample_noise",
    "transmit",
]

_PSD_TOL = 1e-10


@dataclass(frozen=True)
class ChannelModel:
    """m orthogonal channels: noise variances, powers, correlation matrix."""

    m: int
    sigma2: np.ndarray
    power: np.ndarray
    corr: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sigma2 = np.asarray(self.sigma2, dtype=float)
        power = np.asarray(self.power, dtype=float)
        corr = np.asarray(self.corr, dtype=float)
        if sigma2.shape != (self.m,) or power.shape != (self.m,):
            raise ValueError("sigma2 and power must be length-m vectors")
        if corr.shape != (self.m, self.m):
            raise ValueError("corr must be m x m")
        for name, values in (("sigma2", sigma2), ("power", power), ("corr", corr)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values.tolist()}")
        if (sigma2 <= 0).any() or (power <= 0).any():
            raise ValueError("sigma2 and power must be positive")
        if not np.allclose(corr, corr.T, atol=1e-12):
            raise ValueError("corr must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise ValueError("corr must have unit diagonal")
        if (np.abs(corr) > 1 + 1e-12).any():
            raise ValueError("correlations must lie in [-1, 1]")
        sig = np.sqrt(sigma2)
        cov = corr * np.outer(sig, sig)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "_chol", _factor_covariance(cov))

    @property
    def covariance(self) -> np.ndarray:
        sig = np.sqrt(self.sigma2)
        return self.corr * np.outer(sig, sig)

    def snr(self, j: int) -> float:
        """Raw SNR P_j / sigma_j^2 of channel index j (0-based)."""
        return float(self.power[j] / self.sigma2[j])


@dataclass(frozen=True)
class NoiseBlock:
    """m x n noise samples; entry (j, l) is channel j's noise at symbol l."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2:
            raise ValueError("samples must be an m x n matrix")
        if not np.isfinite(s).all():
            raise ValueError("noise samples must be finite")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class ChannelOutput:
    """Received matrix Y plus the transmitted X (kept for genie checks only)."""

    received: np.ndarray
    transmitted: np.ndarray

    def __post_init__(self) -> None:
        if self.received.shape != self.transmitted.shape:
            raise ValueError("received/transmitted shape mismatch")


def _factor_covariance(cov: np.ndarray) -> np.ndarray:
    """L with L L^T = cov.  Cholesky; eigen fallback for PSD-singular cov."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        if w.min() < -_PSD_TOL * max(w.max(), 1.0):
            raise ValueError("covariance is not positive semidefinite") from None
        return v * np.sqrt(np.clip(w, 0.0, None))


def build_gm_model(m: int, rho: float, sigma2_scalar: float,
                   power_scalar: float = 1.0) -> ChannelModel:
    """Gauss-Markov model: corr[i, j] = rho^|i-j| with uniform sigma2, power."""
    if m < 1:
        raise ValueError("need m >= 1")
    if abs(rho) >= 1:
        raise ValueError("need |rho| < 1")
    idx = np.arange(m)
    corr = rho ** np.abs(idx[:, None] - idx[None, :])
    return ChannelModel(m=m, sigma2=np.full(m, float(sigma2_scalar)),
                        power=np.full(m, float(power_scalar)), corr=corr)


def modulate_bpsk(codeword) -> np.ndarray:
    bits = np.asarray(codeword)
    return 1.0 - 2.0 * bits.astype(float)


def ebn0_to_sigma2(ebn0_db: float, rate: float) -> float:
    """Noise variance for a given Eb/N0 under unit-energy BPSK.

    Es = 1 = rate * Eb and sigma^2 = N0 / 2 give
    sigma^2 = 1 / (2 * rate * 10^(ebn0_db / 10)).
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    return 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))


def sample_noise(model: ChannelModel, n: int, rng: np.random.Generator) -> NoiseBlock:
    """Draw an m x n block with i.i.d. N(0, Sigma) columns."""
    return NoiseBlock(samples=correlate(model, rng.standard_normal((model.m, n))))


def correlate(model: ChannelModel, white: np.ndarray) -> np.ndarray:
    """Noise with i.i.d. N(0, Sigma) columns from (..., m, n) standard normal
    draws: one product by the covariance factor per m x n block, so a stack
    of blocks gives what each block gives alone.  Non-finite noise raises
    ``ValueError``."""
    samples = model._chol @ white
    if not np.isfinite(samples).all():
        raise ValueError("noise samples must be finite")
    return samples


def transmit(model: ChannelModel, modulated: np.ndarray,
             noise: NoiseBlock) -> ChannelOutput:
    x = np.asarray(modulated, dtype=float)
    if x.shape != noise.samples.shape or x.shape[0] != model.m:
        raise ValueError("modulated/noise shape mismatch")
    return ChannelOutput(received=x + noise.samples, transmitted=x)
