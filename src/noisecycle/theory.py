"""Closed-form rate math for recycling-aided decoding.

All logarithms are base 2, so every rate is in bits per channel use.
``capacity(snr) = 0.5 * log2(1 + snr)``; a recycling plan lifts a
channel's operating SNR from P / sigma^2 to P / (sigma^2 (1 - rho^2)) on
its plan edge, where the reduced variance is always
:func:`recycling.effective_variance`'s.  The pairwise upper bound and the
joint encoder-decoder water-filling capacity, whose water level is exact
(the parallel Gaussian channels of Cover and Thomas, ch. 9), bracket what
sequential decoding with independent encoders can achieve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .ordering import RecyclingPlan
from .recycling import effective_snr, effective_variance

__all__ = [
    "RateReport",
    "UpperBoundBreakdown",
    "capacity",
    "achievable_rates",
    "independent_rates",
    "gm_average_rate",
    "pair_upper_bound",
    "joint_capacity",
    "water_fill",
]

@dataclass(frozen=True)
class RateReport:
    """Nonnegative per-channel rates in bits, with their sum and average."""

    per_channel_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(r < 0 for r in self.per_channel_rates):
            raise ValueError("rates must be nonnegative")

    @property
    def sum_rate(self) -> float:
        return float(sum(self.per_channel_rates))

    @property
    def average_rate(self) -> float:
        return self.sum_rate / len(self.per_channel_rates)


@dataclass(frozen=True)
class UpperBoundBreakdown:
    """Additive terms of the pairwise bound, in bits.

    lead_capacity + variance_ratio + correlation_penalty + reduced_capacity
    is the bound; ``rho_tilde`` is the output-correlation coefficient behind
    the penalty term.
    """

    lead_capacity: float
    variance_ratio: float
    correlation_penalty: float
    reduced_capacity: float
    rho_tilde: float

    @property
    def terms(self) -> tuple[float, float, float, float]:
        return (self.lead_capacity, self.variance_ratio,
                self.correlation_penalty, self.reduced_capacity)

    @property
    def total(self) -> float:
        return float(sum(self.terms))


def capacity(snr: float) -> float:
    """0.5 * log2(1 + snr) bits per channel use."""
    if snr < 0:
        raise ValueError("SNR must be nonnegative")
    return 0.5 * float(np.log2(1.0 + snr))


def achievable_rates(model: ChannelModel, plan: RecyclingPlan) -> RateReport:
    """Per-channel capacities at the plan's effective SNRs.

    Zero-node children run at their raw SNR; every other channel j runs at
    P_j / (sigma_j^2 (1 - rho^2)) with rho taken from its plan edge.
    """
    if plan.m != model.m:
        raise ValueError("plan size disagrees with channel model")
    rates = []
    for ch in range(1, model.m + 1):
        parent = plan.parent_of(ch)
        source = None if parent == 0 else parent - 1
        rates.append(capacity(effective_snr(model, ch - 1, source)))
    return RateReport(tuple(rates))


def independent_rates(model: ChannelModel) -> RateReport:
    """Per-channel capacities without recycling: C(P_j / sigma_j^2)."""
    return RateReport(tuple(capacity(model.snr(j)) for j in range(model.m)))


def gm_average_rate(m: int, rho: float, snr: float) -> float:
    """Average per-channel rate of the Gauss-Markov chain order.

    The chain lead runs at C(snr), every later channel at
    C(snr / (1 - rho^2)): average = (C1 + (m - 1) C2) / m.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if abs(rho) >= 1:
        raise ValueError("need |rho| < 1")
    c1 = capacity(snr)
    c2 = capacity(snr / effective_variance(1.0, rho))
    return (c1 + (m - 1) * c2) / m


def pair_upper_bound(p_i: float, p_j: float, sigma2_i: float, sigma2_j: float,
                     rho: float) -> UpperBoundBreakdown:
    """Upper bound on the sum capacity of a correlated pair, in bits, as the
    breakdown whose ``total`` is the bound.

    Four additive terms: the lead channel's capacity, a variance-ratio
    term log((P_j + s_j^2) / (P_j + (1 - rho^2) s_j^2)) / 2, the (negative)
    output-correlation penalty log(1 - rho_tilde^2) / 2 with
    rho_tilde = rho s_i s_j / sqrt((P_i + s_i^2)(P_j + s_j^2)), and the
    recycled channel's capacity at reduced variance.  Note the variances
    (not standard deviations) under the radical.
    """
    if abs(rho) >= 1:
        raise ValueError("need |rho| < 1")
    if min(p_i, p_j, sigma2_i, sigma2_j) <= 0:
        raise ValueError("powers and variances must be positive")
    reduced = effective_variance(sigma2_j, rho)
    rho_tilde = rho * np.sqrt(sigma2_i * sigma2_j) / np.sqrt(
        (p_i + sigma2_i) * (p_j + sigma2_j))
    return UpperBoundBreakdown(
        lead_capacity=capacity(p_i / sigma2_i),
        variance_ratio=0.5 * float(np.log2((p_j + sigma2_j)
                                           / (p_j + reduced))),
        correlation_penalty=0.5 * float(np.log2(1.0 - rho_tilde ** 2)),
        reduced_capacity=capacity(p_j / reduced),
        rho_tilde=float(rho_tilde),
    )


def water_fill(noise_eigenvalues: np.ndarray,
               total_power: float) -> tuple[np.ndarray, float]:
    """Allocate ``total_power`` over noise eigenmodes: p_k = max(0, nu - l_k).

    With the eigenvalues ascending, the level over the k lowest is
    nu_k = (total_power + l_(1) + ... + l_(k)) / k, and nu is nu_k at the
    largest k with nu_k > l_(k): the modes below the water are a prefix of
    the sorted eigenvalues, and nu_1 > l_(1) always.  Returns (allocations
    in the input's order, nu).
    """
    lam = np.asarray(noise_eigenvalues, dtype=float)
    if (lam <= 0).any():
        raise ValueError("noise eigenvalues must be positive")
    if total_power <= 0:
        raise ValueError("total power must be positive")
    ascending = np.sort(lam, axis=None)
    levels = (total_power + np.cumsum(ascending)) / np.arange(1, ascending.size + 1)
    nu = float(levels[levels > ascending][-1])
    return np.clip(nu - lam, 0.0, None), nu


def joint_capacity(model: ChannelModel) -> float:
    """Joint encoder-decoder capacity under the sum power m * P, for a common
    per-channel power P.

    Water-fills m * P over the eigenvalues of the noise covariance and sums
    0.5 * log2((l_k + p_k) / l_k).  That is an upper relaxation of the
    capacity under a per-channel power P.  The two agree when the
    water-filled input covariance gives every channel power P: with equal
    noise variances, always at m = 2 and at any m when no eigenmode is left
    dry.  Elsewhere this is strictly larger.  With sigma^2 = (1, 4),
    rho = 0 and P = 1 it returns 0.792 bits, where independent decoding,
    optimal without correlation, gives 0.661; the Gauss-Markov model with
    m = 3, rho = 0.9 and P = 0.1 gives its channels powers (0.082, 0.137,
    0.082).
    """
    power = np.asarray(model.power, dtype=float)
    if not np.allclose(power, power[0]):
        raise ValueError("joint capacity assumes a common power budget")
    lam = np.linalg.eigvalsh(model.covariance)
    if lam.min() <= 0:
        raise ValueError("noise covariance must be positive definite")
    alloc, _ = water_fill(lam, float(model.m * power[0]))
    return float(np.sum(0.5 * np.log2((lam + alloc) / lam)))
