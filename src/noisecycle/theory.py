"""Closed-form rate math for recycling-aided decoding.

All logarithms are base 2, so every rate is in bits per channel use.
``capacity(snr) = 0.5 * log2(1 + snr)``; a recycling plan lifts a
channel's operating SNR from P / sigma^2 to P / (sigma^2 (1 - rho^2)) on
its plan edge.  The pairwise upper bound and the joint encoder-decoder
water-filling capacity bracket what sequential decoding with independent
encoders can achieve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .ordering import RecyclingPlan
from .recycling import effective_snr

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
    per_channel_rates: tuple[float, ...]
    sum_rate: float
    average_rate: float
    label: str

    def __post_init__(self) -> None:
        if any(r < 0 for r in self.per_channel_rates):
            raise ValueError("rates must be nonnegative")
        if not np.isclose(self.sum_rate, sum(self.per_channel_rates)):
            raise ValueError("sum_rate must equal the sum of per-channel rates")


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


def _report(rates: list[float], label: str) -> RateReport:
    total = float(sum(rates))
    return RateReport(per_channel_rates=tuple(rates), sum_rate=total,
                      average_rate=total / len(rates), label=label)


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
    return _report(rates, "recycling")


def independent_rates(model: ChannelModel) -> RateReport:
    """Per-channel capacities without recycling: C(P_j / sigma_j^2)."""
    return _report([capacity(model.snr(j)) for j in range(model.m)], "independent")


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
    c2 = capacity(snr / (1.0 - rho * rho))
    return (c1 + (m - 1) * c2) / m


def pair_upper_bound(p_i: float, p_j: float, sigma2_i: float, sigma2_j: float,
                     rho: float) -> tuple[float, UpperBoundBreakdown]:
    """Upper bound on the sum capacity of a correlated pair, in bits.

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
    one_minus = 1.0 - rho * rho
    rho_tilde = rho * np.sqrt(sigma2_i * sigma2_j) / np.sqrt(
        (p_i + sigma2_i) * (p_j + sigma2_j))
    breakdown = UpperBoundBreakdown(
        lead_capacity=capacity(p_i / sigma2_i),
        variance_ratio=0.5 * float(np.log2((p_j + sigma2_j)
                                           / (p_j + one_minus * sigma2_j))),
        correlation_penalty=0.5 * float(np.log2(1.0 - rho_tilde ** 2)),
        reduced_capacity=capacity(p_j / (one_minus * sigma2_j)),
        rho_tilde=float(rho_tilde),
    )
    return breakdown.total, breakdown


def water_fill(noise_eigenvalues: np.ndarray, total_power: float,
               rel_tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """Allocate ``total_power`` over noise eigenmodes: p_k = max(0, nu - l_k).

    The water level nu is found by bisection to the requested relative
    tolerance.  Returns (allocations, nu).
    """
    lam = np.asarray(noise_eigenvalues, dtype=float)
    if (lam <= 0).any():
        raise ValueError("noise eigenvalues must be positive")
    if total_power <= 0:
        raise ValueError("total power must be positive")
    lo = float(lam.min())
    hi = float(lam.max() + total_power)
    while hi - lo > rel_tol * max(1.0, abs(hi)):
        nu = 0.5 * (lo + hi)
        if np.clip(nu - lam, 0.0, None).sum() > total_power:
            hi = nu
        else:
            lo = nu
    nu = 0.5 * (lo + hi)
    return np.clip(nu - lam, 0.0, None), nu


def joint_capacity(model: ChannelModel) -> float:
    """Joint encoder-decoder capacity with a common per-channel power P.

    Water-fills m * P over the eigenvalues of the noise covariance and sums
    0.5 * log2((l_k + p_k) / l_k).
    """
    power = np.asarray(model.power, dtype=float)
    if not np.allclose(power, power[0]):
        raise ValueError("joint capacity assumes a common power budget")
    lam = np.linalg.eigvalsh(model.covariance)
    if lam.min() <= 0:
        raise ValueError("noise covariance must be positive definite")
    alloc, _ = water_fill(lam, float(model.m * power[0]))
    return float(np.sum(0.5 * np.log2((lam + alloc) / lam)))
