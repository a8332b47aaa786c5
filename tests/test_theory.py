import numpy as np
import pytest

from noisecycle import (achievable_rates, build_gm_model, build_recycle_graph,
                        capacity, gm_average_rate, independent_rates,
                        joint_capacity, max_arborescence, pair_upper_bound,
                        water_fill)
from noisecycle.ordering import RecyclingPlan
from noisecycle.theory import RateReport

from conftest import fig2_model


class TestCapacity:
    def test_zero_snr(self):
        assert capacity(0.0) == 0.0

    def test_snr_three_gives_one_bit(self):
        assert capacity(3.0) == pytest.approx(1.0)

    def test_fig2_rate_values(self):
        assert capacity(1.0) == pytest.approx(0.5)
        assert capacity(4.0) == pytest.approx(0.5 * np.log2(5.0))
        assert capacity(5.0) == pytest.approx(0.5 * np.log2(6.0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            capacity(-0.1)


class TestAchievableRates:
    def test_zero_rho_equals_independent(self):
        model = build_gm_model(3, 0.0, 0.5, 1.0)
        plan = max_arborescence(build_recycle_graph(model))
        got = achievable_rates(model, plan)
        want = independent_rates(model)
        assert got.per_channel_rates == pytest.approx(want.per_channel_rates)

    def test_gm_chain_rates(self):
        model = build_gm_model(4, 0.5, 1.0, 1.0)
        plan = RecyclingPlan(parent=(0, 1, 2, 3), total_snr=0.0)
        rates = achievable_rates(model, plan).per_channel_rates
        assert rates[0] == pytest.approx(0.5)
        for r in rates[1:]:
            assert r == pytest.approx(0.5 * np.log2(7.0 / 3.0), abs=1e-9)
            assert r == pytest.approx(0.61120, abs=5e-6)

    def test_fig2_instance(self):
        model = fig2_model()
        plan = max_arborescence(build_recycle_graph(model))
        rates = sorted(achievable_rates(model, plan).per_channel_rates)
        want = sorted([capacity(1.0), capacity(4.0), capacity(5.0)])
        assert rates == pytest.approx(want, abs=1e-9)

    def test_plan_beats_independent_sum(self, rng):
        for _ in range(20):
            model = build_gm_model(int(rng.integers(2, 6)),
                                   float(rng.uniform(0.05, 0.9)), 1.0)
            plan = max_arborescence(build_recycle_graph(model))
            assert achievable_rates(model, plan).sum_rate > \
                independent_rates(model).sum_rate

    def test_rates_finite_up_to_extreme_rho(self):
        for rho in (0.9, 0.99, 0.999):
            model = build_gm_model(3, rho, 1.0)
            plan = max_arborescence(build_recycle_graph(model))
            rates = achievable_rates(model, plan).per_channel_rates
            assert all(np.isfinite(r) and r >= 0 for r in rates)


class TestIndependentRates:
    def test_fig2_raw_rates(self):
        rates = independent_rates(fig2_model()).per_channel_rates
        assert rates == pytest.approx(
            (capacity(1.1), capacity(1.0), capacity(1.05)))

    def test_report_consistency(self):
        rep = independent_rates(build_gm_model(4, 0.3, 1.0, 3.0))
        assert rep.sum_rate == pytest.approx(4 * capacity(3.0))
        assert rep.average_rate == pytest.approx(capacity(3.0))


class TestGmAverageRate:
    def test_single_channel(self):
        assert gm_average_rate(1, 0.7, 2.0) == pytest.approx(capacity(2.0))

    def test_zero_rho(self):
        for m in (1, 2, 5):
            assert gm_average_rate(m, 0.0, 1.5) == pytest.approx(capacity(1.5))

    def test_reference_value(self):
        assert gm_average_rate(4, 0.5, 1.0) == pytest.approx(0.58340, abs=5e-6)

    def test_increasing_in_m(self):
        vals = [gm_average_rate(m, 0.6, 1.0) for m in range(1, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPairUpperBound:
    def test_zero_rho_reduces_to_independent_sum(self):
        br = pair_upper_bound(2.0, 3.0, 1.0, 0.5, 0.0)
        assert br.variance_ratio == 0.0
        assert br.correlation_penalty == 0.0
        assert br.total == pytest.approx(capacity(2.0) + capacity(6.0))

    def test_reference_terms(self):
        # independently derived: 0.5 log2(2/1.75), 0.5 log2(1 - 0.25^2),
        # 0.5 log2(1 + 4/3)
        br = pair_upper_bound(1.0, 1.0, 1.0, 1.0, 0.5)
        assert br.lead_capacity == pytest.approx(0.5)
        assert br.variance_ratio == pytest.approx(0.0963226, abs=5e-7)
        assert br.correlation_penalty == pytest.approx(-0.0465547, abs=5e-7)
        assert br.reduced_capacity == pytest.approx(0.6111965, abs=5e-7)
        assert br.rho_tilde == pytest.approx(0.25)
        assert br.total == pytest.approx(1.1610, abs=5e-5)

    def test_rho_tilde_magnitude_bounded_by_rho(self, rng):
        for _ in range(50):
            rho = float(rng.uniform(-0.95, 0.95))
            br = pair_upper_bound(float(rng.uniform(0.2, 8)),
                                  float(rng.uniform(0.2, 8)),
                                  float(rng.uniform(0.3, 2)),
                                  float(rng.uniform(0.3, 2)), rho)
            assert abs(br.rho_tilde) <= abs(rho) + 1e-12

    def test_bound_dominates_achievable_pair(self):
        for rho in np.arange(0.0, 0.951, 0.05):
            for snr in np.geomspace(0.5, 16, 6):
                ach = capacity(snr) + capacity(snr / (1 - rho * rho))
                bound = pair_upper_bound(snr, snr, 1.0, 1.0, float(rho)).total
                assert bound >= ach - 1e-9


class TestWaterFilling:
    def test_uniform_level_for_equal_noise(self):
        alloc, nu = water_fill(np.array([1.0, 1.0, 1.0]), 3.0)
        assert np.allclose(alloc, 1.0)
        assert nu == pytest.approx(2.0, abs=1e-9)

    def test_reference_two_mode_split(self):
        alloc, nu = water_fill(np.array([0.5, 1.5]), 2.0)
        assert alloc == pytest.approx([1.5, 0.5], abs=1e-9)
        assert nu == pytest.approx(2.0, abs=1e-9)

    def test_starves_deep_modes(self):
        alloc, _ = water_fill(np.array([0.1, 10.0]), 0.5)
        assert alloc[1] == 0.0
        assert alloc[0] == pytest.approx(0.5, abs=1e-9)

    def test_total_power_conserved(self, rng):
        for _ in range(20):
            lam = rng.uniform(0.1, 5.0, size=5)
            total = float(rng.uniform(0.5, 10.0))
            alloc, _ = water_fill(lam, total)
            assert alloc.sum() == pytest.approx(total, rel=1e-9)


class TestJointCapacity:
    def test_zero_rho_is_m_times_single(self):
        for m in (2, 4):
            model = build_gm_model(m, 0.0, 1.0, 1.0)
            assert joint_capacity(model) == pytest.approx(m * capacity(1.0),
                                                          abs=1e-10)

    def test_reference_two_channel_value(self):
        model = build_gm_model(2, 0.5, 1.0, 1.0)
        want = 0.5 * np.log2(4.0) + 0.5 * np.log2(4.0 / 3.0)
        assert joint_capacity(model) == pytest.approx(want, abs=1e-9)

    def test_nondecreasing_in_correlation(self):
        caps = [joint_capacity(build_gm_model(2, rho, 1.0, 1.0))
                for rho in np.arange(0.0, 0.96, 0.05)]
        assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))

    def test_matches_coarse_grid_search(self):
        # sanity cross-check at modest grid resolution (the fine grid runs in
        # the acceptance suite)
        rho, p = 0.5, 1.0
        model = build_gm_model(2, rho, p, p)
        alphas = np.linspace(0.0, 1.0, 401)
        rs = np.linspace(-1.0, 1.0, 801)
        a, r = np.meshgrid(alphas, rs, indexing="ij")
        p1, p2 = 2 * p * a, 2 * p * (1 - a)
        c = r * np.sqrt(p1 * p2)
        det = (p1 + 1.0) * (p2 + 1.0) - (c + rho) ** 2
        best = 0.5 * np.log2(np.maximum(det, 1e-300) / (1 - rho**2)).max()
        assert joint_capacity(model) == pytest.approx(best, abs=5e-3)

    def test_nearly_matches_pair_bound_at_benign_operating_points(self):
        # joint encoding can beat the independent-encoder bound outright at
        # low SNR / high correlation, so only near-agreement is asserted, and
        # only where the curves visually coincide (mild rho, high SNR)
        for rho, snr in ((0.4, 8.0), (0.3, 10.0), (0.5, 12.0)):
            model = build_gm_model(2, rho, 1.0, snr)
            bound = pair_upper_bound(snr, snr, 1.0, 1.0, rho).total
            assert joint_capacity(model) == pytest.approx(bound, abs=0.05)

    def test_bound_gap_over_bounds_grid(self):
        # the `noisecycle bounds` grid: achievable <= pair bound <= joint
        # capacity, and the bound-to-capacity gap, zero without correlation,
        # closes as snr grows at every rho; no claim about the paper's plots
        snrs = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        print("\nrho,snr,achievable,pair_bound,joint_capacity,gap")
        for rho in (0.0, 0.3, 0.6, 0.9):
            gaps = []
            for snr in snrs:
                model = build_gm_model(2, rho, 1.0, snr)
                ach = achievable_rates(model, max_arborescence(build_recycle_graph(model)))
                bound = pair_upper_bound(snr, snr, 1.0, 1.0, rho).total
                joint = joint_capacity(model)
                gaps.append(joint - bound)
                print(f"{rho},{snr},{ach.sum_rate:.6g},{bound:.6g},{joint:.6g},"
                      f"{gaps[-1]:.6g}")
                assert ach.sum_rate <= bound + 1e-12
                assert bound <= joint + 1e-12
            if rho == 0.0:
                assert max(map(abs, gaps)) <= 1e-10
            else:
                assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_heterogeneous_power_rejected(self):
        model = build_gm_model(2, 0.5, 1.0, 1.0)
        object.__setattr__(model, "power", np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            joint_capacity(model)


class TestReportTypes:
    def test_rate_report_derives_its_totals(self):
        rep = RateReport((0.5, 0.25, 0.75), "hand-made")
        assert (rep.sum_rate, rep.average_rate) == (1.5, 0.5)

    def test_rate_report_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RateReport((0.5, -0.25), "broken")
