import numpy as np
import pytest

from noisecycle import (ChannelModel, NoiseEstimate,
                        composite_bler, effective_snr, effective_variance,
                        estimate_noise, llse_update, modulate_bpsk,
                        normalized_corr, sample_noise)


def two_channel(rho, s2_i=1.0, s2_j=1.0):
    return ChannelModel(m=2, sigma2=np.array([s2_i, s2_j]), power=np.ones(2),
                        corr=np.array([[1.0, rho], [rho, 1.0]]))


class TestNormalizedCorr:
    def test_equal_sigmas_passthrough(self):
        assert normalized_corr(two_channel(0.37), 0, 1) == pytest.approx(0.37)

    def test_zero_rho(self):
        assert normalized_corr(two_channel(0.0, 0.8, 1.2), 0, 1) == 0.0

    def test_heterogeneous_variances(self):
        # rho = 0.6 with target variance 1.2 and source variance 0.8
        model = two_channel(0.6, 0.8, 1.2)
        assert normalized_corr(model, 0, 1) == pytest.approx(0.6 * np.sqrt(1.5),
                                                             abs=1e-12)
        assert normalized_corr(model, 0, 1) == pytest.approx(0.734847, abs=5e-7)

    def test_product_identity(self):
        # rho'(i->j) * rho'(j->i) = rho^2 regardless of the variances
        model = two_channel(0.45, 0.7, 1.9)
        assert normalized_corr(model, 0, 1) * normalized_corr(model, 1, 0) == \
            pytest.approx(0.45**2)

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            normalized_corr(two_channel(0.5), 1, 1)


class TestEstimateNoise:
    def test_correct_decoding_recovers_exact_noise(self, rng):
        bits = rng.integers(0, 2, size=32, dtype=np.uint8)
        x = modulate_bpsk(bits)
        z = rng.normal(size=32)
        est = estimate_noise(x + z, x, source=0)
        assert np.allclose(est.values, z)

    def test_decoded_equals_received_gives_zero(self, rng):
        y = rng.normal(size=16)
        assert not estimate_noise(y, y, source=1).values.any()

    def test_single_wrong_symbol_offsets_by_two(self, rng):
        bits = rng.integers(0, 2, size=16, dtype=np.uint8)
        x = modulate_bpsk(bits)
        z = rng.normal(size=16)
        wrong = bits.copy()
        wrong[5] ^= 1
        est = estimate_noise(x + z, modulate_bpsk(wrong), source=0)
        diff = est.values - z
        assert abs(diff[5]) == pytest.approx(2.0)
        assert np.allclose(np.delete(diff, 5), 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            estimate_noise(np.zeros(4), np.zeros(5), source=0)


class TestLlseUpdate:
    def test_zero_estimate_is_identity(self, rng):
        model = two_channel(0.8)
        y = rng.normal(size=10)
        est = NoiseEstimate(values=np.zeros(10), source_channel=0)
        assert np.array_equal(llse_update(y, est, model, 1), y)

    def test_full_correlation_cancels_noise(self, rng):
        # rho = 1 with equal sigmas: the channels share one noise vector
        model = ChannelModel(m=2, sigma2=np.ones(2), power=np.ones(2),
                             corr=np.ones((2, 2)))
        x = modulate_bpsk(rng.integers(0, 2, size=20, dtype=np.uint8))
        z = rng.normal(size=20)
        est = NoiseEstimate(values=z, source_channel=0)
        clean = llse_update(x + z, est, model, 1)
        assert np.allclose(clean, x)

    def test_scalar_arithmetic(self):
        model = two_channel(0.5)
        est = NoiseEstimate(values=np.array([0.2]), source_channel=0)
        assert llse_update(np.array([0.3]), est, model, 1) == pytest.approx([0.2])

    def test_stacked_rows_update_like_each_row_alone(self, rng):
        # the pipeline recycles many blocks in one call: each row must come
        # out bit for bit as that block alone
        model = two_channel(0.7)
        y, x_hat, target = rng.normal(size=(3, 5, 12))
        stacked = llse_update(target, estimate_noise(y, x_hat, source=0), model, 1)
        for row in range(5):
            alone = estimate_noise(y[row], x_hat[row], source=0)
            assert np.array_equal(stacked[row], llse_update(target[row], alone, model, 1))
        with pytest.raises(ValueError):
            NoiseEstimate(values=0.5, source_channel=0)

    def test_self_recycling_rejected(self):
        model = two_channel(0.5)
        est = NoiseEstimate(values=np.zeros(4), source_channel=1)
        with pytest.raises(ValueError):
            llse_update(np.zeros(4), est, model, 1)


class TestEffectiveVariance:
    def test_direct_substitution(self):
        assert effective_variance(1.0, 0.5) == pytest.approx(0.75)

    def test_zero_rho_no_reduction(self):
        assert effective_variance(1.7, 0.0) == 1.7

    def test_monte_carlo_residual(self, rng):
        model = two_channel(0.8)
        z = sample_noise(model, 1_000_000, rng).samples
        resid = z[1] - normalized_corr(model, 0, 1) * z[0]
        assert resid.var() == pytest.approx(0.36, rel=0.01)

    def test_strict_reduction_for_nonzero_rho(self):
        for rho in (0.1, -0.4, 0.9):
            assert effective_variance(2.0, rho) < 2.0

    def test_out_of_range_rho(self):
        with pytest.raises(ValueError):
            effective_variance(1.0, 1.5)


class TestEffectiveSnr:
    def test_no_source_is_raw_snr(self):
        assert effective_snr(two_channel(0.9), 0) == pytest.approx(1.0)

    def test_recycled_snr(self):
        assert effective_snr(two_channel(0.8), 1, 0) == pytest.approx(1 / 0.36)

    def test_zero_rho_source_equals_no_source(self):
        model = two_channel(0.0)
        assert effective_snr(model, 1, 0) == effective_snr(model, 1)

    def test_unit_correlation_rejected(self):
        model = ChannelModel(m=2, sigma2=np.ones(2), power=np.ones(2),
                             corr=np.ones((2, 2)))
        with pytest.raises(ValueError):
            effective_snr(model, 1, 0)


class TestCompositeBler:
    def test_arithmetic(self):
        assert composite_bler(0.1, 0.02) == pytest.approx(0.028)

    def test_fixed_point_when_no_reduction(self):
        for b in (0.0, 0.3, 1.0):
            assert composite_bler(b, b) == pytest.approx(b)

    def test_always_improves_when_reduced_is_better(self, rng):
        for _ in range(200):
            b = rng.uniform(0.01, 0.99)
            b_red = rng.uniform(0.0, b)
            out = composite_bler(b, b_red)
            assert out <= b
            if b_red < b:
                assert out < b

    def test_range_validation(self):
        with pytest.raises(ValueError):
            composite_bler(1.2, 0.1)
        with pytest.raises(ValueError):
            composite_bler(0.1, -0.01)


class TestResidualInvariant:
    def test_llse_with_true_noise_hits_effective_variance(self, rng):
        # subtracting the true source noise leaves variance sigma^2 (1 - rho^2)
        for rho in (0.4, 0.6):
            model = two_channel(rho, 1.0, 1.3)
            n = 1_000_000
            z = sample_noise(model, n, rng).samples
            est = NoiseEstimate(values=z[0], source_channel=0)
            resid = llse_update(z[1], est, model, 1)  # zero signal
            expect = effective_variance(1.3, rho)
            se = expect * np.sqrt(2.0 / n)
            assert abs(resid.var() - expect) < 3 * se
