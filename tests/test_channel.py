import numpy as np
import pytest

from noisecycle import (ChannelModel, NoiseBlock, build_gm_model, ebn0_to_sigma2,
                        modulate_bpsk, sample_noise, transmit)
from noisecycle.channel import correlate


class TestGmModel:
    def test_powers_of_rho(self):
        model = build_gm_model(3, 0.5, 1.0)
        expect = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        assert np.allclose(model.corr, expect)

    def test_zero_rho_identity(self):
        assert np.allclose(build_gm_model(4, 0.0, 1.0).corr, np.eye(4))

    def test_cholesky_exists_for_any_subunit_rho(self):
        for rho in (-0.95, -0.5, 0.0, 0.3, 0.7, 0.99):
            model = build_gm_model(5, rho, 1.0)
            chol = np.linalg.cholesky(model.covariance)
            assert np.allclose(chol @ chol.T, model.covariance)

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            build_gm_model(3, 1.0, 1.0)

    def test_model_validation(self):
        bad = np.array([[1.0, 0.9], [0.2, 1.0]])
        with pytest.raises(ValueError):
            ChannelModel(m=2, sigma2=np.ones(2), power=np.ones(2), corr=bad)
        with pytest.raises(ValueError):
            ChannelModel(m=2, sigma2=np.array([1.0, -1.0]), power=np.ones(2),
                         corr=np.eye(2))
        # a non-finite entry fails here, naming its field, not at the first draw
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            ChannelModel(m=2, sigma2=np.array([np.nan, 1.0]), power=np.ones(2),
                         corr=np.eye(2))
        with pytest.raises(ValueError, match="power must be finite"):
            ChannelModel(m=2, sigma2=np.ones(2), power=np.array([1.0, np.inf]),
                         corr=np.eye(2))
        with pytest.raises(ValueError, match="corr must be finite"):
            ChannelModel(m=2, sigma2=np.ones(2), power=np.ones(2),
                         corr=np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestModulation:
    def test_bit_map(self):
        assert np.array_equal(modulate_bpsk([0, 1, 1, 0]), [1.0, -1.0, -1.0, 1.0])

    def test_all_zero(self):
        assert np.array_equal(modulate_bpsk(np.zeros(5, dtype=np.uint8)), np.ones(5))

    def test_hard_slice_inverts(self, rng):
        bits = rng.integers(0, 2, size=64, dtype=np.uint8)
        assert np.array_equal((modulate_bpsk(bits) < 0).astype(np.uint8), bits)


class TestEbn0:
    def test_zero_db_half_rate(self):
        assert ebn0_to_sigma2(0.0, 0.5) == pytest.approx(1.0)

    def test_three_db_halves_variance(self):
        assert ebn0_to_sigma2(3.0103, 0.5) == pytest.approx(0.5, rel=1e-4)

    def test_monotone_decreasing(self):
        grid = [ebn0_to_sigma2(db, 0.75) for db in np.linspace(-5, 10, 31)]
        assert all(b < a for a, b in zip(grid, grid[1:]))

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            ebn0_to_sigma2(0.0, 0.0)


class TestSampleNoise:
    def test_uncorrelated_channels_empirically_uncorrelated(self, rng):
        model = build_gm_model(2, 0.0, 1.0)
        z = sample_noise(model, 100_000, rng).samples
        rho_hat = np.corrcoef(z)[0, 1]
        assert abs(rho_hat) < 0.05

    def test_gm_empirical_covariance(self, rng):
        model = build_gm_model(2, 0.8, 1.0)
        z = sample_noise(model, 100_000, rng).samples
        cov_hat = z @ z.T / z.shape[1]
        assert np.abs(cov_hat - [[1.0, 0.8], [0.8, 1.0]]).max() < 0.02

    def test_deterministic_given_seed(self):
        model = build_gm_model(3, 0.6, 2.0)
        a = sample_noise(model, 500, np.random.default_rng(5)).samples
        b = sample_noise(model, 500, np.random.default_rng(5)).samples
        assert np.array_equal(a, b)

    def test_variances_within_three_standard_errors(self, rng):
        model = ChannelModel(m=2, sigma2=np.array([0.8, 1.2]), power=np.ones(2),
                             corr=np.array([[1.0, 0.5], [0.5, 1.0]]))
        n = 200_000
        z = sample_noise(model, n, rng).samples
        for j, s2 in enumerate((0.8, 1.2)):
            se = s2 * np.sqrt(2.0 / n)
            assert abs(z[j].var() - s2) < 3 * se

    def test_pairwise_correlation_within_three_standard_errors(self, rng):
        model = build_gm_model(3, 0.6, 1.0)
        n = 400_000
        z = sample_noise(model, n, rng).samples
        for i in range(3):
            for j in range(i + 1, 3):
                rho = 0.6 ** (j - i)
                se = (1 - rho**2) / np.sqrt(n)
                assert abs(np.corrcoef(z[i], z[j])[0, 1] - rho) < 3 * se

    @pytest.mark.parametrize("model", [
        build_gm_model(1, 0.0, 0.7), build_gm_model(2, 0.6, 1.3), build_gm_model(4, -0.4, 0.5),
        build_gm_model(5, 0.9, 2.0),
        ChannelModel(m=2, sigma2=np.ones(2), power=np.ones(2), corr=np.ones((2, 2))),
    ])
    def test_stacked_blocks_equal_sample_noise(self, model):
        # the harness correlates a batch of white draws at once; each block
        # must be what sample_noise gives from the same generator state
        white = np.stack([np.random.default_rng(s).standard_normal((model.m, 128))
                          for s in range(32)])
        stacked = correlate(model, white)
        for s, block in enumerate(stacked):
            alone = sample_noise(model, 128, np.random.default_rng(s)).samples
            assert np.array_equal(block, alone)

    def test_non_finite_noise_rejected(self):
        model = build_gm_model(2, 0.6, 1.0)
        white = np.zeros((3, 2, 8))
        white[2, 1, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            correlate(model, white)

    def test_psd_singular_covariance_sampled_via_fallback(self, rng):
        # perfectly correlated pair: Cholesky fails, eigen factor must not
        model = ChannelModel(m=2, sigma2=np.ones(2), power=np.ones(2),
                             corr=np.ones((2, 2)))
        z = sample_noise(model, 10_000, rng).samples
        assert np.allclose(z[0], z[1])

    def test_gm_chain_construction_equivalence(self, rng):
        # Cholesky sampling matches the sequential construction
        # Z_j = rho * Z_{j-1} + Xi in distribution (same covariance)
        m, rho, n = 4, 0.6, 300_000
        model = build_gm_model(m, rho, 1.0)
        z_chol = sample_noise(model, n, rng).samples
        z_chain = np.empty((m, n))
        z_chain[0] = rng.standard_normal(n)
        for j in range(1, m):
            xi = rng.standard_normal(n) * np.sqrt(1 - rho**2)
            z_chain[j] = rho * z_chain[j - 1] + xi
        cov_chol = z_chol @ z_chol.T / n
        cov_chain = z_chain @ z_chain.T / n
        assert np.abs(cov_chol - model.covariance).max() < 0.02
        assert np.abs(cov_chain - model.covariance).max() < 0.02


class TestTransmit:
    def test_zero_noise_passthrough(self):
        model = build_gm_model(2, 0.0, 1.0)
        x = np.ones((2, 8))
        out = transmit(model, x, NoiseBlock(samples=np.zeros((2, 8))))
        assert np.array_equal(out.received, x)
        assert np.array_equal(out.transmitted, x)

    def test_zero_signal_gives_noise(self, rng):
        model = build_gm_model(2, 0.3, 1.0)
        z = sample_noise(model, 16, rng)
        out = transmit(model, np.zeros((2, 16)), z)
        assert np.array_equal(out.received, z.samples)

    def test_additivity(self, rng):
        model = build_gm_model(2, 0.3, 1.0)
        x = rng.normal(size=(2, 10))
        z1 = NoiseBlock(samples=rng.normal(size=(2, 10)))
        z2 = NoiseBlock(samples=rng.normal(size=(2, 10)))
        once = transmit(model, x, NoiseBlock(samples=z1.samples + z2.samples))
        twice = transmit(model, transmit(model, x, z1).received, z2)
        assert np.allclose(once.received, twice.received)

    def test_shape_mismatch_rejected(self):
        model = build_gm_model(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            transmit(model, np.zeros((2, 8)), NoiseBlock(samples=np.zeros((2, 9))))
