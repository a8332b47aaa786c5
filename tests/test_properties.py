"""Property tests: decoders against the ML and rank-stream oracles,
recycling against independent decoding, and the CSV round trip, over
generated inputs."""

import numpy as np
from hypothesis import given, strategies as st

from noisecycle import (BlerPoint, CrcSpec, OrbgrandDecoder, PipelineConfig,
                        SgrandabDecoder, SoftBlock, build_gm_model,
                        ml_decode_bruteforce, run_block, sample_rlc)
from noisecycle.harness import csv_text, parse_csv
from noisecycle.ordering import RecyclingPlan

from conftest import orbgrand_first_hit
from test_pipeline import make_outputs

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def crc_codes(draw, max_n=10):
    """A random rlc[n, k] code, n <= max_n, with a random CRC of degree < k."""
    n = draw(st.integers(3, max_n))
    k = draw(st.integers(2, n))
    degree = draw(st.integers(1, k - 1))
    tail = draw(st.lists(st.sampled_from("01"), min_size=degree, max_size=degree))
    crc = CrcSpec(degree, "1" + "".join(tail))
    return sample_rlc(n, k, seed=draw(seeds), crc=crc)


@given(code=crc_codes(), seed=seeds)
def test_sgrandab_is_ml_with_any_crc(code, seed):
    # Gaussian observations: no two codewords tie in correlation
    y = np.random.default_rng(seed).normal(size=code.n)
    out = SgrandabDecoder(2 ** code.n).decode(code, SoftBlock(y, 1.0))
    assert out.status == "decoded"
    assert np.array_equal(out.codeword, ml_decode_bruteforce(code, y))


@given(code=crc_codes(max_n=12), seed=seeds, data=st.data())
def test_orbgrand_stops_at_first_hit_of_rank_stream(code, seed, data):
    y = np.random.default_rng(seed).normal(size=code.n)
    pos, word = orbgrand_first_hit(code, y)
    cap = data.draw(st.integers(1, 2 ** code.n), label="cap")
    out = OrbgrandDecoder(cap).decode(code, SoftBlock(y, 1.0))
    if cap >= pos:
        assert (out.status, out.queries) == ("decoded", pos)
        assert np.array_equal(out.codeword, word)
    else:
        assert (out.status, out.queries, out.codeword) == ("abandoned", cap, None)
    if pos > 1:  # one query short of the hit: give up at the cap
        out = OrbgrandDecoder(pos - 1).decode(code, SoftBlock(y, 1.0))
        assert (out.status, out.queries, out.codeword) == ("abandoned", pos - 1, None)


@given(m=st.integers(2, 3), rho=st.floats(-0.9, 0.9), sigma2=st.floats(0.2, 1.5),
       code_seed=st.integers(0, 1000), seed=seeds)
def test_all_zero_node_plan_decodes_independently(m, rho, sigma2, code_seed, seed):
    # every channel a child of the zero node: nothing is recycled
    model = build_gm_model(m, rho, sigma2)
    codes = [sample_rlc(16, 11, seed=code_seed + j) for j in range(m)]
    decoders = [OrbgrandDecoder(max_queries=2000)] * m
    outputs, _, _ = make_outputs(model, codes, np.random.default_rng(seed))
    plan = RecyclingPlan(parent=(0,) * m, total_snr=0.0)
    static = run_block(PipelineConfig(mode="static", plan=plan), outputs, codes,
                       decoders, model)
    indep = run_block(PipelineConfig(mode="independent"), outputs, codes, decoders, model)
    assert static.correct == indep.correct
    assert static.queries_spent == indep.queries_spent
    for a, b in zip(static.outcomes, indep.outcomes):
        assert (a.status, a.queries, a.noise_nll) == (b.status, b.queries, b.noise_nll)
        assert (a.codeword is None) == (b.codeword is None)
        if a.codeword is not None:
            assert np.array_equal(a.codeword, b.codeword)


def six_digits(x: float) -> float:
    return float(f"{x:.6g}")


reals = st.floats(-1e6, 1e6, allow_nan=False).map(six_digits)
points = st.builds(
    BlerPoint, ebn0_db=reals, channel=st.integers(1, 8),
    mode=st.sampled_from(["independent", "static", "static+rr+genie", "dynamic+rr"]),
    trials=st.integers(1, 10 ** 9), block_errors=st.integers(0, 10 ** 9),
    bler=st.floats(0.0, 1.0).map(six_digits), mean_queries=st.floats(0.0, 1e7).map(six_digits),
    lead_fraction=st.floats(0.0, 1.0).map(six_digits))


@given(st.lists(points, min_size=1, max_size=6))
def test_csv_round_trip(pts):
    assert parse_csv(csv_text(pts)) == sorted(pts, key=lambda p: (p.ebn0_db, p.channel))
