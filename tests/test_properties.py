"""Property tests: decoders against the ML, rank-stream and BP reference
oracles, recycling against independent decoding and the LLSE residual,
the plan solver against brute force under ties, and the CSV round trip,
over generated inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisecycle import (BlerPoint, BpDecoder, ChannelModel, CrcSpec, DecodeOutcome,
                        NoiseEstimate, OrbgrandDecoder, PipelineConfig, RecycleGraph,
                        SgrandabDecoder, SoftBlock, brute_force_plan, build_gm_model,
                        build_recycle_graph, code_from_parity_check, crc_encode, encode,
                        llse_update, max_arborescence, ml_decode_bruteforce, modulate_bpsk,
                        run_block, sample_noise, sample_rlc)
from noisecycle.gf2 import gf2_rank
from noisecycle.harness import csv_text, parse_csv
from noisecycle.ordering import RecyclingPlan

from conftest import (bp_knife_edge, bp_reference, decoded_outcome, orbgrand_first_hit,
                      outcome_key)
from test_pipeline import make_outputs

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def crc_codes(draw, max_n=10):
    """A random rlc[n, k] code, n <= max_n, with a random CRC of degree < k."""
    n = draw(st.integers(3, max_n))
    k = draw(st.integers(2, n))
    degree = draw(st.integers(1, k - 1))
    tail = draw(st.lists(st.sampled_from("01"), min_size=degree, max_size=degree))
    crc = CrcSpec("1" + "".join(tail))
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


# variances v at which np.log(2 pi v) and math.log(2 pi v) differ in the
# last bit with numpy 2.4 on x86-64: a noise NLL that took the other
# logarithm would show there
LOG_EDGE_VARIANCES = [0.390347384060337, 6.636084669578364, 8.276825895059087]


@st.composite
def sparse_codes(draw, max_n=24):
    """A code on a random sparse H with n <= max_n columns: irregular rows,
    some of degree 0 or 1, and columns that may be in no row, with or
    without a random CRC of degree < k."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(seeds))
    h = (rng.random((draw(st.integers(1, n - 1)), n))
         < draw(st.floats(0.1, 0.5))).astype(np.uint8)
    rows = draw(st.lists(st.integers(0, len(h) - 1), max_size=3))
    for r, degree in zip(rows, draw(st.lists(st.integers(0, 1), min_size=len(rows),
                                             max_size=len(rows)))):
        h[r] = 0
        h[r, rng.integers(n, size=degree)] = 1
    k = n - gf2_rank(h)
    crc = None
    if k > 1 and draw(st.booleans()):
        degree = draw(st.integers(1, k - 1))
        crc = CrcSpec("1" + "".join(map(str, rng.integers(0, 2, degree))))
    return code_from_parity_check(h, crc=crc)


@settings(max_examples=300)
@given(code=sparse_codes(), seed=seeds, sigma2=st.floats(0.05, 4.0),
       max_iters=st.integers(1, 40))
def test_bp_equals_reference_exactly(code, seed, sigma2, max_iters):
    rng = np.random.default_rng(seed)
    message = rng.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
    if code.crc is not None:
        message = crc_encode(code.crc, message)
    y = modulate_bpsk(encode(code, message)) + np.sqrt(sigma2) * rng.normal(size=code.n)
    soft = SoftBlock(y, sigma2)
    out = BpDecoder(max_iters).decode(code, soft)
    assert outcome_key(out) == outcome_key(bp_reference(code, soft, max_iters))


@st.composite
def decoder_batches(draw):
    """(decoder, code, received rows, per-row variances, noise spread) for a
    batch decode.  ORBGRAND and SGRANDAB draw a random rlc code, an n = k
    code, a tiny code whose rank stream is shorter than ORBGRAND's cap, or a
    CRC code; ORBGRAND also an rlc[80, 10] whose membership check has 70
    rows.  ORBGRAND's cap may stop short of the first hit, SGRANDAB's
    covers every flip set, and BP decodes a random sparse code.  Rows are
    accepted codewords plus noise; at spread 0 every row hits at query 1.
    ORBGRAND's received values are coarse, so reliabilities often tie."""
    name = draw(st.sampled_from(["orbgrand", "sgrandab", "bp"]), label="decoder")
    seed = draw(seeds)
    kind = "sparse" if name == "bp" else draw(st.sampled_from(
        ["rlc", "full", "tiny", "crc"] + ["wide"] * (name == "orbgrand")), label="kind")
    if kind == "sparse":
        code = draw(sparse_codes())
    elif kind == "crc":
        code = draw(crc_codes())
    elif kind == "wide":
        code = sample_rlc(80, 10, seed=seed)
    else:
        n = draw(st.integers(*{"rlc": (4, 10), "full": (1, 8), "tiny": (1, 3)}[kind]))
        code = sample_rlc(n, n if kind == "full" else draw(st.integers(1, n)), seed=seed)
    rng = np.random.default_rng(seed)
    rows = draw(st.integers(1, 8), label="rows")
    messages = rng.integers(0, 2, size=(rows, code.payload_bits), dtype=np.uint8)
    if code.crc is not None:
        messages = crc_encode(code.crc, messages)
    sent = modulate_bpsk(encode(code, messages))
    spread = 0.3 if kind == "wide" else draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    received = sent + spread * rng.normal(size=sent.shape)
    if name == "orbgrand":
        received = np.round(received * 4) / 4
    variances = np.array(draw(st.lists(
        st.sampled_from(LOG_EDGE_VARIANCES) | st.floats(0.05, 10.0),
        min_size=rows, max_size=rows), label="variances"))
    if name == "orbgrand":
        top = 2000 if kind == "wide" else 2 ** code.n + 4
        decoder = OrbgrandDecoder(draw(st.sampled_from([1, top]) | st.integers(1, top),
                                       label="cap"))
    elif name == "sgrandab":
        decoder = SgrandabDecoder(2 ** code.n)
    else:
        decoder = BpDecoder(draw(st.integers(1, 40), label="max_iters"))
    return decoder, code, received, variances, spread


@settings(max_examples=400)
@given(decoder_batches())
def test_batch_rows_decode_like_the_oracle(batch):
    # every row: its decoder's oracle, scored by math.log, and exactly what
    # decode returns for that row alone.  ORBGRAND stops at the first hit of
    # the rank stream within the cap, SGRANDAB returns the ML codeword and
    # BP equals the reference
    decoder, code, received, variances, spread = batch
    outs = decoder.decode_batch(code, received, variances)
    assert len(outs) == len(received)
    for out, y, v in zip(outs, received, variances.tolist()):
        soft = SoftBlock(y, v)
        if isinstance(decoder, OrbgrandDecoder):
            cap = decoder.max_queries
            pos, word = orbgrand_first_hit(code, y)
            want = (decoded_outcome(word, soft, pos) if pos <= cap
                    else DecodeOutcome(status="abandoned", queries=cap, codeword=None))
        elif isinstance(decoder, SgrandabDecoder):
            want = decoded_outcome(ml_decode_bruteforce(code, y), soft, out.queries)
        else:
            want = bp_reference(code, soft, decoder.max_iters)
        assert outcome_key(out) == outcome_key(want)
        assert outcome_key(decoder.decode(code, soft)) == outcome_key(want)
    if spread == 0:
        assert all(out.queries == 1 for out in outs)


@given(code=sparse_codes(), seed=seeds, data=st.data())
def test_bp_equals_reference_on_knife_edges(code, seed, data):
    # at each column in turn, one ulp of difference in the first iteration's
    # messages decides the hard decision.  Every knife edge of the code and
    # the untouched row go through one batch, each at its own variance
    rng = np.random.default_rng(seed)
    message = rng.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
    if code.crc is not None:
        message = crc_encode(code.crc, message)
    y = modulate_bpsk(encode(code, message)) + 0.5 * rng.normal(size=code.n)
    variances = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=code.n + 1,
                                            max_size=code.n + 1), label="variances"))
    received = np.array([bp_knife_edge(code, y, v, column)
                         for column, v in enumerate(variances[:-1].tolist())] + [y])
    decoder = BpDecoder(20)
    for out, row, v in zip(decoder.decode_batch(code, received, variances), received,
                           variances.tolist()):
        soft = SoftBlock(row, v)
        want = outcome_key(bp_reference(code, soft, 20))
        assert outcome_key(out) == want
        assert outcome_key(decoder.decode(code, soft)) == want


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


@given(m=st.integers(2, 4), rho=st.floats(-0.95, 0.95),
       sigma2=st.lists(st.floats(0.1, 4.0), min_size=4, max_size=4), seed=seeds,
       data=st.data())
def test_llse_with_perfect_estimate_leaves_residual_noise(m, rho, sigma2, seed, data):
    model = ChannelModel(m=m, sigma2=np.array(sigma2[:m]), power=np.ones(m),
                         corr=build_gm_model(m, rho, 1.0).corr)
    i, j = data.draw(st.permutations(range(m)), label="source, target")[:2]
    rng = np.random.default_rng(seed)
    z = sample_noise(model, 32, rng).samples
    x = modulate_bpsk(rng.integers(0, 2, size=(m, 32)))
    rho_ij = model.corr[i, j] * np.sqrt(model.sigma2[j] / model.sigma2[i])
    residual = z[j] - rho_ij * z[i]
    perfect = NoiseEstimate(z[i], source_channel=i)
    assert np.array_equal(llse_update(z[j], perfect, model, j), residual)
    # on a received word the only extra error is rounding the symbol in and out
    recycled = llse_update(x[j] + z[j], perfect, model, j)
    assert np.allclose(recycled - x[j], residual, rtol=0.0, atol=1e-12)


@st.composite
def tied_graphs(draw):
    """A recycle graph on 2..5 channels whose weights come from four dyadic
    values, so many plans tie and every total is an exact sum; a cross
    edge may be absent."""
    m = draw(st.integers(2, 5))
    w = np.full((m + 1, m + 1), np.nan)
    for i in range(m + 1):
        for j in range(1, m + 1):
            if i != j:
                w[i, j] = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0] + [np.nan] * (i > 0)))
    return RecycleGraph(w)


@given(tied_graphs())
def test_max_arborescence_total_equals_brute_force_under_ties(graph):
    plan, best = max_arborescence(graph), brute_force_plan(graph)
    edges = [graph.weights[p, ch] for ch, p in enumerate(plan.parent, start=1)]
    assert not np.isnan(edges).any()  # RecyclingPlan itself rejects cycles
    assert plan.total_snr == sum(edges) == best.total_snr


@given(st.integers(2, 5), st.floats(-0.95, 0.95), st.floats(0.05, 20.0))
def test_max_arborescence_total_near_brute_force_on_gauss_markov(m, rho, sigma2):
    # Gauss-Markov weights tie only up to rounding, so the solver may pick
    # another of the tied plans, but never one that is worse by more than
    # rounding
    graph = build_recycle_graph(build_gm_model(m, rho, sigma2))
    plan, best = max_arborescence(graph), brute_force_plan(graph)
    assert plan.total_snr == pytest.approx(best.total_snr, rel=1e-12, abs=0)


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
