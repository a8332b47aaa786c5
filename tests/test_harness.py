import json
import math
import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from noisecycle import (BlerPoint, ExperimentConfig, OrbgrandDecoder, SweepSpec, emit_csv,
                        run_bler_sweep, run_trial, wilson_interval)
from noisecycle import harness
from noisecycle.channel import ebn0_to_sigma2, modulate_bpsk, sample_noise
from noisecycle.gf2 import crc_encode, encode
from noisecycle.harness import (WORKERS_ENV, _payload_bits, _raw_count, _run_batch,
                                _trial_states, csv_text, output_target, parse_csv,
                                worker_count)
from noisecycle.ordering import (build_recycle_graph, constrain_root_child,
                                 max_arborescence, plan_for)


def tiny_config(**overrides):
    base = dict(
        channel={"m": 2, "mode": "gm", "rho": 0.6},
        codes=({"type": "rlc", "n": 32, "k": 26, "seed": 1},
               {"type": "rlc", "n": 32, "k": 26, "seed": 2}),
        decoders=({"type": "orbgrand", "max_queries": 2000},) * 2,
        pipeline={"mode": "independent"},
        sweep=SweepSpec(ebn0_db=(5.0,), min_trials=200, max_trials=400,
                        min_block_errors=5),
        base_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture
def submitted(monkeypatch):
    """Every task a sweep submits to its pool, as (args, kwargs, future)."""
    tasks = []

    class RecordingPool(harness.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            tasks.append((args, kwargs, future))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return tasks


@dataclass(frozen=True)
class RaisingDecoder:
    """ORBGRAND that raises on any block whose noise variance is below
    ``floor``: a decoder fault at the high-SNR points of a sweep."""

    floor: float

    def decode_batch(self, code, received, variances):
        if (variances < self.floor).any():
            raise RuntimeError("decoder fault")
        return OrbgrandDecoder(2000).decode_batch(code, received, variances)


class TestRunTrial:
    def test_deterministic_repeats(self):
        config = tiny_config()
        a = run_trial(config, 0, 11)
        b = run_trial(config, 0, 11)
        assert a.correct == b.correct
        assert a.queries_spent == b.queries_spent
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.status == ob.status
            if oa.codeword is not None:
                assert np.array_equal(oa.codeword, ob.codeword)

    def test_distinct_trials_differ(self):
        config = tiny_config()
        blocks = set()
        for t in range(4):
            first = run_trial(config, 0, t).outcomes[0]
            blocks.add((first.codeword.tobytes(), first.noise_nll))
        assert len(blocks) == 4

    def test_noiseless_limit_decodes_everything(self):
        config = tiny_config(sweep=SweepSpec(ebn0_db=(60.0,), min_trials=1000,
                                             max_trials=1000,
                                             min_block_errors=10**9))
        points = run_bler_sweep(config)
        assert all(p.block_errors == 0 for p in points)
        assert all(p.trials == 1000 for p in points)

    def test_marginal_distribution_matches_single_channel(self):
        # strongly correlated two-channel noise leaves each channel's own
        # BLER at its single-channel value
        pair = tiny_config(
            channel={"m": 2, "mode": "gm", "rho": 0.9},
            codes=({"type": "rlc", "n": 32, "k": 26, "seed": 1},) * 2,
            sweep=SweepSpec(ebn0_db=(4.0,), min_trials=6000, max_trials=6000,
                            min_block_errors=10**9),
        )
        single = tiny_config(
            channel={"m": 1, "mode": "gm", "rho": 0.0},
            codes=({"type": "rlc", "n": 32, "k": 26, "seed": 1},),
            decoders=({"type": "orbgrand", "max_queries": 2000},),
            sweep=SweepSpec(ebn0_db=(4.0,), min_trials=6000, max_trials=6000,
                            min_block_errors=10**9),
        )
        p_pair = run_bler_sweep(pair)
        p_single = run_bler_sweep(single)
        for point in p_pair:
            diff = abs(point.bler - p_single[0].bler)
            se = np.sqrt(2 * max(p_single[0].bler, 1e-4)
                         * (1 - p_single[0].bler) / 6000)
            assert diff < 3.5 * se


class TestTrialStream:
    """A trial's stream is ``rng.integers(0, 2, size=k_j, dtype=np.uint8)``
    for each channel j in turn, then ``sample_noise``; the harness reads the
    payloads in bulk and must reproduce those calls bit for bit."""

    def test_bulk_payload_bits_equal_integers_calls(self):
        sizes_rng = np.random.default_rng(8)
        lists = [[1], [4], [5], [1, 1, 1], [4, 4], [3, 5], [110] * 4, [112] * 4,
                 [1, 5, 13, 38, 110]]
        lists += [sizes_rng.integers(1, 130, size=sizes_rng.integers(1, 7)).tolist()
                  for _ in range(300)]
        parities = set()
        for seed, sizes in enumerate(lists):
            parities.add(sum(-(-k // 4) for k in sizes) % 2)
            drawn, bulk = np.random.default_rng((7, seed)), np.random.default_rng((7, seed))
            expected = [drawn.integers(0, 2, size=k, dtype=np.uint8) for k in sizes]
            got = _payload_bits(bulk.bit_generator.random_raw(_raw_count(sizes)), sizes)
            assert len(got) == len(sizes)
            for want, have in zip(expected, got):
                assert have.dtype == np.uint8 and np.array_equal(have, want)
            # the normal draws that follow read the same state
            assert np.array_equal(bulk.standard_normal((3, 5)), drawn.standard_normal((3, 5)))
        assert parities == {0, 1}  # odd word totals leave a spare half unread

    def test_batch_seeding_equals_default_rng(self):
        # entropy of every length: 0 is one word, values of 2^32 or more two
        # or three, more words than SeedSequence's pool of four, and ranges
        # across 2^32 and 2^64 whose trials change length mid-batch
        for base_seed in (0, 1, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3):
            for point in (0, 3, 2**32 + 1):
                for start in (0, 29, 2**32 - 3, 2**64 - 2):
                    states = _trial_states(base_seed, point, start, start + 5)
                    for t, (state, inc) in zip(range(start, start + 5), states, strict=True):
                        want = np.random.default_rng((base_seed, point, t)).bit_generator.state
                        assert want["state"] == {"state": state, "inc": inc}
                        assert want["has_uint32"] == want["uinteger"] == 0
        assert _trial_states(4, 0, 7, 7) == []

    # (n, k, CRC polynomial): payloads of 1, 5, 13, 38 and 110 bits
    CODES = [(128, 1, None), (128, 8, "1011"), (128, 13, None), (128, 46, "100000111"),
             (128, 110, None)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_batches_equal_the_per_trial_stream(self, m):
        codes = [self.CODES[(m + j) % 5] for j in range(m)]
        config = ExperimentConfig(
            channel={"m": m, "mode": "gm", "rho": 0.6},
            codes=tuple({"type": "rlc", "n": n, "k": k, "seed": 3 + j,
                         **({"crc_polynomial": poly} if poly else {})}
                        for j, (n, k, poly) in enumerate(codes)),
            decoders=({"type": "orbgrand", "max_queries": 1},) * m,
            pipeline={"mode": "independent"},
            sweep=SweepSpec(ebn0_db=(1.0, 4.0)),
            base_seed=9,
        )
        built, model = config._codes, config._models[1]
        for start, rows in [(0, 1), (5, 7), (40, 32)]:
            batch = _run_batch(config, 1, start, start + rows)
            for row, t in enumerate(range(start, start + rows)):
                rng = np.random.default_rng((9, 1, t))
                payloads = [rng.integers(0, 2, size=c.payload_bits, dtype=np.uint8)
                            for c in built]
                noise = sample_noise(model, 128, rng).samples
                sent = [encode(c, crc_encode(c.crc, p) if c.crc else p)
                        for c, p in zip(built, payloads)]
                assert np.array_equal(batch.sent[row], sent)
                assert np.array_equal(batch.received[row], noise + modulate_bpsk(sent))


class TestStaticPlanChoice:
    """The plan a static sweep decodes with, as set by the pipeline JSON."""

    def _config(self, pipeline):
        return tiny_config(
            channel={"m": 3, "mode": "gm", "rho": 0.6},
            codes=tuple({"type": "rlc", "n": 32, "k": 26, "seed": s} for s in (1, 2, 3)),
            decoders=({"type": "orbgrand", "max_queries": 2000},) * 3,
            pipeline=pipeline)

    def _check_trials(self, config, plan):
        assert config._pipelines[0].plan == plan
        for t in range(5):
            assert run_trial(config, 0, t).lead_channel == plan.order[0] - 1

    def test_pinned_parents(self):
        config = self._config({"mode": "static", "parents": [3, 3, 0]})
        model = config._models[0]
        plan = config._pipelines[0].plan
        w = build_recycle_graph(model).weights
        assert plan.parent == (3, 3, 0)
        assert plan.order == (3, 1, 2)
        assert plan.total_snr == float(w[3, 1] + w[3, 2] + w[0, 3])
        assert plan == plan_for(model, parents=(3, 3, 0))
        self._check_trials(config, plan)

    def test_forced_lead(self):
        config = self._config({"mode": "static", "forced_lead": 3})
        model = config._models[0]
        want = max_arborescence(constrain_root_child(build_recycle_graph(model), 3))
        assert want.children_of(0) == [3]
        assert want == plan_for(model, forced_lead=3)
        self._check_trials(config, want)


class TestSweepControl:
    def test_stops_at_max_trials_when_error_free(self):
        config = tiny_config(sweep=SweepSpec(ebn0_db=(60.0,), min_trials=100,
                                             max_trials=700,
                                             min_block_errors=50))
        points = run_bler_sweep(config)
        assert all(p.trials == 700 for p in points)
        assert all(p.bler == 0.0 for p in points)

    def test_stops_once_errors_collected(self):
        config = tiny_config(sweep=SweepSpec(ebn0_db=(2.0,), min_trials=100,
                                             max_trials=100_000,
                                             min_block_errors=10))
        points = run_bler_sweep(config)
        assert all(p.block_errors >= 10 for p in points)
        assert all(p.trials < 100_000 for p in points)

    def test_same_seed_same_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_bler_sweep(tiny_config(), output_path=out1)
        run_bler_sweep(tiny_config(), output_path=out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_changes_results(self):
        a = run_bler_sweep(tiny_config())
        b = run_bler_sweep(tiny_config(base_seed=4))
        assert any(pa.mean_queries != pb.mean_queries for pa, pb in zip(a, b))

    def test_points_stopping_at_different_rounds(self, tmp_path):
        # doubling rounds of 50, 100, 200 and 400 trials: 6 dB never collects
        # its errors, 2 dB has them at the first round and 4 dB at the third,
        # so with more than one worker the points' segments interleave
        config = tiny_config(sweep=SweepSpec(ebn0_db=(6.0, 2.0, 4.0), min_trials=50,
                                             max_trials=400, min_block_errors=5))
        outputs = set()
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}.csv"
            points = run_bler_sweep(config, workers=workers, output_path=out)
            assert [p.trials for p in points if p.channel == 1] == [400, 50, 200]
            outputs.add((out.read_bytes(), Path(f"{out}.meta.json").read_bytes()))
        assert len(outputs) == 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_tasks_carry_only_a_point_and_a_trial_range(self, workers, submitted):
        config = tiny_config(sweep=SweepSpec(ebn0_db=(6.0, 2.0, 4.0), min_trials=50,
                                             max_trials=400, min_block_errors=5))
        points = run_bler_sweep(config, workers=workers)
        assert submitted and all(not kwargs and len(args) == 3 and
                                 all(type(a) is int for a in args)
                                 for args, kwargs, _ in submitted)
        for p, ebn0 in enumerate(config.sweep.ebn0_db):
            ranges = sorted((start, stop) for (q, start, stop), _, _ in submitted if q == p)
            trials = next(x.trials for x in points if x.ebn0_db == ebn0)
            assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
            assert ranges[-1][1] == trials

    def test_worker_error_reaches_caller_and_stops_the_pool(self, submitted):
        # the first point fails on its first range, with every other point's
        # first segment queued behind it
        config = tiny_config(sweep=SweepSpec(ebn0_db=(8.0, 3.0, 3.25, 3.5, 3.75, 4.0),
                                             min_trials=400, max_trials=800,
                                             min_block_errors=10_000))
        floor = ebn0_to_sigma2(6.0, 26 / 32)
        object.__setattr__(config, "_decoders", (RaisingDecoder(floor),) * 2)
        with pytest.raises(RuntimeError, match="decoder fault"):
            run_bler_sweep(config, workers=2)
        assert multiprocessing.active_children() == []
        assert any(future.cancelled() for _, _, future in submitted)

    def test_worker_count_does_not_change_results(self, tmp_path):
        # built plans and settings reach each worker once, through the pool's
        # initializer, and the totals do not depend on which range ends first
        dynamic = {"mode": "dynamic", "confidence_metric": "noise_nll", "rerecycle": True}
        bp_ldpc = dict(  # BP builds each code's Tanner layout in the process that decodes
            codes=tuple({"type": "ldpc", "n": 48, "col_weight": 3, "row_weight": 6,
                         "seed": seed, "crc_polynomial": "10011"} for seed in (1, 2)),
            decoders=({"type": "bp", "max_iters": 20},) * 2, pipeline=dynamic,
            sweep=SweepSpec(ebn0_db=(1.5, 2.5), min_trials=60, max_trials=240,
                            min_block_errors=10))
        # 250 and 500 trials over 3 workers: chunks of 83 to 167 trials cut
        # through the harness's batches
        static_m4 = dict(
            channel={"m": 4, "mode": "gm", "rho": 0.6},
            codes=tuple({"type": "rlc", "n": 32, "k": 26, "seed": seed} for seed in range(1, 5)),
            decoders=({"type": "orbgrand", "max_queries": 2000},) * 4,
            pipeline={"mode": "static"},
            sweep=SweepSpec(ebn0_db=(3.0, 4.0), min_trials=250, max_trials=500,
                            min_block_errors=10))
        for name, overrides in (
                ("independent", {"pipeline": {"mode": "independent"}}),
                ("pinned", {"pipeline": {"mode": "static", "parents": [2, 0]}}),
                ("dynamic", {"pipeline": dynamic}),
                ("bp", bp_ldpc),
                ("static-m4", static_m4)):
            outputs = set()
            for workers in (1, 2, 3):
                out = tmp_path / f"{name}{workers}.csv"
                run_bler_sweep(tiny_config(**overrides), workers=workers, output_path=out)
                outputs.add((out.read_bytes(), Path(f"{out}.meta.json").read_bytes()))
            assert len(outputs) == 1


class TestCsv:
    POINT = BlerPoint(ebn0_db=4.0, channel=1, mode="static", trials=1000,
                      block_errors=12, bler=0.012, mean_queries=35.25,
                      lead_fraction=1.0)

    def test_single_point_two_lines(self, tmp_path):
        path = emit_csv([self.POINT], tmp_path / "one.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("ebn0_db,channel,mode")

    def test_round_trip(self):
        points = [self.POINT,
                  BlerPoint(ebn0_db=4.5, channel=2, mode="static", trials=2000,
                            block_errors=7, bler=0.0035, mean_queries=12.5,
                            lead_fraction=0.0)]
        again = parse_csv(csv_text(points))
        assert again == sorted(points, key=lambda p: (p.ebn0_db, p.channel))

    def test_rows_sorted_after_shuffle(self, rng):
        points = [BlerPoint(ebn0_db=float(db), channel=ch, mode="independent",
                            trials=10, block_errors=0, bler=0.0,
                            mean_queries=1.0, lead_fraction=0.0)
                  for db in (3.0, 1.0, 2.0) for ch in (2, 1)]
        rng.shuffle(points)
        rows = csv_text(points).splitlines()[1:]
        keys = [(float(r.split(",")[0]), int(r.split(",")[1])) for r in rows]
        assert keys == sorted(keys)

    def test_six_significant_digits(self):
        point = BlerPoint(ebn0_db=4.123456789, channel=1, mode="m", trials=3,
                          block_errors=1, bler=1 / 3, mean_queries=2.0 / 3,
                          lead_fraction=0.0)
        row = csv_text([point]).splitlines()[1]
        assert row.split(",")[0] == "4.12346"
        assert row.split(",")[5] == "0.333333"

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            csv_text([])


class TestSidecar:
    def test_sigma2_matches_rate_formula(self, tmp_path):
        out = tmp_path / "run.csv"
        config = tiny_config()
        run_bler_sweep(config, output_path=out)
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        rate = 26 / 32
        assert meta["sigma2"]["5"] == pytest.approx(
            [ebn0_to_sigma2(5.0, rate)] * 2)
        assert meta["sigma2"]["5"] == pytest.approx(
            meta["ebn0_to_sigma2_by_rate"]["5"])
        assert meta["config_sha256"] == config.sha256()

    def test_csv_written_atomically_no_temp_left(self, tmp_path):
        run_bler_sweep(tiny_config(), output_path=tmp_path / "run.csv")
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".")]
        assert leftovers == []


class TestValidation:
    RAW = {
        "channel": {"m": 1, "mode": "gm", "rho": 0.0},
        "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1}],
        "decoders": [{"type": "orbgrand", "max_queries": 2000}],
        "sweep": {"ebn0_db": [3.0], "min_trials": 7},
    }

    def test_from_dict_reads_known_keys(self):
        config = ExperimentConfig.from_dict(self.RAW)
        assert config.sweep.min_trials == 7
        assert config.pipeline == {}

    def test_unknown_sweep_key_named(self):
        raw = json.loads(json.dumps(self.RAW))
        raw["sweep"]["min_trial"] = raw["sweep"].pop("min_trials")
        with pytest.raises(ValueError, match="'min_trial'"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_top_level_key_named(self):
        raw = dict(self.RAW, base_sed=4)
        with pytest.raises(ValueError, match="'base_sed'"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("where, bad, pattern", [
        ("codes", {"crc_poly": "111"}, r"channel 1: unknown rlc code key\(s\) 'crc_poly'"),
        ("decoders", {"max_querys": 5}, r"channel 1: unknown orbgrand decoder key\(s\) 'max_querys'"),
        ("pipeline", {"rerecylce": True}, r"unknown pipeline key\(s\) 'rerecylce'"),
        ("channel", {"rh0": 0.5}, r"unknown gm channel key\(s\) 'rh0'"),
    ])
    def test_unknown_descriptor_key_named(self, where, bad, pattern):
        raw = json.loads(json.dumps(self.RAW))
        raw["pipeline"] = {"mode": "independent"}
        if isinstance(raw[where], list):
            raw[where][0].update(bad)
        else:
            raw[where].update(bad)
        with pytest.raises(ValueError, match=pattern):
            ExperimentConfig.from_dict(raw)

    def test_missing_top_level_key_named(self):
        raw = {"channel": {"m": 1}, "codes": [{}], "decoders": [{}]}
        with pytest.raises(ValueError, match="experiment is missing key.*'sweep'"):
            ExperimentConfig.from_dict(raw)

    def test_missing_sweep_key_named(self):
        raw = dict(self.RAW, sweep={"min_trials": 7})
        with pytest.raises(ValueError, match="sweep is missing key.*'ebn0_db'"):
            ExperimentConfig.from_dict(raw)

    def test_missing_descriptor_key_named(self):
        raw = dict(self.RAW, decoders=[{"type": "orbgrand"}])
        with pytest.raises(ValueError, match=r"channel 1: orbgrand decoder is missing key.*'max_queries'"):
            ExperimentConfig.from_dict(raw)

    def test_bad_decoder_limit_fails_at_construction(self):
        with pytest.raises(ValueError, match=r"channel 2: max_iters must be >= 1"):
            tiny_config(decoders=({"type": "orbgrand", "max_queries": 2000},
                                  {"type": "bp", "max_iters": 0}))

    STATIC = {
        "channel": {"m": 2, "mode": "gm", "rho": 0.6},
        "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1},
                  {"type": "rlc", "n": 32, "k": 26, "seed": 2}],
        "decoders": [{"type": "orbgrand", "max_queries": 2000}] * 2,
        "pipeline": {"mode": "static"},
        "sweep": {"ebn0_db": [3.0], "min_trials": 10},
    }
    RHO_ONE = {"m": 2, "mode": "explicit", "corr": [[1.0, 1.0], [1.0, 1.0]]}

    @staticmethod
    def _edited(raw, edits):
        """A copy of ``raw`` with each key path in ``edits`` set to its value."""
        raw = json.loads(json.dumps(raw))
        for (*steps, key), value in edits.items():
            target = raw
            for step in steps:
                target = target[step]
            target[key] = value
        return raw

    @pytest.mark.parametrize("edits, pattern", [
        # late or wrongly typed failures
        ({("codes", 0): {"type": "alist", "alist_path": "missing.alist"}},
         r"channel 1: cannot read alist_path 'missing.alist'"),
        ({("pipeline", "parents"): [5, 5]},
         r"parents must list one entry in \[0, 2\] for each of the 2 channels"),
        ({("pipeline", "forced_lead"): 7}, r"forced_lead must be a channel in \[1, 2\], got 7"),
        ({("channel",): RHO_ONE,
          ("pipeline",): {"mode": "dynamic", "confidence_metric": "noise_nll"}},
         r"channels 1 and 2 have \|rho\| = 1"),
        ({("channel",): RHO_ONE}, r"channels 1 and 2 have \|rho\| = 1"),
        ({("channel", "m"): 1, ("codes",): STATIC["codes"][:1],
          ("decoders",): STATIC["decoders"][:1],
          ("pipeline",): {"mode": "dynamic", "confidence_metric": "query_count"}},
         r"dynamic recycling needs at least two channels"),
        # value types
        ({("decoders", 1, "max_queries"): 2.5},
         r"channel 2: max_queries must be an integer, got 2.5"),
        ({("decoders", 0, "max_queries"): True}, r"channel 1: max_queries must be an integer"),
        ({("codes", 0, "n"): 32.0}, r"channel 1: n must be an integer"),
        ({("codes", 1, "seed"): "2"}, r"channel 2: seed must be an integer"),
        ({("codes", 0, "crc_polynomial"): 111}, r"channel 1: crc_polynomial must be a string"),
        ({("channel", "m"): 2.0}, r"m must be an integer"),
        ({("pipeline", "rerecycle"): "false"}, r"rerecycle must be true or false, got 'false'"),
        ({("pipeline", "genie"): 1}, r"genie must be true or false"),
        ({("pipeline", "forced_lead"): 1.0}, r"forced_lead must be an integer"),
        ({("pipeline", "parents"): [0, True]}, r"parents entry must be an integer"),
        ({("pipeline", "parents"): 0}, r"parents must be a list"),
        ({("sweep", "min_trials"): 7.5}, r"min_trials must be an integer, got 7.5"),
        ({("base_seed",): 1.5}, r"base_seed must be an integer"),
        ({("base_seed",): False}, r"base_seed must be an integer"),
        # settings a mode never reads
        ({("pipeline", "confidence_metric"): "noise_nll"},
         r"static pipeline does not read key\(s\) 'confidence_metric'"),
        ({("pipeline",): {"mode": "dynamic", "confidence_metric": "noise_nll", "forced_lead": 1}},
         r"dynamic pipeline does not read key\(s\) 'forced_lead'"),
        ({("pipeline",): {"mode": "dynamic", "confidence_metric": "noise_nll", "parents": [0, 1]}},
         r"dynamic pipeline does not read key\(s\) 'parents'"),
        ({("pipeline",): {"mode": "independent", "rerecycle": False, "genie": False}},
         r"independent pipeline does not read key\(s\) 'rerecycle', 'genie'"),
        ({("pipeline",): {"parents": [0, 0]}},
         r"independent pipeline does not read key\(s\) 'parents'"),
        ({("pipeline", "mode"): "greedy"}, r"pipeline key 'mode' must be one of .*got 'greedy'"),
        # codes that cannot be built
        ({("codes", 1, "k"): 40}, r"channel 2: need 0 < k <= n"),
        ({("codes", 0, "crc_polynomial"): "1002"}, r"channel 1: polynomial must be a bit string"),
        ({("codes", 0): {"type": "ldpc", "n": 32, "col_weight": 3, "row_weight": 5, "seed": 1}},
         r"channel 1: n \* col_weight must be divisible by row_weight"),
        # numbers
        ({("sweep", "ebn0_db"): "35"}, r"ebn0_db must be a list, got '35'"),
        ({("sweep", "ebn0_db"): 3.0}, r"ebn0_db must be a list, got 3.0"),
        ({("sweep", "ebn0_db"): ["4"]}, r"ebn0_db entry must be a number, got '4'"),
        ({("sweep", "ebn0_db"): [3.0, True]}, r"ebn0_db entry must be a number, got True"),
        ({("channel", "rho"): True}, r"rho must be a number, got True"),
        ({("channel", "rho"): "0.6"}, r"rho must be a number, got '0.6'"),
        ({("channel",): {"m": 2, "mode": "explicit", "corr": [[1.0, "0.5"], [0.5, 1.0]]}},
         r"corr entry must be a number, got '0.5'"),
        ({("channel",): {"m": 2, "mode": "explicit", "corr": [1.0, 0.5]}},
         r"corr entry must be a list, got 1.0"),
        ({("channel", "sigma2"): "1.0"}, r"sigma2 must be a number, got '1.0'"),
        ({("channel", "sigma2"): [1.0, False]}, r"sigma2 entry must be a number, got False"),
        ({("channel", "power"): True}, r"power must be a number, got True"),
        ({("channel", "power"): [1.0, "2"]}, r"power entry must be a number, got '2'"),
        # sections of the wrong shape
        ({("channel",): 5}, r"channel must be an object, got 5"),
        ({("sweep",): [1]}, r"sweep must be an object, got \[1\]"),
        ({("pipeline",): "static"}, r"pipeline must be an object, got 'static'"),
        ({("codes",): 3}, r"codes must be a list, got 3"),
        ({("codes", 1): [32, 26]}, r"codes entry must be an object, got \[32, 26\]"),
        ({("decoders",): {"type": "orbgrand"}}, r"decoders must be a list, got \{'type'"),
        ({("decoders", 0): "orbgrand"}, r"decoders entry must be an object, got 'orbgrand'"),
        ({("output_path",): 5}, r"output_path must be a string, got 5"),
        # JSON's NaN and Infinity are numbers to Python, but not usable ones
        ({("sweep", "ebn0_db"): [math.nan]}, r"ebn0_db entry must be finite, got nan"),
        ({("sweep", "ebn0_db"): [3.0, -math.inf]}, r"ebn0_db entry must be finite, got -inf"),
        ({("channel", "rho"): math.nan}, r"rho must be finite, got nan"),
        ({("channel",): {"m": 2, "mode": "explicit", "corr": [[1.0, math.nan], [0.5, 1.0]]}},
         r"corr entry must be finite, got nan"),
        ({("channel", "sigma2"): [math.nan, 1.0]}, r"sigma2 entry must be finite, got nan"),
        ({("channel", "sigma2"): math.inf}, r"sigma2 must be finite, got inf"),
        ({("channel", "power"): [math.inf, 1.0]}, r"power entry must be finite, got inf"),
        # values of the right type that cannot be used (appended, so the rows
        # above keep their ids): a negative seed, an LDPC weight below 1, BP
        # on a code without a sparse parity check
        ({("base_seed",): -1}, r"base_seed must be >= 0, got -1"),
        ({("codes", 0): {"type": "ldpc", "n": 12, "col_weight": 3, "row_weight": 0, "seed": 1}},
         r"channel 1: row_weight must be >= 1, got 0"),
        ({("codes", 0): {"type": "ldpc", "n": 12, "col_weight": 0, "row_weight": 6, "seed": 1}},
         r"channel 1: col_weight must be >= 1, got 0"),
        ({("codes", 0): {"type": "ldpc", "n": 12, "col_weight": -3, "row_weight": -6, "seed": 1}},
         r"channel 1: col_weight must be >= 1, got -3"),
        ({("codes", 0): {"type": "ldpc", "n": 12, "col_weight": 3, "row_weight": -6, "seed": 1}},
         r"channel 1: row_weight must be >= 1, got -6"),
        ({("codes", 0): {"type": "ldpc", "n": 12, "col_weight": 3, "row_weight": 6, "seed": -1}},
         r"channel 1: seed must be >= 0, got -1"),
        ({("codes", 1, "seed"): -2}, r"channel 2: seed must be >= 0, got -2"),
        ({("decoders", 1): {"type": "bp"}},
         r"channel 2: a bp decoder needs a code with a sparse parity check"),
        # pinned parents already fix the lead, so a forced_lead beside them
        # would be read by nothing
        ({("pipeline",): {"mode": "static", "parents": [0, 1], "forced_lead": 2}},
         r"forced_lead and parents cannot both be given"),
    ])
    def test_bad_input_fails_at_construction(self, edits, pattern, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=pattern):
            ExperimentConfig.from_dict(self._edited(self.STATIC, edits))

    def test_independent_mode_accepts_unit_correlation(self):
        raw = self._edited(self.STATIC, {("channel",): self.RHO_ONE,
                                         ("pipeline",): {"mode": "independent"}})
        assert run_trial(ExperimentConfig.from_dict(raw), 0, 0).lead_channel is None

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert worker_count() == 3
        assert worker_count(2) == 2

    def test_bad_worker_env_named(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(ValueError, match=f"{WORKERS_ENV}.*'abc'"):
            worker_count()

    def test_channel_count_mismatch(self):
        with pytest.raises(ValueError):
            tiny_config(codes=({"type": "rlc", "n": 32, "k": 26, "seed": 1},))

    def test_empty_sweep(self):
        with pytest.raises(ValueError):
            SweepSpec(ebn0_db=())

    def test_bad_error_floor(self):
        with pytest.raises(ValueError):
            SweepSpec(ebn0_db=(1.0,), min_block_errors=0)

    @pytest.mark.parametrize("counts, pattern", [
        ({"min_trials": 10.5}, r"min_trials must be an integer, got 10.5"),
        ({"max_trials": True}, r"max_trials must be an integer, got True"),
        ({"min_block_errors": 5.0}, r"min_block_errors must be an integer, got 5.0"),
    ])
    def test_sweep_counts_must_be_integers(self, counts, pattern):
        with pytest.raises(ValueError, match=pattern):
            SweepSpec(ebn0_db=(1.0,), **counts)

    @pytest.mark.parametrize("points, pattern", [
        (("3",), r"ebn0_db entry must be a number, got '3'"),
        ((3.0, math.nan), r"ebn0_db entry must be finite, got nan"),
        ((-math.inf,), r"ebn0_db entry must be finite, got -inf"),
        ("3", r"ebn0_db must be a list, got '3'"),
    ])
    def test_sweep_points_must_be_finite_numbers(self, points, pattern):
        with pytest.raises(ValueError, match=pattern):
            SweepSpec(ebn0_db=points)

    def test_sweep_points_become_a_float_tuple(self):
        assert SweepSpec(ebn0_db=[3, 4.5]).ebn0_db == (3.0, 4.5)

    @pytest.mark.parametrize("points, pattern", [
        ((3.0, 3.0000001), r"ebn0_db entry 3.0000001 prints as 3, as the entry 3.0 does"),
        ((2.0, 3.0, 2), r"ebn0_db entry 2.0 prints as 2, as the entry 2.0 does"),
        ((1.0, 12345678.0, 12345679.0), r"ebn0_db entry 12345679.0 prints as 1.23457e\+07"),
    ])
    def test_sweep_points_that_print_alike_rejected(self, points, pattern):
        # the CSV rows and the sidecar's keys could not tell them apart
        with pytest.raises(ValueError, match=pattern):
            SweepSpec(ebn0_db=points)

    def test_points_that_print_apart_keep_their_config_hash(self):
        sweep = SweepSpec(ebn0_db=(6.0, 2.0, 4.0), min_trials=50, max_trials=400,
                          min_block_errors=5)
        assert SweepSpec(ebn0_db=(0.0, -0.0, 1e-7)).ebn0_db == (0.0, -0.0, 1e-7)
        assert tiny_config().sha256() == (
            "3ff8e39d1e02475b57701c7f0d1b8f9410b38b8e5c443e425ae4077f369f5734")
        assert tiny_config(sweep=sweep).sha256() == (
            "f5e964d0e90bccca1a592a44641b6b161ad591fdeadae2a3dd6469b123a6f05f")

    @pytest.mark.parametrize("where", ["argument", "config", "sidecar"])
    def test_directory_output_path_rejected_before_any_trial(self, where, tmp_path,
                                                             monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_run_range", no_trials)
        csv = tmp_path / "out.csv"
        if where == "sidecar":
            Path(f"{csv}.meta.json").mkdir()
        target = tmp_path if where != "sidecar" else csv
        config = tiny_config(output_path=str(target) if where == "config" else None)
        with pytest.raises(ValueError, match=r"^output_path .* is a directory"):
            run_bler_sweep(config, output_path=None if where == "config" else target)
        assert sorted(tmp_path.iterdir()) == ([] if where != "sidecar"
                                              else [Path(f"{csv}.meta.json")])

    @pytest.mark.parametrize("where", ["argument", "config"])
    @pytest.mark.parametrize("below", ["out.csv", "sub/dir/out.csv"])
    def test_output_path_under_a_file_rejected_before_any_trial(self, where, below,
                                                               tmp_path, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_run_range", no_trials)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        target = afile / below
        config = tiny_config(output_path=str(target) if where == "config" else None)
        with pytest.raises(ValueError, match=r"^output_path .* lies under .*afile', "
                                             r"which is not a directory"):
            run_bler_sweep(config, output_path=None if where == "config" else target)
        assert sorted(tmp_path.iterdir()) == [afile] and afile.read_text() == "kept\n"
        # directories that do not exist yet are made when the sweep writes
        fresh = tmp_path / "new" / below
        assert output_target(config, fresh) == fresh
        assert output_target(tiny_config(output_path="out.csv")) == "out.csv"

    def test_mixed_code_lengths_rejected(self):
        with pytest.raises(ValueError, match="one code length"):
            tiny_config(codes=({"type": "rlc", "n": 32, "k": 26, "seed": 1},
                               {"type": "rlc", "n": 16, "k": 11, "seed": 2}))


class TestWilson:
    def test_halfwidth_shrinks_with_trials(self):
        widths = []
        for trials in (100, 1000, 10_000):
            lo, hi = wilson_interval(trials // 10, trials)
            widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2]

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 50)
        assert lo < 7 / 50 < hi

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(20, 20)
        assert hi == 1.0 and lo < 1.0

    @pytest.mark.parametrize("errors, trials", [(5, 3), (-1, 10)])
    def test_errors_outside_trials_rejected(self, errors, trials):
        with pytest.raises(ValueError, match=rf"errors must lie in \[0, {trials}\], got {errors}"):
            wilson_interval(errors, trials)
