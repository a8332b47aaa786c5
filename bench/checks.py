"""Correctness checks on a workload's outputs.

Every check compares against arithmetic done here (own syndromes, own CRC
long division, own encoding, own likelihoods, own Wilson intervals) or
against a property the method must have; none compares against stored
output.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import doubling_schedule

# |z| limit for the pooled recycled-residual variance.  Under a correct
# program the statistic is standard normal, so a 3-SE limit would fail
# 0.27% of all runs by chance; 4 SE fails 0.006%.
RESIDUAL_Z_LIMIT = 4.0


# ---------------------------------------------------------------------------
# sweep output (one round's BlerPoints)
# ---------------------------------------------------------------------------

def sweep_points(raw: dict, world, points) -> list[str]:
    """Trial counts, BLERs and lead fractions of one round."""
    problems = []
    sweep = raw["sweep"]
    schedule = doubling_schedule(sweep)
    grid = [float(x) for x in sweep["ebn0_db"]]
    mode = raw["pipeline"].get("mode", "independent")
    if len(points) != len(grid) * world.m:
        return [f"expected {len(grid) * world.m} points, got {len(points)}"]
    for p_idx, ebn0 in enumerate(grid):
        rows = sorted((p for p in points if p.ebn0_db == ebn0), key=lambda p: p.channel)
        if [p.channel for p in rows] != list(range(1, world.m + 1)):
            problems.append(f"{ebn0} dB: channels {[p.channel for p in rows]}")
            continue
        trials = {p.trials for p in rows}
        if len(trials) != 1:
            problems.append(f"{ebn0} dB: channels disagree on trials {sorted(trials)}")
            continue
        t = trials.pop()
        if t not in schedule:
            problems.append(f"{ebn0} dB: {t} trials is off the schedule {schedule}")
        reached = all(p.block_errors >= sweep["min_block_errors"] for p in rows)
        if t < sweep["max_trials"] and not reached:
            problems.append(f"{ebn0} dB: stopped at {t} trials short of "
                            f"{sweep['min_block_errors']} errors per channel")
        for p in rows:
            if p.bler != p.block_errors / p.trials:
                problems.append(f"{ebn0} dB ch{p.channel}: bler {p.bler} != "
                                f"{p.block_errors}/{p.trials}")
        leads = [p.lead_fraction for p in rows]
        if mode == "static":
            lead = world.plan(p_idx).order[0]
            want = [1.0 if ch == lead else 0.0 for ch in range(1, world.m + 1)]
            if leads != want:
                problems.append(f"{ebn0} dB: lead fractions {leads}, plan lead "
                                f"is channel {lead}")
        elif mode == "dynamic":
            if min(leads) < 0 or sum(leads) > 1 + 1e-12:
                problems.append(f"{ebn0} dB: lead fractions {leads}")
        elif any(leads):
            problems.append(f"{ebn0} dB: independent mode with leads {leads}")
    return problems


def plans(world) -> tuple[list[str], list[str]]:
    """Each static plan against ``brute_force_plan`` on the same graph.

    Returns (problems, ties).  A plan must equal the oracle's, or tie with
    it: a different parent vector with the same total (mirror-image chains
    of a symmetric model), which is reported but passes.
    """
    from noisecycle.ordering import brute_force_plan, build_recycle_graph

    problems, ties = [], []
    for p_idx, model in enumerate(world.models):
        plan = world.plan(p_idx)
        if plan is None:
            continue
        oracle = brute_force_plan(build_recycle_graph(model))
        if plan.parent == oracle.parent:
            continue
        text = (f"point {p_idx}: max_arborescence {plan.parent} total "
                f"{plan.total_snr!r}, brute_force_plan {oracle.parent} total "
                f"{oracle.total_snr!r}")
        if math.isclose(plan.total_snr, oracle.total_snr, rel_tol=1e-12):
            ties.append(text)
        else:
            problems.append(text)
    return problems, ties


def wilson(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    p = errors / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return centre - half, centre + half


def recycling_gain(pooled: dict[float, list[tuple[int, int]]]) -> list[str]:
    """Channel 2 (recycled) below channel 1 (lead), Wilson intervals apart.

    ``pooled`` maps Eb/N0 to per-channel (errors, trials) summed over rounds.
    """
    problems = []
    for ebn0, ((e1, t1), (e2, t2)) in sorted(pooled.items()):
        lo1, _ = wilson(e1, t1)
        _, hi2 = wilson(e2, t2)
        if not hi2 < lo1:
            problems.append(f"{ebn0} dB: channel 2 {e2}/{t2} not below "
                            f"channel 1 {e1}/{t1} with intervals apart")
    return problems


# ---------------------------------------------------------------------------
# replayed trials (every decode call)
# ---------------------------------------------------------------------------

def crc_remainder(bits, polynomial: str) -> list[int]:
    """Remainder of ``bits`` (MSB first) divided by ``polynomial``, by long
    division over GF(2)."""
    taps = [int(b) for b in polynomial]
    work = [int(b) for b in bits]
    deg = len(taps) - 1
    for i in range(len(work) - deg):
        if work[i]:
            for d, tap in enumerate(taps):
                work[i + d] ^= tap
    return work[-deg:]


class TrialChecker:
    """Per-trial property checks plus pooled statistics over a replay."""

    def __init__(self, world, raw: dict, names: tuple[str, ...]) -> None:
        self.world = world
        self.names = names
        self.mode = raw["pipeline"].get("mode", "independent")
        self.gen = [c.generator.astype(np.int64) for c in world.codes]
        self.h = [c.parity_check.astype(np.int64) for c in world.codes]
        self.crc = [spec.get("crc_polynomial") for spec in raw["codes"]]
        if "crc" in names:
            for c in world.codes:
                if not np.array_equal(c.generator[:, :c.k], np.eye(c.k, dtype=np.uint8)):
                    raise ValueError("CRC check reads messages of systematic codes only")
        self.sparse_h = []
        if "sparse_h" in names:
            for c in world.codes:
                h = np.zeros((c.sparse.m_rows, c.n), dtype=np.int64)
                for r, cols in enumerate(c.sparse.row_cols):
                    h[r, list(cols)] = 1
                self.sparse_h.append(h)
        self.residual_sq = 0.0   # sum of r^2 / expected variance
        self.residual_n = 0

    def check(self, point: int, tr) -> list[str]:
        """``tr`` is a replayed trial (see replay.Replayed)."""
        problems = []
        world, result = self.world, tr.result
        truth = []
        for j in range(world.m):
            own = (tr.messages[j].astype(np.int64) @ self.gen[j]) % 2
            if not np.array_equal(own, tr.codewords[j]):
                problems.append(f"ch{j + 1}: encode differs from message @ G")
            if not np.array_equal(tr.outputs.transmitted[j], 1.0 - 2.0 * own):
                problems.append(f"ch{j + 1}: transmitted block is not BPSK of the codeword")
            truth.append(own)

        queries = [0] * world.m
        for call in tr.calls:
            j, out = call.channel, call.outcome
            queries[j] += out.queries
            if out.status != "decoded":
                continue
            c = out.codeword.astype(np.int64)
            if ((self.h[j] @ c) % 2).any():
                problems.append(f"ch{j + 1}: decoded word has a nonzero syndrome")
            if "sparse_h" in self.names and ((self.sparse_h[j] @ c) % 2).any():
                problems.append(f"ch{j + 1}: decoded word fails a check of the sparse H")
            if "crc" in self.names:
                k = world.codes[j].k
                if any(crc_remainder(c[:k], self.crc[j])):
                    problems.append(f"ch{j + 1}: decoded message fails the CRC")
            if "ml" in self.names:
                y = call.received
                got = float(np.dot(1.0 - 2.0 * c, y))
                sent = float(np.dot(1.0 - 2.0 * truth[j], y))
                if got < sent - 1e-9 * float(np.abs(y).sum()):
                    problems.append(f"ch{j + 1}: decoded word correlates {got} with "
                                    f"the input, the sent codeword {sent}")

        for j in range(world.m):
            final = result.outcomes[j]
            ok = final.status == "decoded" and np.array_equal(final.codeword, truth[j])
            if result.correct[j] != ok:
                problems.append(f"ch{j + 1}: correct flag {result.correct[j]}, own "
                                f"comparison {ok}")
            if result.queries_spent[j] != queries[j]:
                problems.append(f"ch{j + 1}: queries_spent {result.queries_spent[j]}, "
                                f"decode calls spent {queries[j]}")

        if self.mode == "static":
            lead = world.plan(point).order[0] - 1
            if result.lead_channel != lead:
                problems.append(f"lead {result.lead_channel}, plan lead {lead}")
        if "genie_residual" in self.names:
            problems += self._genie_residual(point, tr, truth)
        if "nll_lead" in self.names:
            problems += self._nll_lead(tr)
        return problems

    def _genie_residual(self, point: int, tr, truth) -> list[str]:
        plan = self.world.plan(point)
        model = self.world.models[point]
        lead = plan.order[0] - 1
        lead_call = next(c for c in tr.calls if c.channel == lead)
        if not (lead_call.outcome.status == "decoded"
                and np.array_equal(lead_call.outcome.codeword, truth[lead])):
            return []
        problems = []
        z = tr.noise
        for call in tr.calls:
            f = call.channel
            if f == lead or plan.parent_of(f + 1) != lead + 1:
                continue
            rho = float(model.corr[lead, f])
            want_var = float(model.sigma2[f]) * (1.0 - rho * rho)
            if not math.isclose(call.noise_variance, want_var, rel_tol=1e-12):
                problems.append(f"ch{f + 1}: recycled input at variance "
                                f"{call.noise_variance}, expected {want_var}")
            resid = call.received - (1.0 - 2.0 * truth[f])
            scale = rho * math.sqrt(model.sigma2[f] / model.sigma2[lead])
            if not np.allclose(resid, z[f] - scale * z[lead], rtol=0, atol=1e-9):
                problems.append(f"ch{f + 1}: recycled residual is not z_f - rho' z_lead")
            self.residual_sq += float(resid @ resid) / want_var
            self.residual_n += resid.size
        return problems

    def _nll_lead(self, tr) -> list[str]:
        m = self.world.m
        phase1 = tr.calls[:m]
        if [c.channel for c in phase1] != list(range(m)):
            return [f"phase 1 decoded channels {[c.channel for c in phase1]}"]
        scores = []
        for c in phase1:
            if c.outcome.status != "decoded":
                scores.append(math.inf)
                continue
            z = c.received - (1.0 - 2.0 * c.outcome.codeword)
            s2 = c.noise_variance
            scores.append(float(z @ z) / (2 * s2) + z.size * 0.5 * math.log(2 * math.pi * s2))
        want = None if all(s == math.inf for s in scores) else \
            min(range(m), key=lambda i: (scores[i], i))
        if tr.result.lead_channel != want:
            return [f"lead {tr.result.lead_channel}, lowest phase-1 NLL {want} ({scores})"]
        return []

    def residual_summary(self) -> dict:
        if self.residual_n == 0:
            return {}
        ratio = self.residual_sq / self.residual_n
        return {"variance_ratio": ratio, "samples": self.residual_n,
                "z": (ratio - 1.0) / math.sqrt(2.0 / self.residual_n)}

    def finish(self) -> list[str]:
        """Pooled checks, once every trial has been checked."""
        summary = self.residual_summary()
        if summary and abs(summary["z"]) > RESIDUAL_Z_LIMIT:
            return [f"recycled residual variance ratio {summary['variance_ratio']:.5f} "
                    f"over {summary['samples']} samples is {summary['z']:.2f} SE from 1"]
        return []
