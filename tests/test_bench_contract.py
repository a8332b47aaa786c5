"""The benchmark's replay agrees with the harness.

``bench/replay.py`` re-runs a trial through the public functions, one call
at a time, with decoders wrapped so that only their row-by-row ``decode``
is visible.  For each benchmark workload, replayed trials must reach the
same per-channel ``correct`` flags, query totals and lead as ``run_trial``,
and every recycled decoder input must be reproduced by ``llse_update``.
The benchmark makes the same check when it traces a workload; here a
change that breaks it fails with the other tests.  Nothing under
``bench/`` is modified.
"""

import sys
from pathlib import Path

import pytest

from noisecycle.harness import ExperimentConfig, run_trial

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import replay  # noqa: E402
import workloads  # noqa: E402
import world  # noqa: E402

TRIALS_PER_POINT = 20


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_replay_matches_run_trial(name):
    raw = workloads.experiment(name, seed=0, round_index=0)
    built, config = world.build(raw), ExperimentConfig.from_dict(raw)
    replayer = replay.Replayer(built, raw["base_seed"])
    for point in range(len(built.models)):
        for t in range(TRIALS_PER_POINT):
            replayed = replayer.trial(point, t)
            alone = run_trial(config, point, t)
            assert replayed.result.correct == alone.correct
            assert replayed.result.queries_spent == alone.queries_spent
            assert replayed.result.lead_channel == alone.lead_channel
            assert replayer.reissue_recycling(point, replayed, None) == []
