"""Build a workload's objects through the program's public API.

This is the set-up a sweep needs before its first trial: codes, decoders,
the pipeline, one channel model per Eb/N0 point and, in static mode, one
recycling plan per point.  ``build`` times each part, so the same code
serves the ``setup_s`` measurement and the replay.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from noisecycle import configio
from noisecycle.channel import ChannelModel, ebn0_to_sigma2
from noisecycle.ordering import RecyclingPlan, build_recycle_graph, max_arborescence
from noisecycle.pipeline import MODE_STATIC, PipelineConfig


@dataclass
class World:
    codes: list
    decoders: list
    models: list[ChannelModel]          # one per Eb/N0 point
    pipelines: list[PipelineConfig]    # one per point, static ones carry the plan
    code_build_s: float
    plan_s: float

    @property
    def m(self) -> int:
        return len(self.codes)

    @property
    def n(self) -> int:
        return self.codes[0].n

    def plan(self, point: int) -> RecyclingPlan | None:
        return self.pipelines[point].plan


def build(raw: dict) -> World:
    """Codes, decoders, models and plans of one experiment JSON.

    Mirrors the harness: channel j's variance at a point is
    ``sigma2_j * ebn0_to_sigma2(point, k_j / n)``, and a static plan is the
    maximum arborescence of that point's recycle graph.
    """
    t0 = time.perf_counter()
    codes = [configio.load_code(c) for c in raw["codes"]]
    code_build_s = time.perf_counter() - t0
    decoders = [configio.load_decoder(d) for d in raw["decoders"]]
    base = configio.load_channel_model(raw["channel"])
    pipe = configio.load_pipeline(raw.get("pipeline", {}))

    models, pipelines, plan_s = [], [], 0.0
    for ebn0 in raw["sweep"]["ebn0_db"]:
        sigma2 = [base.sigma2[j] * ebn0_to_sigma2(float(ebn0), codes[j].rate)
                  for j in range(base.m)]
        model = ChannelModel(m=base.m, sigma2=sigma2, power=base.power, corr=base.corr)
        point_pipe = pipe
        if pipe.mode == MODE_STATIC:
            t1 = time.perf_counter()
            plan = max_arborescence(build_recycle_graph(model))
            plan_s += time.perf_counter() - t1
            point_pipe = dataclasses.replace(pipe, plan=plan)
        models.append(model)
        pipelines.append(point_pipe)
    return World(codes=codes, decoders=decoders, models=models, pipelines=pipelines,
                 code_build_s=code_build_s, plan_s=plan_s)
