"""Noise recycling: link-level simulation and rate-region computation for
orthogonal channels with correlated additive Gaussian noise."""

from .channel import (ChannelModel, ChannelOutput, NoiseBlock, build_gm_model,
                      ebn0_to_sigma2, modulate_bpsk, sample_noise, transmit)
from .decoders import (BpDecoder, DecodeOutcome, DecodeRecord, OrbgrandDecoder,
                       SgrandabDecoder, SoftBlock, confidence, llrs)
from .gf2 import (CodeSpec, CrcSpec, SparseParityCheck, code_from_parity_check,
                  crc_check, crc_encode, encode, ml_decode_bruteforce, parse_alist,
                  sample_regular_ldpc, sample_rlc, serialize_alist, syndrome)
from .harness import (BlerPoint, ExperimentConfig, SweepSpec, emit_csv,
                      run_bler_sweep, run_trial, wilson_interval)
from .ordering import (RecycleGraph, RecyclingPlan, brute_force_plan,
                       build_recycle_graph, constrain_root_child,
                       max_arborescence, plan_for)
from .pipeline import BlockResult, PipelineConfig, run_block
from .recycling import (NoiseEstimate, composite_bler, effective_snr,
                        effective_variance, estimate_noise, llse_update,
                        normalized_corr)
from .theory import (RateReport, UpperBoundBreakdown,
                     achievable_rates, capacity, gm_average_rate,
                     independent_rates, joint_capacity, pair_upper_bound,
                     water_fill)

__version__ = "0.1.0"
