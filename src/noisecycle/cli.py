"""Command-line front end.

Subcommands: ``bler`` runs a Monte Carlo sweep from an experiment JSON;
``order`` prints the optimal static decode order for a channel-model JSON;
``rates``, ``bounds``, and ``capacity`` emit CSV tables of the closed-form
rate quantities over parameter grids.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import configio, theory
from .channel import build_gm_model
from .harness import ExperimentConfig, csv_text, run_bler_sweep, worker_count
from .ordering import build_recycle_graph, plan_for


def _number(kind: type, need: str, ok):
    """An argparse type: a ``kind`` value that passes ``ok``, else an error,
    which argparse prefixes with the option's name, saying ``need``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _grid(item):
    """An argparse type: a comma-separated list of ``item`` values."""
    def parse(text: str) -> list:
        return [item(tok) for tok in text.split(",") if tok]
    parse.__name__ = "grid"
    return parse


_CHANNELS = _number(int, "m >= 1", lambda v: v >= 1)
_RHO = _number(float, "|rho| < 1", lambda v: abs(v) < 1)
_POSITIVE = _number(float, "a finite value > 0", lambda v: 0 < v < math.inf)
_NONNEGATIVE = _number(float, "a finite value >= 0", lambda v: 0 <= v < math.inf)


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bler(args: argparse.Namespace) -> int:
    try:
        raw = configio.read_json(args.config)
        if args.seed is not None:
            raw["base_seed"] = args.seed
        config = ExperimentConfig.from_dict(raw)
        workers = worker_count(args.workers)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"noisecycle bler: {args.config}: {exc}") from None
    points = run_bler_sweep(config, workers=workers, output_path=args.output)
    sys.stdout.write(csv_text(points))
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    try:
        model = configio.load_channel_model(configio.read_json(args.model))
        plan = plan_for(model, forced_lead=args.forced_lead)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"noisecycle order: {args.model}: {exc}") from None
    weights = build_recycle_graph(model).weights
    print("edge,source,target,weight")
    for ch in plan.order:
        parent = plan.parent_of(ch)
        print(f"{parent}->{ch},{parent},{ch},{weights[parent, ch]:.6g}")
    print(f"total_snr,,,{plan.total_snr:.6g}")
    print(f"decode_order,,,{' '.join(str(c) for c in plan.order)}")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    lines = ["m,rho,snr,lead_rate,recycled_rate,average_rate"]
    for rho in args.rho_grid:
        for snr in args.snr_grid:
            c1 = theory.capacity(snr)
            c2 = theory.capacity(snr / (1 - rho * rho))
            avg = theory.gm_average_rate(args.m, rho, snr)
            lines.append(f"{args.m},{rho:.6g},{snr:.6g},{c1:.6g},{c2:.6g},{avg:.6g}")
    _emit(lines, args.output)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    lines = ["rho,snr,independent_sum,achievable_sum,upper_bound,joint_capacity"]
    for rho in args.rho_grid:
        for snr in args.snr_grid:
            indep = 2 * theory.capacity(snr)
            ach = theory.capacity(snr) + theory.capacity(snr / (1 - rho * rho))
            bound = theory.pair_upper_bound(snr, snr, 1.0, 1.0, rho).total
            model = build_gm_model(2, rho, 1.0, snr)
            joint = theory.joint_capacity(model)
            lines.append(f"{rho:.6g},{snr:.6g},{indep:.6g},{ach:.6g},"
                         f"{bound:.6g},{joint:.6g}")
    _emit(lines, args.output)
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    model = build_gm_model(args.m, args.rho, args.sigma2, args.power)
    lam = np.linalg.eigvalsh(model.covariance)
    alloc, nu = theory.water_fill(lam, args.m * args.power)
    print("eigenvalue,power")
    for l, p in zip(lam, alloc):
        print(f"{l:.6g},{p:.6g}")
    print(f"water_level,{nu:.6g}")
    print(f"capacity_bits,{theory.joint_capacity(model):.6g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="noisecycle",
        description="Noise-recycling link simulator and rate calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bler", help="run a Monte Carlo BLER sweep")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config base seed")
    p.add_argument("--output", default=None, help="CSV output path")
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker processes (default ${{{'NOISECYCLE_WORKERS'}}} or 1)")
    p.set_defaults(func=_cmd_bler)

    p = sub.add_parser("order", help="print the optimal static decode order")
    p.add_argument("model", help="channel-model JSON")
    p.add_argument("--forced-lead", type=int, default=None,
                   help="force this channel (1-based) as the only lead")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("rates", help="chain rate table over (rho, snr)")
    p.add_argument("--m", type=_CHANNELS, required=True)
    p.add_argument("--rho-grid", type=_grid(_RHO), required=True)
    p.add_argument("--snr-grid", type=_grid(_NONNEGATIVE), required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("bounds", help="pair bound vs achievable vs joint capacity")
    p.add_argument("--rho-grid", type=_grid(_RHO), required=True)
    p.add_argument("--snr-grid", type=_grid(_POSITIVE), required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_bounds)

    text = ("water-filling capacity of a GM model under the sum power m * P: an upper "
            "relaxation of the capacity under per-channel power P, equal to it at m = 2 "
            "and whenever every eigenmode gets power")
    p = sub.add_parser("capacity", help=text, description=text)
    p.add_argument("--m", type=_CHANNELS, required=True)
    p.add_argument("--rho", type=_RHO, required=True)
    p.add_argument("--power", type=_POSITIVE, default=1.0)
    p.add_argument("--sigma2", type=_POSITIVE, default=1.0)
    p.set_defaults(func=_cmd_capacity)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
