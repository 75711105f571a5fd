"""Batch experiment driver: approximation trials, gadget builds, oracles.

Reports are canonical JSON (sorted keys, fixed indentation) embedding the
fully resolved configuration, so identical config + seed reproduces
byte-identical output.  Exit codes: 0 ok, 1 invariant/assertion failure
or a run the model aborted (bandwidth, congestion, round limit), 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .engine import BandwidthExceeded, MaxRoundsExceeded, Network
from .gadgets import build_gadget, verify_reduction
from .graphs import (
    GraphError,
    WeightedGraph,
    diameter,
    eccentricity,
    hop_diameter,
    make_graph,
    radius,
)
from .search import (
    LowConfidenceResult,
    ParameterSchedule,
    approx_diameter,
    approx_radius,
)
from .toolkit import CongestionFailure

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

# Largest gadget height the tests build (acceptance criterion 9); the node
# count grows as 2^(1.5h), so h = 8 already means cliques of 4096 nodes.
MAX_GADGET_H = 6


class UsageError(Exception):
    pass


def _parse_fraction(text):
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(text).limit_denominator(10 ** 6)


def _fraction_text(text):
    """argparse type: `text` itself, once it reads as a fraction."""
    try:
        _parse_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")
    return text


def _eps_floor(text):
    """argparse type: a float x with 0 < x <= 1 (so not NaN or infinite)."""
    if not 0 < float(text) <= 1:
        raise argparse.ArgumentTypeError(f"need 0 < x <= 1: {text!r}")
    return float(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one `error:` line
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _load_graph(args, trial_seed=None):
    if args.graph:
        try:
            return WeightedGraph.from_file(args.graph)
        except OSError as exc:
            raise UsageError(f"cannot read graph file: {exc}")
    if args.gen:
        if args.n is None:
            raise UsageError("--gen requires --n")
        rng = random.Random(trial_seed if trial_seed is not None else args.seed)
        return make_graph(args.gen, args.n, max_weight=args.max_weight, rng=rng)
    raise UsageError("one of --graph or --gen is required")


def _emit(text, args):
    """Write `text` to --out, or to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _num(value):
    """JSON-safe number: exact ints stay ints, Fractions become floats."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else float(value)
    if value == float("inf"):
        return None
    return value


# --- approx --------------------------------------------------------------


def cmd_approx(args):
    target = args.quantity
    delta = _parse_fraction(args.delta)
    if args.trials < 0:
        raise UsageError(f"--trials must be >= 0: {args.trials}")
    trials = []
    for t in range(args.trials):
        trial_seed = f"{args.seed}:{t}"
        g = _load_graph(args, trial_seed=trial_seed)
        schedule = ParameterSchedule.for_graph(g, eps_floor=args.eps_floor)
        net = Network(g, bandwidth_bits=args.bandwidth, seed=trial_seed)
        rng = random.Random(trial_seed)
        run = approx_diameter if target == "diameter" else approx_radius
        oracle = diameter if target == "diameter" else radius
        true_value = oracle(g)
        try:
            estimate, trace, ledger = run(net, schedule, delta=delta, rng=rng)
        except LowConfidenceResult as exc:
            estimate, trace, ledger = None, exc.trace, net.ledger
        slack = (1 + schedule.eps) ** 2
        success = (estimate is not None and true_value <= estimate
                   and estimate <= slack * true_value)
        trials.append({
            "trial": t,
            "seed": trial_seed,
            "n": g.n,
            "unweighted_diameter": schedule.unweighted_diameter,
            "params": schedule.to_dict(),
            "estimate": _num(estimate) if estimate is not None else None,
            "true_value": _num(true_value),
            "ratio": _num(Fraction(estimate, true_value))
            if estimate is not None and true_value else None,
            "rounds": ledger.rounds,
            "evaluations": trace.evaluations,
            "success": success,
        })

    successes = sum(1 for t in trials if t["success"])
    aggregate = {
        "trials": args.trials,
        "successes": successes,
        "success_rate": successes / args.trials if args.trials else None,
        "mean_rounds": (sum(t["rounds"] for t in trials) / args.trials
                        if args.trials else None),
        "theoretical_round_budget":
            (trials[0]["n"] ** 0.9 * trials[0]["unweighted_diameter"] ** 0.3
             if trials else None),
    }
    report = {
        "version": __version__,
        "command": f"approx {target}",
        "config": _config_dict(args),
        "trials": trials,
        "aggregate": aggregate,
    }
    if args.format == "csv":
        fields = ["trial", "seed", "n", "unweighted_diameter", "estimate",
                  "true_value", "ratio", "rounds", "evaluations", "success"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(trials)
        _emit(buf.getvalue(), args)
    else:
        _emit(_json_text(report), args)
    return EXIT_OK


# --- gadget --------------------------------------------------------------


def _gadget_inputs(args, size):
    if args.input_seed is not None:
        rng = random.Random(args.input_seed)
        x = tuple(rng.randint(0, 1) for _ in range(size))
        y = tuple(rng.randint(0, 1) for _ in range(size))
        return x, y
    return (1,) * size, (1,) * size  # all-ones default


def cmd_gadget(args):
    if args.h % 2 or not 2 <= args.h <= MAX_GADGET_H:
        raise UsageError(
            f"h must be an even number from 2 to {MAX_GADGET_H}: {args.h}")
    s = 3 * args.h // 2
    size = 2 ** s * 2 ** (s - args.h)
    x, y = _gadget_inputs(args, size)
    inst = build_gadget(args.h, x=x, y=y, variant=args.variant,
                        alpha=args.alpha, beta=args.beta)
    if args.action == "build":
        _emit(json.dumps(inst.graph.to_json_dict(), sort_keys=True) + "\n"
              if args.format == "json" else inst.graph.to_text(), args)
        return EXIT_OK
    report = verify_reduction(inst)
    report["version"] = __version__
    # verify always emits JSON, so --format is not part of its config
    report["config"] = {k: v for k, v in _config_dict(args).items()
                        if k != "format"}
    _emit(_json_text(report), args)
    return EXIT_OK if report["pass"] else EXIT_FAILURE


# --- oracle --------------------------------------------------------------


def cmd_oracle(args):
    g = _load_graph(args)
    report = {
        "version": __version__,
        "config": _config_dict(args),
        "n": g.n,
        "diameter": _num(diameter(g)),
        "radius": _num(radius(g)),
        "hop_diameter": _num(hop_diameter(g)),
        "eccentricities": [_num(eccentricity(g, u)) for u in range(g.n)],
    }
    _emit(_json_text(report), args)
    return EXIT_OK


# --- plumbing ------------------------------------------------------------


def _json_text(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _config_dict(args):
    skip = {"func", "out"}  # the output path does not affect the results
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_parser():
    parser = _Parser(
        prog="congestsim",
        description="CONGEST-model diameter/radius approximation testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_opts(p):
        p.add_argument("--graph", help="graph file (text or JSON format)")
        p.add_argument("--gen", choices=["random-connected", "cycle", "star",
                                         "grid"], help="generator name")
        p.add_argument("--n", type=int, help="generator size")
        p.add_argument("--max-weight", type=int, default=10)

    def add_common(p):
        p.add_argument("--seed", default="0")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("approx", help="run approximation trials")
    p.add_argument("quantity", choices=["diameter", "radius"])
    add_graph_opts(p)
    add_common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--delta", type=_fraction_text, default="1/12",
                   help="failure budget (fraction)")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--eps-floor", type=_eps_floor, default=None)
    p.add_argument("--bandwidth", type=int, default=None)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("gadget", help="build/verify lower-bound gadgets")
    p.add_argument("action", choices=["build", "verify"])
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--variant", choices=["diameter", "radius"],
                   default="diameter")
    p.add_argument("--input-seed", default=None,
                   help="seed for random x,y (default: all-ones)")
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="graph format for build (verify always emits JSON)")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("oracle", help="exact diameter/radius/eccentricities")
    add_graph_opts(p)
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (BandwidthExceeded, CongestionFailure, MaxRoundsExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
