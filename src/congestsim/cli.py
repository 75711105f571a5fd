"""Batch experiment driver: approximation trials, gadget builds, oracles.

Reports are canonical JSON (sorted keys, fixed indentation) embedding the
fully resolved configuration, so identical config + seed reproduces
byte-identical output.  Exit codes: 0 ok, 1 invariant/assertion failure
or a run the model aborted (bandwidth, congestion, round limit), 2 usage
error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .engine import BandwidthExceeded, MaxRoundsExceeded, Network
from .gadgets import build_gadget, verify_reduction
from .graphs import (
    GraphError,
    WeightedGraph,
    _hops_on_row,
    diameter,
    exact_sssp,
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

# Smallest failure budget: a search makes 2 ln(1/delta) / rho evaluations,
# so a delta of 1e-400 would run for minutes.
MIN_DELTA = Fraction(1, 10 ** 12)


class UsageError(Exception):
    pass


def _parse_fraction(text):
    """`text`, "p/q" or a decimal such as 0.1 or 1e-7, as an exact Fraction.

    A decimal's exponent is refused beyond 4300, the most digits `int`
    reads from a text: 1e-99999999 would build the integer 10**99999999.
    """
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    exponent = text.lower().partition("e")[2]
    if exponent and abs(int(exponent)) > 4300:
        raise ValueError(text)
    return Fraction(text)


def _fraction_text(text):
    """argparse type: `text` itself, once it reads as a fraction."""
    try:
        _parse_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")
    return text


def _eps_floor(text):
    """argparse type: `text` itself, once it reads as a fraction x with
    0 < x <= 1."""
    if not 0 < _parse_fraction(_fraction_text(text)) <= 1:
        raise argparse.ArgumentTypeError(f"need 0 < x <= 1: {text!r}")
    return text


def _max_weight(text):
    """argparse type: an int >= 1, whichever source the graph comes from."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"max_weight must be >= 1: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one `error:` line
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _load_graph(args, trial_seed=None):
    if args.graph:
        try:
            return WeightedGraph.from_file(args.graph)
        except OSError as exc:
            raise UsageError(f"cannot read graph file: {exc}")
    rng = random.Random(trial_seed if trial_seed is not None else args.seed)
    return make_graph(args.gen, args.n, max_weight=args.max_weight, rng=rng)


@contextlib.contextmanager
def _output(args):
    """Send the command's stdout to --out, opened (and truncated, as a
    shell redirection would) before the command runs, so an unwritable
    path, or one naming the --graph input, is refused before any work is
    done.  A failed write raises `OSError` out of the context."""
    if not args.out:
        try:
            yield
            sys.stdout.flush()
        except OSError:
            # what could not be written stays buffered; let the
            # interpreter's flush at exit write it to nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise
        return
    with contextlib.suppress(OSError):  # a graph file that is not there
        if getattr(args, "graph", None) and os.path.samefile(args.graph,
                                                             args.out):
            raise UsageError(f"--out names the --graph input: {args.out}")
    try:
        fh = open(args.out, "w")
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}")
    with fh, contextlib.redirect_stdout(fh):
        yield


def _num(value):
    """JSON-safe number: exact ints stay ints, Fractions become floats.  A
    Fraction beyond every float stays exact, as its "p/q" text."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        try:
            return float(value)
        except OverflowError:
            return f"{value.numerator}/{value.denominator}"
    if value == float("inf"):
        return None
    return value


# --- approx --------------------------------------------------------------


def cmd_approx(args):
    target = args.quantity
    delta = _parse_fraction(args.delta)
    if not MIN_DELTA <= delta < 1:
        raise UsageError(
            f"--delta must be at least 1e-12 and below 1: {args.delta}")
    eps_floor = (None if args.eps_floor is None
                 else _parse_fraction(args.eps_floor))
    if args.trials < 0:
        raise UsageError(f"--trials must be >= 0: {args.trials}")
    trials = []
    for t in range(args.trials):
        trial_seed = f"{args.seed}:{t}"
        g = _load_graph(args, trial_seed=trial_seed)
        schedule = ParameterSchedule.for_graph(g, eps_floor=eps_floor)
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
        writer = csv.DictWriter(sys.stdout, fieldnames=fields,
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(trials)
    else:
        sys.stdout.write(_json_text(report))
    return EXIT_OK


# --- gadget --------------------------------------------------------------


def _gadget_inputs(args):
    """x, y drawn from --input-seed; without one, None, None: build_gadget's
    all-ones default."""
    if args.input_seed is None:
        return None, None
    size = 2 ** (3 * args.h // 2) * 2 ** (args.h // 2)  # 2^s rows of l bits
    rng = random.Random(args.input_seed)
    x = tuple(rng.randint(0, 1) for _ in range(size))
    y = tuple(rng.randint(0, 1) for _ in range(size))
    return x, y


def cmd_gadget(args):
    if args.h % 2 or not 2 <= args.h <= MAX_GADGET_H:
        raise UsageError(
            f"h must be an even number from 2 to {MAX_GADGET_H}: {args.h}")
    x, y = _gadget_inputs(args)
    inst = build_gadget(args.h, x=x, y=y, variant=args.variant,
                        alpha=args.alpha, beta=args.beta)
    if args.action == "build":
        sys.stdout.write(
            json.dumps(inst.graph.to_json_dict(), sort_keys=True) + "\n"
            if args.format == "json" else inst.graph.to_text())
        return EXIT_OK
    report = verify_reduction(inst)
    report["version"] = __version__
    # verify always emits JSON, so --format is not part of its config
    report["config"] = {k: v for k, v in _config_dict(args).items()
                        if k != "format"}
    sys.stdout.write(_json_text(report))
    return EXIT_OK if report["pass"] else EXIT_FAILURE


# --- oracle --------------------------------------------------------------


def cmd_oracle(args):
    g = _load_graph(args)
    # one row per source gives its eccentricity and its min-hop row
    eccs, hops = [], 0
    for u in range(g.n):
        dist = exact_sssp(g, u)
        eccs.append(max(dist))
        hops = max(hops, max(_hops_on_row(g, u, dist)))
    report = {
        "version": __version__,
        "config": _config_dict(args),
        "n": g.n,
        "diameter": _num(max(eccs)),
        "radius": _num(min(eccs)),
        "hop_diameter": _num(hops),
        "eccentricities": [_num(e) for e in eccs],
    }
    sys.stdout.write(_json_text(report))
    return EXIT_OK


# --- plumbing ------------------------------------------------------------


def _json_text(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _config_dict(args):
    skip = {"func", "out"}  # the output path does not affect the results
    if getattr(args, "gen", None) != "random-connected":
        skip.add("max_weight")  # only the random generator reads it
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_parser():
    parser = _Parser(
        prog="congestsim",
        description="CONGEST-model diameter/radius approximation testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_opts(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--graph", help="graph file (text or JSON format)")
        source.add_argument("--gen", choices=["random-connected", "cycle",
                                              "star", "grid"],
                            help="generator name")
        p.add_argument("--n", type=int, help="generator size")
        p.add_argument("--max-weight", type=_max_weight, default=10)

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
        if "gen" in args and (args.gen is None) != (args.n is None):
            parser.error("--gen requires --n" if args.gen
                         else "--n requires --gen")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        with _output(args):
            return args.func(args)
    except (UsageError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (BandwidthExceeded, CongestionFailure, MaxRoundsExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: cannot write {args.out or 'standard output'}: {exc}",
              file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
