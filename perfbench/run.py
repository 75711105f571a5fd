"""congestsim benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload approx-dense --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports congestsim from its
`src/`.  The seed alone determines the inputs.  Every host time is process
CPU seconds corrected for the machine's momentary speed (hostclock.py).
The simulator is single-threaded, so on an idle core CPU time is the time
a user waits; unlike wall time it leaves out time the process spends
descheduled on a shared machine.

--trace 0 prints the end-to-end metrics.  Set-up is measured in separate
processes and reported as their median.  The timed phase makes one full
pass over the inputs, which fixes every exact count, then repeats
operations from the start until --seconds have passed.  Each repeat must
reproduce its exact record.

--trace 1 prints the per-layer metrics.  It runs one untraced and one
traced pass over the same inputs; the two must agree on every exact
count.  Spans go to perfbench/out/.

The last line of stdout is the result object; the lines before it are a
readable report.  Exit code 1 means an exact count did not repeat or a
gadget check failed; exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hostclock
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("charged_rounds", "rounds"),
    ("approx_ratio_max", "ratio"),
    ("success_rate", "ratio"),
)

PHASES = ("bfs-tree", "mssp-delays", "mssp", "embed", "init", "setup",
          "overlay-sssp", "eval")

# Spans whose self time is reported, and those whose call count is.
SELF_TIMES = (
    "graphs.exact_sssp", "graphs.contract_unit_edges",
    "engine.run", "engine.broadcast_pipeline", "engine.build_bfs_tree",
    "toolkit.bounded_hop_mssp", "toolkit.embed_overlay",
    "toolkit.sssp_on_overlay", "toolkit.approx_eccentricity",
    "search.amplified_max_search", "search.evaluate_f_i",
    "gadgets.build_gadget", "gadgets.verify_reduction",
    "gadgets.check_table2", "gadgets.ownership_schedule",
    "gadgets.validate_schedule",
    spans.OP_SPAN,
)
CALLS = (
    "graphs.exact_sssp", "engine.run", "toolkit.bounded_hop_mssp",
    "toolkit.build_skeleton_state", "toolkit.sssp_on_overlay",
    "toolkit.approx_eccentricity", "search.evaluate_f_i",
)

PER_LAYER = (
    tuple((f"{name}.calls", "count") for name in CALLS)
    + tuple((f"{name}.self_s", "s") for name in SELF_TIMES)
    + (
        ("engine.messages", "count"),
        ("engine.bits", "bits"),
        ("engine.ledger_rounds", "rounds"),
        ("engine.us_per_message", "us"),
        ("toolkit.mssp.attempts", "count"),
        ("toolkit.mssp.success_ratio", "ratio"),
        ("search.evaluations", "count"),
        ("search.inner_probes", "count"),
        ("search.init_cache_hit_ratio", "ratio"),
        ("search.probe_cache_hit_ratio", "ratio"),
        ("search.ledger_to_charged", "ratio"),
    )
    + tuple((f"rounds.{phase}", "rounds") for phase in PHASES + ("unphased",))
    + (
        ("gadgets.table2_rows", "count"),
        ("op.untraced_s", "s"),
        ("op.traced_s", "s"),
        ("trace.overhead", "ratio"),
    )
)


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def import_congestsim():
    """Import congestsim from this checkout's src/, never from elsewhere."""
    package = SRC / "congestsim"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no congestsim sources at {package}")
    sys.path.insert(0, str(SRC))
    import congestsim
    if Path(congestsim.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported congestsim from {congestsim.__file__}, "
                         f"not from {package}")
    return congestsim


def setup(workload, seed):
    """Imports, inputs and oracle values; returns (congestsim, inputs, s)."""
    def load():
        cs = import_congestsim()
        return cs, workloads.make_inputs(cs, workload, seed)

    (cs, inputs), seconds, _ = hostclock.HostClock().measure(load)
    return cs, inputs, seconds


def setup_samples(workload_name, seed, count):
    """Set-up seconds of `count` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload_name, "--seed", seed, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_op(cs, inp, clock, tracer=None, op_id=None):
    """One operation; returns (exact record, seconds, clock factor)."""
    if tracer is None:
        raw, seconds, factor = clock.measure(workloads.execute, cs, inp)
    else:
        def traced():
            with tracer.operation(op_id):
                return workloads.execute(cs, inp)
        raw, seconds, factor = clock.measure(traced)
    return workloads.summarize(inp, raw), seconds, factor


def timed_run(cs, inputs, seconds):
    """One full pass, then repeats from the start until `seconds` (wall) pass.

    Returns (first-pass records, seconds of every timed op, indices whose
    repeat differed).
    """
    clock = hostclock.HostClock()
    records, times, mismatches = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(inputs) or time.perf_counter() < deadline:
        k = i % len(inputs)
        record, op_s, _ = run_op(cs, inputs[k], clock)
        times.append(op_s)
        if i < len(inputs):
            records.append(record)
        elif record != records[k]:
            mismatches.append(k)
        i += 1
    if i == len(inputs):
        # no repeat fitted in the time: check one outside the timed phase
        record, _, _ = run_op(cs, inputs[0], clock)
        if record != records[0]:
            mismatches.append(0)
    return records, times, mismatches


def traced_run(cs, inputs):
    """An untraced and a traced pass over `inputs`.

    Returns (records, untraced seconds, traced seconds, tracer, clock
    factor per op of the traced pass, indices whose records differed).
    """
    clock = hostclock.HostClock()
    untraced = [run_op(cs, inp, clock) for inp in inputs]
    tracer = spans.Tracer()
    with tracer.installed():
        traced = [run_op(cs, inp, clock, tracer, k)
                  for k, inp in enumerate(inputs)]
    mismatches = [k for k, (u, t) in enumerate(zip(untraced, traced))
                  if u[0] != t[0]]
    return ([r for r, _, _ in untraced], sum(s for _, s, _ in untraced),
            sum(s for _, s, _ in traced), tracer,
            [f for _, _, f in traced], mismatches)


def exact_totals(workload, records):
    """Exact counts of one pass.  They depend on the seed and nothing else."""
    def total(key):
        return sum(r.get(key, 0) for r in records)

    phase_rounds = [r.get("phase_rounds", {}) for r in records]
    totals = {
        "engine.messages": total("messages"),
        "engine.bits": total("bits"),
        "engine.ledger_rounds": total("ledger_rounds"),
        "toolkit.mssp.attempts": total("mssp_attempts"),
        "search.evaluations": total("evaluations"),
        "search.inner_probes": total("inner_probes"),
        "gadgets.table2_rows": total("table2_rows"),
        "rounds.unphased": total("ledger_rounds") - sum(
            sum(p.values()) for p in phase_rounds),
        "success_rate": Fraction(total("ok"), len(records)),
    }
    for phase in PHASES:
        totals[f"rounds.{phase}"] = sum(p.get(phase, 0) for p in phase_rounds)
    if workload.kind == "approx":
        totals["charged_rounds"] = total("charged_rounds")
        totals["approx_ratio_max"] = max(
            (r["ratio"] for r in records if r["ratio"] is not None),
            default=Fraction(0))
    else:
        # The rounds whose two-party simulation each op validates, and the
        # distortion of the weight-1 contraction, D / D'.
        totals["charged_rounds"] = total("schedule_rounds")
        totals["approx_ratio_max"] = max(
            Fraction(r["D_or_R_exact"], r["contracted_exact"]) for r in records)
    return totals


def ratio(num, den):
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0


def per_layer_values(workload, records, untraced_s, traced_s, calls, self_s):
    totals = exact_totals(workload, records)
    values = {name: totals[name] for name, _ in PER_LAYER if name in totals}
    values.update({f"{name}.calls": calls[name] for name in CALLS})
    values.update({f"{name}.self_s": self_s[name] for name in SELF_TIMES})
    values["engine.us_per_message"] = ratio(1e6 * self_s["engine.run"],
                                            totals["engine.messages"])
    values["toolkit.mssp.success_ratio"] = ratio(
        calls["toolkit.bounded_hop_mssp"], totals["toolkit.mssp.attempts"])
    values["search.init_cache_hit_ratio"] = ratio(
        calls["search.evaluate_f_i"] - calls["toolkit.build_skeleton_state"],
        calls["search.evaluate_f_i"])
    values["search.probe_cache_hit_ratio"] = ratio(
        totals["search.inner_probes"] - calls["toolkit.sssp_on_overlay"],
        totals["search.inner_probes"])
    values["search.ledger_to_charged"] = ratio(
        totals["engine.ledger_rounds"],
        totals["charged_rounds"] if workload.kind == "approx" else 0)
    values["op.untraced_s"] = untraced_s
    values["op.traced_s"] = traced_s
    values["trace.overhead"] = ratio(traced_s, untraced_s)
    return values


def as_metrics(values, names):
    return {name: {"value": float(values[name])
                   if isinstance(values[name], Fraction) else values[name],
                   "unit": unit}
            for name, unit in names}


def run_info(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "congestsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": f"{platform.machine()} {platform.system()} "
                   f"{platform.release()}; host times are calibrated process "
                   f"CPU seconds (hostclock.REFERENCE_S = "
                   f"{hostclock.REFERENCE_S})",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    try:
        cs, inputs, setup_s = setup(workload, args.seed)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        info = run_info(args.seed)
        if args.trace:
            return traced_main(cs, workload, inputs, info)
        setups = [setup_s] + setup_samples(args.workload, args.seed,
                                           SETUP_SAMPLES - 1)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return untraced_main(cs, workload, inputs, info, setups, args.seconds)


def untraced_main(cs, workload, inputs, info, setups, seconds):
    records, times, mismatches = timed_run(cs, inputs, seconds)
    values = exact_totals(workload, records)
    values.update({
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    metrics = as_metrics(values, END_TO_END)
    notes = {
        "ops_per_s": f"{len(times)} ops in {sum(times):.3f} s: "
                     f"{len(inputs)} distinct, then repeats from the start",
        "op_s_p50": f"median of {len(times)} ops; too few for a high "
                    f"percentile with 10 samples beyond it",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "charged_rounds": "exact, sum over the distinct ops",
        "approx_ratio_max": "exact, max over the distinct ops",
        "success_rate": "exact, share of the distinct ops passing their check",
    }
    print(f"# workload {workload.name}: " + json.dumps(info, sort_keys=True))
    for name, unit in END_TO_END:
        print(f"{name:18s} {metrics[name]['value']!r:>24} {unit:7s} "
              f"{notes.get(name, '')}")
    return finish(workload, records, mismatches, metrics, info)


def traced_main(cs, workload, inputs, info):
    records, untraced_s, traced_s, tracer, factors, mismatches = traced_run(
        cs, inputs)
    calls, self_ns = tracer.totals()
    # correct each op's spans by the clock factor measured around that op
    self_s = collections.defaultdict(float)
    for name, per_op in self_ns.items():
        self_s[name] = sum(ns * factors[op] for op, ns in per_op.items()) / 1e9
    metrics = as_metrics(
        per_layer_values(workload, records, untraced_s, traced_s, calls,
                         self_s), PER_LAYER)
    path = OUT / f"spans-{workload.name}-{info['seed']}.jsonl"
    tracer.write(path, {"workload": workload.name, **info,
                        "span": ["name", "start_ns", "end_ns", "parent", "op"]})

    print(f"# workload {workload.name}, traced: " + json.dumps(info, sort_keys=True))
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(f"# tracing overhead: {len(inputs) / untraced_s:.4f} ops/s untraced"
          f" vs {len(inputs) / traced_s:.4f} traced "
          f"(x{traced_s / untraced_s:.3f} time)")
    print(f"# self time per span, share of {traced_s:.3f} s traced op time:")
    for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"#   {name:32s} {calls[name]:8d} calls {secs:10.4f} s "
              f"{secs / traced_s:7.1%}")
    for name, unit in PER_LAYER:
        print(f"{name:36s} {metrics[name]['value']!r:>24} {unit}")
    return finish(workload, records, mismatches, metrics, info)


def finish(workload, records, mismatches, metrics, info):
    failed = sum(1 for r in records if not r["ok"])
    # An approx op may miss its sandwich with the search's probability
    # delta; that counts as failed.  A gadget check is exact: any failure
    # there, or an exact record that did not repeat, is a wrong result.
    gadget_failures = failed if workload.kind == "gadget" else 0
    correct = not mismatches and not gadget_failures
    if mismatches:
        print(f"perfbench: exact records differ between runs of ops "
              f"{sorted(set(mismatches))}", file=sys.stderr)
    if gadget_failures:
        print(f"perfbench: {gadget_failures} gadget checks failed",
              file=sys.stderr)
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    kind = "per_layer" if "trace.overhead" in metrics else "end_to_end"
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload.name}-{info['seed']}-{kind}.json",
              "w") as fh:
        json.dump({**result, "info": info}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
