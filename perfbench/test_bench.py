"""Tests of the benchmark itself: python3 -m pytest perfbench/test_bench.py"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

TINY = {
    "approx-dense": dict(shapes=(("random-connected", 8, "diameter"),)),
    "approx-sparse": dict(shapes=(("cycle", 8, "radius"),)),
    "gadget-verify": dict(shapes=("diameter",), h=2),
}
LAYERS = {
    "approx": {"graphs", "engine", "toolkit", "search"},
    "gadget": {"graphs", "gadgets"},
}


@pytest.fixture(scope="module")
def cs():
    return run.import_congestsim()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_agree(cs, name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], ops=1,
                                   **TINY[name])
    inputs = workloads.make_inputs(cs, workload, "test")
    records, _, _, tracer, factors, mismatches = run.traced_run(cs, inputs)
    assert mismatches == []
    assert all(r["ok"] for r in records) and factors[0] > 0
    seen = {span[0].split(".")[0] for span in tracer.spans}
    assert seen == LAYERS[workload.kind] | {spans.OP_SPAN}
    assert all(span[4] == 0 for span in tracer.spans)


def test_wrappers_are_removed(cs):
    originals = [(module, attr, _lookup(module, attr))
                 for module, attr, _ in spans.TARGETS]
    with spans.Tracer().installed():
        assert all(_lookup(m, a) is not f for m, a, f in originals)
    assert all(_lookup(m, a) is f for m, a, f in originals)


def _lookup(module_name, attr):
    owner = sys.modules[module_name]
    for part in attr.split("."):
        owner = vars(owner)[part]
    return owner


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "approx-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
