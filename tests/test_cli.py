import json
import os
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction

import pytest

from congestsim import cli
from congestsim.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from congestsim.engine import MaxRoundsExceeded, Network
from congestsim.graphs import WeightedGraph
from congestsim.toolkit import CongestionFailure


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_cycle(capsys):
    code, out, _ = run(["oracle", "--gen", "cycle", "--n", "12"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["n"] == 12
    assert report["diameter"] == 6
    assert report["radius"] == 6
    assert report["hop_diameter"] == 6
    assert report["eccentricities"] == [6] * 12
    assert sorted(report["config"]) == ["command", "gen", "graph", "n", "seed"]


def test_oracle_graph_file(tmp_path, capsys):
    g = WeightedGraph(2, [(0, 1, 7)])
    path = tmp_path / "g.txt"
    path.write_text(g.to_text())
    code, out, _ = run(["oracle", "--graph", str(path)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["diameter"] == 7


def test_oracle_runs_one_exact_sssp_per_node(monkeypatch, capsys):
    # each source's row gives both its eccentricity and its min-hop row
    from congestsim import graphs
    real, calls = graphs.exact_sssp, []

    def counted(g, s):
        calls.append(s)
        return real(g, s)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "congestsim"
                and getattr(module, "exact_sssp", None) is real):
            monkeypatch.setattr(module, "exact_sssp", counted)
    code, out, _ = run(["oracle", "--gen", "random-connected", "--n", "16"],
                       capsys)
    assert code == EXIT_OK and json.loads(out)["n"] == 16
    assert sorted(calls) == list(range(16))


def test_approx_trials(capsys):
    code, out, _ = run(["approx", "diameter", "--gen", "cycle", "--n", "12",
                        "--trials", "2", "--seed", "5"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report["trials"]) == 2
    for t in report["trials"]:
        assert t["true_value"] == 6
        assert t["success"] in (True, False)
        if t["success"]:
            assert 1 <= t["ratio"] <= (1 + 1 / 4) ** 2
    agg = report["aggregate"]
    assert agg["trials"] == 2
    assert agg["success_rate"] == agg["successes"] / 2
    assert agg["theoretical_round_budget"] > 0
    assert report["config"]["seed"] == "5"


def test_approx_zero_trials(capsys):
    code, out, _ = run(["approx", "radius", "--gen", "star", "--n", "6",
                        "--trials", "0"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["trials"] == []
    assert report["aggregate"]["success_rate"] is None


def test_approx_csv(capsys):
    code, out, _ = run(["approx", "diameter", "--gen", "cycle", "--n", "8",
                        "--trials", "1", "--format", "csv"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == ("trial,seed,n,unweighted_diameter,estimate,"
                        "true_value,ratio,rounds,evaluations,success")
    assert len(lines) == 2


def test_missing_graph_file(capsys):
    code, _, err = run(["oracle", "--graph", "/nonexistent/g.txt"], capsys)
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize("body", ["1000000000 0",
                                  '{"node_count": 1000000000, "edges": []}'])
def test_graph_file_declaring_too_few_edges_is_refused_at_once(
        tmp_path, capsys, body):
    # a 12-byte file must not make the loader allocate 10^9 adjacency lists
    path = tmp_path / "g.txt"
    path.write_text(body)
    start = time.monotonic()
    code, out, err = run(["oracle", "--graph", str(path)], capsys)
    assert time.monotonic() - start < 1
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_graph_file_of_zero_nodes_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 0")
    code, out, err = run(["oracle", "--graph", str(path)], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err == "error: node_count must be >= 1: 0\n"


def test_gen_requires_n(capsys):
    code, _, _ = run(["oracle", "--gen", "cycle"], capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("gen", ["cycle", "grid", "random-connected", "star"])
@pytest.mark.parametrize("n", ["0", "-4"])
def test_every_generator_refuses_a_size_below_one_in_one_line(capsys, gen, n):
    # a grid of -4 nodes printed isqrt's own error, the others their own
    code, out, err = run(["oracle", "--gen", gen, "--n", n], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err == f"error: n must be >= 1: {n}\n"


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"], capsys)[0] == EXIT_USAGE
    assert run(["--help"], capsys)[0] == EXIT_OK


def test_gadget_build_text(tmp_path, capsys):
    out_path = tmp_path / "gadget.txt"
    code, _, _ = run(["gadget", "build", "--h", "2",
                      "--out", str(out_path)], capsys)
    assert code == EXIT_OK
    g = WeightedGraph.from_file(out_path)
    assert g.n == 71


def test_gadget_build_json(capsys):
    code, out, _ = run(["gadget", "build", "--h", "2", "--variant", "radius",
                        "--format", "json"], capsys)
    assert code == EXIT_OK
    g = WeightedGraph.from_json_dict(json.loads(out))
    assert g.n == 72


def test_gadget_verify(capsys):
    code, out, _ = run(["gadget", "verify", "--h", "2",
                        "--input-seed", "3"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["pass"] is True
    assert report["h"] == 2 and report["variant"] == "diameter"
    assert report["F"] in (0, 1)
    assert "seed" not in report["config"]


def test_gadget_verify_that_fails_exits_1(capsys):
    code, out, err = run(["gadget", "verify", "--h", "2", "--variant",
                          "radius", "--alpha", "1", "--beta", "2"], capsys)
    assert code == EXIT_FAILURE and err == ""
    report = json.loads(out)
    assert report["pass"] is False
    assert report["counterexamples"] == [
        {"check": "radius-ecc-floor", "detail": "e'(1) = 2 < 3"}]


def test_gadget_verify_ignores_format(capsys):
    outputs = [run(["gadget", "verify", "--h", "2", "--format", fmt], capsys)
               for fmt in ("text", "json")]
    assert outputs[0] == outputs[1]
    assert "format" not in json.loads(outputs[0][1])["config"]


def test_gadget_odd_h(capsys):
    code, _, err = run(["gadget", "verify", "--h", "3"], capsys)
    assert code == EXIT_USAGE
    assert "even" in err


@pytest.mark.parametrize("h", ["8", "40"])
def test_gadget_h_is_capped(capsys, h):
    code, out, err = run(["gadget", "verify", "--h", h], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_reports_byte_identical(tmp_path, capsys):
    args = ["approx", "diameter", "--gen", "random-connected", "--n", "10",
            "--trials", "2", "--seed", "9"]
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(args + ["--out", str(path)], capsys)
        assert code == EXIT_OK
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_malformed_json_graph_is_a_usage_error(tmp_path, capsys):
    for body in ({"edges": [[0, 1, 1]]}, {"node_count": 2},
                 {"node_count": "2", "edges": [[0, 1, 1]]},
                 {"node_count": 2, "edges": [["0", 1, 1]]},
                 # a bool is an int to Python, but no node count or id
                 {"node_count": True, "edges": []},
                 {"node_count": 2, "edges": [[0, True, 1]]},
                 {"node_count": 2, "edges": [[False, 1, 1]]}):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(body))
        code, out, err = run(["oracle", "--graph", str(path)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_a_json_graph_nested_too_deeply_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"edges": ' + "[" * 100000 + "]" * 100000
                    + ', "node_count": 2}')
    code, out, err = run(["oracle", "--graph", str(path)], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: malformed JSON graph:")


@pytest.mark.parametrize("edges, shown", [
    ([[0, 1]], "[0, 1]"),
    ({"a": 1}, "'a'"),
    ([None], "None"),
    ([[0, 1, 1, 1]], "[0, 1, 1, 1]"),
])
def test_a_json_edge_that_is_not_a_triple_is_a_usage_error(tmp_path, capsys,
                                                           edges, shown):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"node_count": 2, "edges": edges}))
    code, out, err = run(["oracle", "--graph", str(path)], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: edge must be a (u, v, w) triple: {shown}\n"


@pytest.mark.parametrize("form", ["text", "json"])
def test_a_disconnected_graph_file_is_a_usage_error(tmp_path, capsys, form):
    g = WeightedGraph(5, [(0, 1, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
    path = tmp_path / "g"
    path.write_text(g.to_text() if form == "text"
                    else json.dumps(g.to_json_dict()))
    for command in (["oracle"], ["approx", "diameter"], ["approx", "radius"]):
        code, out, err = run(command + ["--graph", str(path)], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: graph is disconnected (2 components): "
                       "[0, 1], [2, 3, 4]\n")


def test_an_estimate_beyond_every_float_is_reported_exact(tmp_path, capsys):
    # a weight of 10^310 made the non-integer estimate overflow a float, so
    # the run ended in an OverflowError traceback; it is kept as "p/q"
    path = tmp_path / "g.txt"
    path.write_text(f"3 2\n0 1 {10 ** 310}\n1 2 1\n")
    for fmt in ("json", "csv"):
        code, out, err = run(["approx", "diameter", "--graph", str(path),
                              "--format", fmt], capsys)
        assert code == EXIT_OK and err == ""
    trial = json.loads(run(["approx", "diameter", "--graph", str(path)],
                           capsys)[1])["trials"][0]
    assert trial["true_value"] == 10 ** 310 + 1 and trial["success"]
    estimate = Fraction(trial["estimate"])
    assert trial["estimate"] == f"{estimate.numerator}/{estimate.denominator}"
    assert estimate.denominator > 1 and estimate > 10 ** 310
    assert trial["ratio"] == float(estimate / trial["true_value"])
    # an estimate that fits a float is still a JSON number
    for weight in (10 ** 300, 10 ** 30):
        path.write_text(f"3 2\n0 1 {weight}\n1 2 1\n")
        trial = json.loads(run(["approx", "diameter", "--graph", str(path)],
                               capsys)[1])["trials"][0]
        assert isinstance(trial["estimate"], (int, float))


@pytest.mark.parametrize("command", [
    ["approx", "diameter", "--gen", "cycle", "--n", "4"],
    ["oracle", "--gen", "cycle", "--n", "4"],
    ["gadget", "build", "--h", "2"],
    ["gadget", "verify", "--h", "2"],
])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                         command, target):
    # the path is checked before any work
    for name in ("approx_diameter", "approx_radius", "exact_sssp",
                 "build_gadget", "verify_reduction"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs:
                            pytest.fail(f"{name} ran before --out was checked"))
    out_path = tmp_path if target == "directory" else tmp_path / "no" / "x"
    code, out, err = run(command + ["--out", str(out_path)], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: cannot write output file:")


@pytest.mark.parametrize("command", [
    ["approx", "radius", "--gen", "cycle", "--n", "6", "--format", "csv"],
    ["oracle", "--gen", "cycle", "--n", "6"],
    ["gadget", "build", "--h", "2"],
    ["gadget", "verify", "--h", "2"],
])
def test_out_gets_the_bytes_of_stdout(tmp_path, capsys, command):
    code, out, err = run(command, capsys)
    path = tmp_path / "report"
    assert run(command + ["--out", str(path)], capsys) == (code, "", err)
    assert path.read_text() == out and out


@pytest.mark.parametrize("n", ["5", "37"])
def test_grid_size_that_is_not_a_full_grid_is_a_usage_error(capsys, n):
    for command in (["oracle"], ["approx", "radius"]):
        code, out, err = run(command + ["--gen", "grid", "--n", n], capsys)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_grid_builds_exactly_n_nodes(capsys):
    code, out, _ = run(["oracle", "--gen", "grid", "--n", "35"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["n"] == report["config"]["n"] == 35
    assert len(report["eccentricities"]) == 35


@pytest.mark.parametrize("command", [["approx", "diameter"], ["oracle"]])
def test_max_weight_is_not_recorded_where_the_graph_ignores_it(capsys, command):
    outputs = [run(command + ["--gen", "cycle", "--n", "6",
                              "--max-weight", w], capsys)
               for w in ("3", "7")]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == EXIT_OK
    assert "max_weight" not in json.loads(outputs[0][1])["config"]


def test_max_weight_is_recorded_for_the_random_generator(capsys):
    code, out, _ = run(["oracle", "--gen", "random-connected", "--n", "6",
                        "--max-weight", "7"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["config"]["max_weight"] == 7


def test_max_weight_is_not_recorded_for_a_graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(WeightedGraph(2, [(0, 1, 7)]).to_text())
    code, out, _ = run(["approx", "radius", "--graph", str(path),
                        "--max-weight", "3"], capsys)
    assert code == EXIT_OK
    assert "max_weight" not in json.loads(out)["config"]


@pytest.mark.parametrize("command", [["approx", "diameter"], ["oracle"]])
@pytest.mark.parametrize("extra", [["--gen", "cycle", "--n", "8"], ["--n", "8"]])
def test_graph_file_with_generator_options_is_a_usage_error(
        tmp_path, capsys, command, extra):
    # a graph file and a generator, or a generator size with no generator
    path = tmp_path / "g.txt"
    path.write_text(WeightedGraph(3, [(0, 1, 2), (1, 2, 5)]).to_text())
    code, out, err = run(command + ["--graph", str(path)] + extra, capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["approx", "diameter"], ["oracle"]])
def test_graph_source_is_required(capsys, command):
    code, out, err = run(command + ["--n", "8"], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_max_weight_below_one_is_a_usage_error(capsys):
    code, out, err = run(["approx", "diameter", "--gen", "random-connected",
                          "--n", "8", "--max-weight", "0"], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "max_weight" in err


def test_max_weight_that_is_not_a_number_is_a_usage_error(capsys):
    code, out, err = run(["approx", "diameter", "--gen", "random-connected",
                          "--n", "8", "--max-weight", "x"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: argument --max-weight: not an integer: 'x'\n"


@pytest.mark.parametrize("command", [["approx", "diameter"], ["oracle"]])
@pytest.mark.parametrize("source", ["cycle", "graph"])
@pytest.mark.parametrize("max_weight", ["0", "-3"])
def test_max_weight_below_one_is_a_usage_error_for_every_graph_source(
        tmp_path, capsys, command, source, max_weight):
    if source == "graph":
        path = tmp_path / "g.txt"
        path.write_text(WeightedGraph(2, [(0, 1, 7)]).to_text())
        graph_args = ["--graph", str(path)]
    else:
        graph_args = ["--gen", "cycle", "--n", "8"]
    code, out, err = run(command + graph_args + ["--max-weight", max_weight],
                         capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "max_weight" in err


def test_negative_trials_is_a_usage_error(capsys):
    code, out, err = run(["approx", "diameter", "--gen", "cycle", "--n", "8",
                          "--trials", "-2"], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:")


def test_a_search_without_a_usable_value_is_reported_as_failed(
        monkeypatch, capsys):
    # empty skeletons leave every probe degenerate: LowConfidenceResult
    monkeypatch.setattr(Network, "sample_skeleton_sets",
                        lambda self, r, count: [set() for _ in range(count)])
    code, out, err = run(["approx", "diameter", "--gen", "cycle", "--n", "6"],
                         capsys)
    assert code == EXIT_OK and err == ""
    [trial] = json.loads(out)["trials"]
    assert trial["estimate"] is None and trial["ratio"] is None
    assert trial["success"] is False and trial["true_value"] == 3
    assert (trial["evaluations"], trial["rounds"]) == (15, 4)


def test_bandwidth_exceeded_is_a_one_line_error(capsys):
    code, out, err = run(["approx", "diameter", "--gen", "cycle", "--n", "8",
                          "--bandwidth", "1"], capsys)
    assert code == EXIT_FAILURE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("bandwidth", ["0", "-5"])
def test_nonpositive_bandwidth_is_a_usage_error(capsys, bandwidth):
    code, out, err = run(["approx", "diameter", "--gen", "cycle", "--n", "8",
                          "--bandwidth", bandwidth], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("option", ["--delta=1/0", "--eps-floor=inf",
                                    "--eps-floor=-inf"])
def test_unreadable_number_is_a_usage_error(capsys, option):
    code, out, err = run(["approx", "diameter", "--gen", "cycle", "--n", "8",
                          option], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("decimal, fraction", [
    ("1e-7", "1/10000000"), ("0.1", "1/10"), ("0.9999999", "9999999/10000000")])
def test_decimal_delta_is_read_exactly(capsys, decimal, fraction):
    reports = []
    for delta in (decimal, fraction):
        code, out, _ = run(["approx", "diameter", "--gen", "cycle", "--n",
                            "8", "--delta", delta], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["config"].pop("delta") == delta
        reports.append(report)
    assert reports[0] == reports[1]


def test_delta_below_every_float_is_read_exactly():
    args = cli.build_parser().parse_args(
        ["approx", "diameter", "--gen", "cycle", "--n", "8",
         "--delta", "1e-400"])
    assert cli._parse_fraction(args.delta) == Fraction(1, 10 ** 400)


@pytest.mark.parametrize("delta", ["1e-4301", "1e-99999999", "1e+99999999",
                                   "1e-x", "nan", "inf"])
def test_unreadable_delta_is_a_usage_error(capsys, delta):
    code, out, err = run(["approx", "diameter", "--gen", "cycle", "--n", "8",
                          f"--delta={delta}"], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "--delta" in err


def test_delta_below_the_floor_is_a_usage_error(capsys):
    start = time.monotonic()
    code, out, err = run(["approx", "diameter", "--gen", "cycle", "--n", "8",
                          "--delta", "1e-400"], capsys)
    assert time.monotonic() - start < 5
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "--delta" in err and "1e-12" in err


@pytest.mark.parametrize("argv", [
    ["--n", "4", "--trials", "0", "--delta", "5"],
    ["--n", "1", "--delta", "7/3"],
    ["--n", "8", "--delta", "1"],
])
def test_delta_of_1_or_more_is_a_usage_error(capsys, argv):
    # whether or not a search runs
    code, out, err = run(["approx", "diameter", "--gen", "cycle"] + argv,
                         capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "--delta" in err


@pytest.mark.parametrize("decimal, fraction", [
    ("0.3333333", "3333333/10000000"), ("0.9999999", "9999999/10000000")])
def test_decimal_eps_floor_is_read_exactly(capsys, decimal, fraction):
    # n = 16's default eps is 1/4, below either floor
    reports = []
    for floor in (decimal, fraction):
        code, out, _ = run(["approx", "diameter", "--gen", "cycle", "--n",
                            "16", "--eps-floor", floor], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["config"].pop("eps_floor") == floor
        assert report["trials"][0]["params"]["eps"] == fraction
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("value", ["-1", "0", "2"])
def test_eps_floor_outside_the_unit_interval_is_a_usage_error(capsys, value):
    code, out, err = run(["approx", "diameter", "--gen", "cycle", "--n", "8",
                          "--eps-floor", value], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "--eps-floor" in err


@pytest.mark.parametrize("quantity", ["diameter", "radius"])
def test_single_node_needs_no_rounds(capsys, quantity):
    code, out, _ = run(["approx", quantity, "--gen", "cycle", "--n", "1"],
                       capsys)
    assert code == EXIT_OK
    trial = json.loads(out)["trials"][0]
    assert trial["unweighted_diameter"] == 0 and trial["rounds"] == 0
    assert trial["estimate"] == trial["true_value"] == 0
    assert trial["success"] is True


@pytest.mark.parametrize("failure", [CongestionFailure("jammed"),
                                     MaxRoundsExceeded("no halt")])
def test_run_failures_are_one_line_errors(monkeypatch, capsys, failure):
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli, "approx_diameter", fail)
    code, out, err = run(["approx", "diameter", "--gen", "cycle", "--n", "8"],
                         capsys)
    assert code == EXIT_FAILURE
    assert out == "" and err == f"error: {failure}\n"


@pytest.mark.parametrize("command", [["oracle"], ["approx", "radius"]])
@pytest.mark.parametrize("via", ["file", "symlink"])
def test_out_naming_the_graph_input_is_refused(tmp_path, capsys, command,
                                               via):
    # the input keeps its bytes: --out is checked before it is opened
    code, _, _ = run(["gadget", "build", "--h", "2",
                      "--out", str(tmp_path / "g.txt")], capsys)
    assert code == EXIT_OK
    graph = tmp_path / "g.txt"
    before = graph.read_bytes()
    out_path = graph
    if via == "symlink":
        out_path = tmp_path / "link.txt"
        out_path.symlink_to(graph)
    code, out, err = run(command + ["--graph", str(graph),
                                    "--out", str(out_path)], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert str(out_path) in err
    assert graph.read_bytes() == before and before


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail")
@pytest.mark.parametrize("command", [
    ["oracle", "--gen", "cycle", "--n", "4"],
    ["approx", "radius", "--gen", "cycle", "--n", "6"],
    ["gadget", "build", "--h", "4"],
])
def test_a_failed_report_write_is_one_error_line(capsys, command):
    # a small report fails when the file is closed, a large one while it
    # is written: either way one line naming the output, and exit 1
    code, out, err = run(command + ["--out", "/dev/full"], capsys)
    assert code == EXIT_FAILURE
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: cannot write /dev/full:")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail")
@pytest.mark.parametrize("command", [
    ["oracle", "--gen", "cycle", "--n", "4"],
    ["gadget", "build", "--h", "4"],
    ["approx", "radius", "--gen", "cycle", "--n", "6", "--format", "csv"],
])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_failed_write_to_stdout_is_one_error_line(command, unbuffered):
    # a buffered stdout fails when it is flushed, an unbuffered one, or a
    # large report, while it is written; the interpreter's own flush at
    # exit must not fail again
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "congestsim.cli"]
                              + command, stdout=full, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    assert proc.returncode == EXIT_FAILURE
    assert proc.stderr.startswith("error: cannot write standard output:")
    assert proc.stderr.count("\n") == 1
