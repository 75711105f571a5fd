import json

import pytest

from congestsim import cli
from congestsim.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from congestsim.engine import MaxRoundsExceeded
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
    assert sorted(report["config"]) == ["command", "gen", "graph",
                                        "max_weight", "n", "seed"]


def test_oracle_graph_file(tmp_path, capsys):
    g = WeightedGraph(2, [(0, 1, 7)])
    path = tmp_path / "g.txt"
    path.write_text(g.to_text())
    code, out, _ = run(["oracle", "--graph", str(path)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["diameter"] == 7


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


def test_gen_requires_n(capsys):
    code, _, _ = run(["oracle", "--gen", "cycle"], capsys)
    assert code == EXIT_USAGE


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
                 {"node_count": 2, "edges": [["0", 1, 1]]}):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(body))
        code, _, err = run(["oracle", "--graph", str(path)], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and err.count("\n") == 1


def test_max_weight_below_one_is_a_usage_error(capsys):
    code, out, err = run(["approx", "diameter", "--gen", "random-connected",
                          "--n", "8", "--max-weight", "0"], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "max_weight" in err


def test_negative_trials_is_a_usage_error(capsys):
    code, out, err = run(["approx", "diameter", "--gen", "cycle", "--n", "8",
                          "--trials", "-2"], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:")


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
