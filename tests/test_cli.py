import json
import time

import pytest

from indcert import cli, verify
from indcert.euler import MAX_FRONTIER_STATES
from indcert.graphs import cylinder, grid
from randgraphs import dense_random_graph


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def certificate(step, final):
    # the path a-b-c; del_vertex(a; c) is valid and leaves the edge b-c
    return {
        "name": "demo",
        "initial": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
        "steps": [step],
        "expected_final": final,
    }


VALID_STEP = {"op": "del_vertex", "target": "a", "witness": "c"}
BC_EDGE = {"vertices": ["b", "c"], "edges": [["b", "c"]]}


def test_exit_0_on_success(tmp_path, capsys):
    g = write(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    assert cli.main(["chi", g]) == cli.EXIT_PASS
    assert capsys.readouterr().out.strip() == "1"
    cert = write(tmp_path, "cert.json", certificate(VALID_STEP, BC_EDGE))
    assert cli.main(["replay", cert]) == cli.EXIT_PASS


def test_replay_summary_says_when_betti_was_skipped(tmp_path, capsys):
    cert = write(tmp_path, "cert.json", certificate(VALID_STEP, BC_EDGE))
    assert cli.main(["replay", cert, "--check", "betti"]) == cli.EXIT_PASS
    assert capsys.readouterr().out.splitlines()[-1] == "demo: PASS"
    assert cli.main(["replay", cert, "--check", "betti", "--budget", "1"]) == cli.EXIT_PASS
    assert capsys.readouterr().out.splitlines()[-1] == "demo: PASS betti=skipped"


def test_exit_1_on_verification_failure(tmp_path):
    cert = write(tmp_path, "cert.json", certificate(VALID_STEP, {"vertices": ["b", "c"]}))
    assert cli.main(["replay", cert]) == cli.EXIT_VERIFY_FAIL


def test_exit_2_on_precondition_violation(tmp_path):
    # c lies in N[b], so it does not survive the deletion of b's neighbourhood
    step = {"op": "del_vertex", "target": "b", "witness": "a"}
    cert = write(tmp_path, "cert.json", certificate(step, BC_EDGE))
    assert cli.main(["replay", cert]) == cli.EXIT_PRECONDITION


def test_exit_3_on_malformed_input(tmp_path, capsys):
    g = write(tmp_path, "g.json", '{"vertices":"ab","edges":["ab"]}')
    assert cli.main(["chi", g]) == cli.EXIT_INPUT
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["chi", "GRAPH", "--budget", "abc"],
    ["verify", "corollaries", "--budget", "-1"],
    ["frobnicate", "GRAPH"],
    ["betti"],
])
def test_exit_3_on_a_usage_error(tmp_path, capsys, argv):
    g = write(tmp_path, "g.json", grid(1, 3).to_json())
    with pytest.raises(SystemExit) as info:
        cli.main([g if a == "GRAPH" else a for a in argv])
    assert info.value.code == cli.EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc", [
    ("chi", {"family": "C", "m": True, "n": 3}),
    ("chi", {"family": "C", "m": 2, "n": True}),
    ("replay", {**certificate(VALID_STEP, BC_EDGE), "name": ["x"]}),
    ("replay", {**certificate(VALID_STEP, BC_EDGE), "note": 7}),
    ("chi", {"vertices": ["a", "b"], "edge": [["a", "b"]]}),
    ("replay", {**certificate(VALID_STEP, BC_EDGE), "notes": ""}),
])
def test_exit_3_on_a_malformed_document(tmp_path, capsys, command, doc):
    path = write(tmp_path, "doc.json", doc)
    assert cli.main([command, path]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_exits_3_on_a_negative_config_value(tmp_path, capsys):
    # a negative seed is fine
    config = write(tmp_path, "suite.conf", "seed = -4\nbudget = -3\n")
    assert cli.main(["verify", "corollaries", "--config", config]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: line 2: budget must not be negative, not '-3'\n"


def test_chi_of_a_long_path_needs_no_recursion(tmp_path, capsys):
    # I(P_3000) is homotopy equivalent to S^999, so chi~ = (-1)^999
    g = write(tmp_path, "path.json", grid(1, 3000).to_json())
    assert cli.main(["chi", g]) == cli.EXIT_PASS
    assert capsys.readouterr().out.strip() == "-1"


def test_exit_3_when_the_complex_exceeds_the_face_budget(tmp_path, capsys):
    g = write(tmp_path, "path.json", grid(1, 3000).to_json())
    assert cli.main(["complex", g]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: face budget") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_chi_exits_3_past_the_frontier_state_budget(tmp_path, capsys):
    # uncapped, the sweep on this G(80, 0.2) ran for many seconds and took
    # hundreds of megabytes
    g = write(tmp_path, "g.json", dense_random_graph(80, 0.2, 1).to_json())
    t0 = time.perf_counter()
    assert cli.main(["chi", g]) == cli.EXIT_INPUT
    assert time.perf_counter() - t0 < 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: frontier sweep exceeded its budget of {MAX_FRONTIER_STATES} states\n"
    )


@pytest.mark.parametrize("p", ["2", "3"])
def test_betti_of_the_three_row_cylinder(tmp_path, capsys, p):
    # I(C3 4) is a wedge of three 2-spheres
    g = write(tmp_path, "g.json", cylinder(3, 4).to_json())
    assert cli.main(["betti", g, "--p", p]) == cli.EXIT_PASS
    assert capsys.readouterr().out == "2:3\n"


def test_betti_exits_3_over_the_face_budget(tmp_path, capsys):
    g = write(tmp_path, "g.json", cylinder(3, 4).to_json())
    assert cli.main(["betti", g, "--budget", "10"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: face budget of 10 faces exceeded\n"


def test_betti_exits_3_on_a_non_prime(tmp_path, capsys):
    g = write(tmp_path, "g.json", cylinder(3, 4).to_json())
    assert cli.main(["betti", g, "--p", "4"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: 4 is not prime\n"


def test_verify_exits_3_on_a_non_prime_even_when_the_budget_skips_betti(tmp_path, capsys):
    config = write(tmp_path, "suite.conf", "c1_max = 5\nprimes = 4\n")
    argv = ["verify", "corollaries", "--config", config, "--budget", "10"]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: line 2: primes: 4 is not prime\n"


def test_selftest_reports_a_collapse_oracle_budget_stop_as_skipped(capsys):
    assert cli.main(["selftest", "--budget", "5"]) == cli.EXIT_PASS
    assert "collapse oracle x200 PASS betti=skipped" in capsys.readouterr().out.splitlines()


def test_exit_3_when_the_input_is_too_deeply_nested(tmp_path, capsys):
    # json raises RecursionError on this document
    g = write(tmp_path, "nested.json", "[" * 100000)
    assert cli.main(["chi", g]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.strip() == "error: the input is too deeply nested"


@pytest.mark.parametrize("argv, want_config, want_sections", [
    (
        ["verify", "all", "--config", "CONFIG", "--seed", "3", "--budget", "50"],
        verify.SuiteConfig(c1_max=4, checks="chi", seed=3, budget=50),
        ("corollaries", "appendix", "replays", "properties"),
    ),
    (
        ["selftest", "--seed", "7", "--budget", "50"],
        verify.SuiteConfig(seed=7, budget=50),
        ("replays", "properties"),
    ),
])
def test_suite_commands_pass_config_and_sections(
    tmp_path, monkeypatch, argv, want_config, want_sections
):
    config_file = write(tmp_path, "suite.conf", "c1_max = 4\nchecks = chi\nseed = 99\n")
    argv = [config_file if a == "CONFIG" else a for a in argv]
    calls = []

    def fake_run_suite(config, sections):
        calls.append((config, sections))
        return verify.SuiteSummary((), config)

    monkeypatch.setattr(verify, "run_suite", fake_run_suite)
    assert cli.main(argv) == cli.EXIT_PASS
    assert calls == [(want_config, want_sections)]
