import random

import pytest

from indcert import certificates, moves, verify
from indcert.graphs import GraphError, make_graph
from randgraphs import random_test_graphs


def _checked_steps(g):
    """Every valid step of g by `moves.check_step` on each candidate, in the
    order `verify._valid_steps` promises."""
    found = []
    verts = list(g.vertices)
    for v in verts:
        for u in verts:
            if u == v:
                continue
            step = moves.OpStep(moves.DEL_VERTEX, v, u)
            if moves.check_step(g, step).ok:
                found.append(step)
    for a, b in sorted(g.edges):
        for u in verts:
            if u in (a, b):
                continue
            step = moves.OpStep(moves.DEL_EDGE, (a, b), u)
            if moves.check_step(g, step).ok:
                found.append(step)
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            if g.has_edge(a, b):
                continue
            for u in verts:
                if u in (a, b):
                    continue
                step = moves.OpStep(moves.ADD_EDGE, (a, b), u)
                if moves.check_step(g, step).ok:
                    found.append(step)
    return found


def test_valid_steps_match_check_step_on_random_graphs():
    checked = 0
    for g in random_test_graphs(7, 600, 9, 6):
        want = _checked_steps(g)
        assert verify._valid_steps(g) == want, g.to_json()
        checked += bool(want)
    assert checked > 500


def test_valid_steps_on_edge_cases():
    assert verify._valid_steps(make_graph([])) == []
    looped = make_graph(["a", "b", "c"], [("a", "b")], ["a", "b", "c"])
    assert verify._valid_steps(looped) == _checked_steps(looped) == []
    # a looped vertex can be deleted and joined by an edge, but never witnesses
    g = make_graph(["a", "b", "c"], [], ["a"])
    dv, ae = moves.DEL_VERTEX, moves.ADD_EDGE
    assert verify._valid_steps(g) == _checked_steps(g) == [
        moves.OpStep(dv, "a", "b"), moves.OpStep(dv, "a", "c"),
        moves.OpStep(dv, "b", "c"), moves.OpStep(dv, "c", "b"),
        moves.OpStep(ae, ("a", "b"), "c"), moves.OpStep(ae, ("a", "c"), "b"),
    ]


def test_oracle_budget_stop_is_reported_as_skipped():
    cert = certificates.builtin_certificate("c33")
    assert verify.oracle_validate_certificate(cert) == (True, False, "")
    assert verify.oracle_validate_certificate(cert, budget=10) == (
        True, True, "stopped at step 0: face budget",
    )
    rows = {r.case_id: r for r in verify.builtin_oracle_suite(budget=10)}
    row = rows["oracle c33"]
    assert row.passed and row.betti_skipped
    assert row.detail == "stopped at step 0: face budget"
    assert "betti=skipped" in row.line()


def test_random_oracle_budget_stop_is_reported_as_skipped():
    # the same policy as the builtin oracle rows: the instance counts as done
    row = verify.oracle_suite(random.Random(1), instances=3, budget=5)
    assert row.passed and row.betti_skipped and row.detail == ""
    assert row.line() == "collapse oracle x3 PASS betti=skipped"
    assert not verify.oracle_suite(random.Random(1), instances=3).betti_skipped


def test_replacement_rows_say_when_a_budget_stopped_betti():
    rows = verify.replacement_suite(random.Random(5), per_rule=2)
    assert all(r.passed and not r.betti_skipped for r in rows)
    rows = verify.replacement_suite(random.Random(5), per_rule=2, budget=1)
    assert len(rows) == 3
    assert all(r.passed and r.betti_skipped for r in rows)
    assert all("betti=skipped" in r.line() for r in rows)


SMALL = verify.SuiteConfig(
    c1_max=2, c2_max=2, c3_max=1, m2_max=2, m3_max=1, ch1_max=2, appendix_max=4,
    seed=5, random_hosts=1, oracle_instances=2, join_pairs=2, edge_identities=2,
    agreement=2,
)


def test_run_suite_on_a_small_config():
    summary = verify.run_suite(SMALL)
    ids = [r.case_id for r in summary.reports]
    assert ids[:17] == [
        "C1 1", "C1 2", "C2 1", "C2 2", "C3 1", "M2 1", "M2 2", "M3 1",
        "CH1 1", "CH1 2",
        "P4 closed form n=1..4", "P4 parity n=1..4",
        "P4 -> chorded-grid transfer n=3..4", "P4 two-column recursion n=4..4",
        "Y three-column sign flip n=4..4", "Y base values", "Y branch values n=1..4",
    ]
    replays = [f"replay {c}" for c in certificates.BUILTIN_IDS
               if c not in certificates.PARAMETERIZED_IDS]
    replays += [f"replay ch1({n})" for n in range(1, 6)]
    replays += [f"replay p4n-to-x({n})" for n in range(3, 11)]
    replays += [f"replay y-recursion({n})" for n in range(4, 11)]
    oracles = [f"oracle {c}" for c in verify.ORACLE_CHECKED_BUILTINS]
    assert ids[17:] == replays + oracles + [
        "thm1 random hosts x1", "thm2 random hosts x1", "thm3 random hosts x1",
        "collapse oracle x2", "disjoint-union chi identity x2",
        "edge-deletion chi identity x2", "enumerate/recursive agreement x2",
    ]
    assert summary.passed
    assert all(r.verdict == "PASS" and not r.betti_skipped for r in summary.reports)
    assert summary.lines()[-1] == f"TOTAL {len(ids)} cases, {len(ids)} passed, 0 failed"
    # a corollary row carries its Betti evidence over both primes
    assert summary.reports[1].line() == "C1 2 PASS chi=1 betti=p2:0:1;p3:0:1"


def test_every_builtin_certificate_replays_with_betti():
    # with no face budget, so that no Betti check is skipped
    jobs = [(c, None) for c in certificates.BUILTIN_IDS
            if c not in certificates.PARAMETERIZED_IDS]
    jobs += [("ch1", n) for n in range(1, 6)]
    jobs += [("p4n-to-x", n) for n in range(3, 11)]
    jobs += [("y-recursion", n) for n in range(4, 11)]
    for cert_id, n in jobs:
        cert = certificates.builtin_certificate(cert_id, n)
        rep = moves.replay(cert, checks="betti", budget=None)
        assert rep.passed and not rep.betti_skipped, (cert_id, n, rep.failure_detail)


def test_random_replacements_replay_for_each_rule():
    rng = random.Random(11)
    for rule in ("thm1", "thm2", "thm3"):
        for _ in range(3):
            g, patch = certificates.random_host(rule, rng)
            _, cert = certificates.make_replacement(g, patch)
            assert moves.replay(cert, checks="betti").passed, rule


def test_parse_config_reads_every_kind_of_value():
    text = "# a comment\nc1_max = 4\nprimes = 2, 3 5\nchecks chi\n"
    assert verify.parse_config(text) == verify.SuiteConfig(
        c1_max=4, primes=(2, 3, 5), checks="chi"
    )


@pytest.mark.parametrize("text, message", [
    ("seed = 1\ncolour = red\n", "line 2: unknown config key 'colour'"),
    ("c1_max = abc\n", "line 1: c1_max must be an integer, not 'abc'"),
    ("\nprimes = 2, x\n", "line 2: primes must be an integer, not 'x'"),
    ("primes = 2, 4\n", "line 1: primes: 4 is not prime"),
    ("seed = 2\nprimes = 3, 3, 2\n", "line 2: primes: 3 is given twice"),
    ("seed = 1\nprimes =\n", "line 2: primes: no prime given"),
    ("checks = all\n", "line 1: checks must be chi or betti"),
    ("c1_max = -3\n", "line 1: c1_max must not be negative, not '-3'"),
    ("seed = -5\nrandom_hosts = -1\n", "line 2: random_hosts must not be negative, not '-1'"),
])
def test_parse_config_errors_name_the_line(text, message):
    with pytest.raises(GraphError) as info:
        verify.parse_config(text)
    assert str(info.value) == message
