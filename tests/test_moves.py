import random
import time

import pytest

from indcert import certificates
from indcert.complexes import independence_complex
from indcert.euler import ReplaySweep, _sweep, adjacency_masks, chi_reduced_recursive
from indcert.graphs import GraphError, cylinder, make_graph
from indcert.moves import (
    ADD_EDGE,
    DEL_EDGE,
    DEL_VERTEX,
    Certificate,
    OpStep,
    PreconditionError,
    apply_step,
    certificate_from_json,
    check_step,
    replay,
    step_direction,
    touched_labels,
)


def path(*names):
    return make_graph(list(names), list(zip(names, names[1:])))


def test_add_edge_precondition_on_length_four_path():
    g = path("u", "x", "y", "z", "v")
    assert check_step(g, OpStep(ADD_EDGE, ("u", "v"), "y")).ok


def test_witness_must_survive_deletion():
    g = path("a", "b", "c")
    check = check_step(g, OpStep(DEL_VERTEX, "b", "a"))
    assert not check.ok and "survive" in check.reason


def test_witness_must_be_isolated():
    g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert not check_step(g, OpStep(DEL_VERTEX, "a", "c")).ok
    h = make_graph(["a", "b", "c"], [("a", "b")])
    assert check_step(h, OpStep(DEL_VERTEX, "a", "c")).ok


def test_looped_witness_rejected():
    g = make_graph(["a", "b", "c"], [("a", "b")], ["c"])
    check = check_step(g, OpStep(DEL_VERTEX, "a", "c"))
    assert not check.ok and "loop" in check.reason


def test_del_edge_precondition():
    # On a-b-c-d, N[a] ∪ N[b] = {a, b, c} leaves d isolated: a valid witness.
    g = path("a", "b", "c", "d")
    assert check_step(g, OpStep(DEL_EDGE, ("a", "b"), "d")).ok
    with pytest.raises(GraphError):
        check_step(g, OpStep(DEL_EDGE, ("a", "c"), "b"))
    # On a-b-c, c lies in N[b], so del_edge((a,b); c) has no witness. Accepting
    # it would change the homotopy type: chi~(I(P3)) = 1 (I(P3) ≃ S^0), while
    # chi~(I(P3 - ab)) = 0 (a becomes a cone point).
    check = check_step(path("a", "b", "c"), OpStep(DEL_EDGE, ("a", "b"), "c"))
    assert not check.ok and "survive" in check.reason


def test_add_edge_requires_absent_edge():
    g = path("a", "b", "c")
    with pytest.raises(GraphError):
        check_step(g, OpStep(ADD_EDGE, ("a", "b"), "c"))


def test_step_construction_guards():
    with pytest.raises(GraphError):
        OpStep(DEL_VERTEX, "v", "v")
    with pytest.raises(GraphError):
        OpStep(DEL_EDGE, ("a", "b"), "a")
    with pytest.raises(GraphError):
        OpStep(ADD_EDGE, ("a", "a"), "u")
    with pytest.raises(GraphError):
        OpStep("remove", "v", "u")


def test_apply_step_raises_with_diagnostic():
    g = path("a", "b", "c")
    with pytest.raises(PreconditionError, match="survive"):
        apply_step(g, OpStep(DEL_VERTEX, "b", "a"))


def test_apply_step_edits():
    g = path("u", "x", "y", "z", "v")
    h = apply_step(g, OpStep(ADD_EDGE, ("u", "v"), "y"))
    assert h.has_edge("u", "v")
    h2 = apply_step(h, OpStep(DEL_EDGE, ("u", "x"), "z"))
    assert not h2.has_edge("u", "x")
    h3 = apply_step(h2, OpStep(DEL_VERTEX, "z", "x"))
    assert "z" not in h3.vertex_set


def test_face_counts_move_the_right_way():
    g = path("u", "x", "y", "z", "v")
    n0 = independence_complex(g).n_faces()
    h = apply_step(g, OpStep(ADD_EDGE, ("u", "v"), "y"))
    assert independence_complex(h).n_faces() < n0
    h2 = apply_step(h, OpStep(DEL_EDGE, ("u", "x"), "z"))
    assert independence_complex(h2).n_faces() > independence_complex(h).n_faces()
    h3 = apply_step(h2, OpStep(DEL_VERTEX, "z", "x"))
    assert independence_complex(h3).n_faces() < independence_complex(h2).n_faces()


def test_step_directions():
    assert step_direction(OpStep(DEL_VERTEX, "v", "u")) == "collapse"
    assert step_direction(OpStep(ADD_EDGE, ("a", "b"), "u")) == "collapse"
    assert step_direction(OpStep(DEL_EDGE, ("a", "b"), "u")) == "expansion"


def test_replay_passes_and_checks_chi():
    g = path("u", "x", "y", "z", "v")
    final = make_graph(["u", "v", "x", "y"], [("u", "v"), ("x", "y")])
    cert = Certificate(
        "edge-to-path", g,
        (
            OpStep(ADD_EDGE, ("u", "v"), "y"),
            OpStep(DEL_EDGE, ("u", "x"), "z"),
            OpStep(DEL_VERTEX, "z", "x"),
        ),
        final,
    )
    report = replay(cert, checks="betti")
    assert report.passed and not report.betti_skipped
    chis = {s.chi_after for s in report.steps}
    assert len(chis) == 1
    # a face budget of one stops every Betti profile; chi~ still checks each step
    stopped = replay(cert, checks="betti", budget=1)
    assert stopped.passed and stopped.betti_skipped
    assert stopped.to_json_dict()["betti_skipped"] is True
    assert [s.chi_after for s in stopped.steps] == [s.chi_after for s in report.steps]


def test_replay_reordered_steps_fails_at_first_broken_step():
    g = path("u", "x", "y", "z", "v")
    final = make_graph(["u", "v", "x", "y"], [("u", "v"), ("x", "y")])
    cert = Certificate(
        "reordered", g,
        (
            OpStep(DEL_EDGE, ("u", "x"), "z"),
            OpStep(ADD_EDGE, ("u", "v"), "y"),
            OpStep(DEL_VERTEX, "z", "x"),
        ),
        final,
    )
    report = replay(cert)
    assert not report.passed
    assert report.failure == "precondition"
    assert "step 0" in report.failure_detail


def test_replay_detects_final_mismatch():
    g = path("a", "b", "c")
    wrong_final = path("a", "b", "c")
    cert = Certificate(
        "wrong-final", g, (OpStep(DEL_VERTEX, "c", "a"),), wrong_final
    )
    report = replay(cert)
    assert not report.passed and report.failure == "final_mismatch"


def test_certificate_json_round_trip():
    text = """
    {
      "name": "demo",
      "initial": {"family": "C", "m": 1, "n": 6},
      "steps": [
        {"op": "add_edge", "target": ["r1c1", "r1c5"], "witness": "r1c3"},
        {"op": "del_edge", "target": ["r1c1", "r1c2"], "witness": "r1c4"},
        {"op": "del_vertex", "target": "r1c4", "witness": "r1c2"}
      ],
      "expected_final": {
        "vertices": ["r1c1", "r1c2", "r1c3", "r1c5", "r1c6"],
        "edges": [["r1c1", "r1c5"], ["r1c1", "r1c6"], ["r1c5", "r1c6"],
                  ["r1c2", "r1c3"]],
        "loops": []
      },
      "note": "wrap a hexagon down to a triangle and a detached edge"
    }
    """
    cert = certificate_from_json(text)
    assert len(cert.steps) == 3
    report = replay(cert, checks="chi")
    assert report.passed, report.failure_detail
    again = certificate_from_json(cert.to_json())
    assert again.steps == cert.steps
    assert again.name == cert.name


@pytest.mark.parametrize("step", [
    '{"op": "del_edge", "target": ["r1c1", 2], "witness": "r1c4"}',
    '{"op": "del_edge", "target": ["r1c1", "r1c2", "r1c3"], "witness": "r1c4"}',
    '{"op": "del_vertex", "target": 4, "witness": "r1c2"}',
    '{"op": "del_vertex", "target": "", "witness": "r1c2"}',
    '{"op": "del_vertex", "target": "r1c4", "witness": ["r1c2"]}',
    '{"op": "del_vertex", "target": "r1c4", "witness": "r1c2", "why": "r1c2 is isolated"}',
])
def test_step_document_needs_label_targets(step):
    text = (
        '{"name": "bad", "initial": {"family": "C", "m": 1, "n": 6}, "steps": ['
        + step + '], "expected_final": {"vertices": ["r1c1"]}}'
    )
    with pytest.raises(GraphError):
        certificate_from_json(text)


def _suite_certificates():
    for cert_id in certificates.BUILTIN_IDS:
        if cert_id not in certificates.PARAMETERIZED_IDS:
            yield certificates.builtin_certificate(cert_id)
    for cert_id, ns in (("ch1", range(1, 6)), ("p4n-to-x", range(3, 15)),
                        ("y-recursion", range(4, 15))):
        for n in ns:
            yield certificates.builtin_certificate(cert_id, n)
    rng = random.Random(7)
    for rule in ("thm1", "thm2", "thm3"):
        for _ in range(20):
            yield certificates.make_replacement(*certificates.random_host(rule, rng))[1]


def test_replay_sweep_matches_the_dp_on_every_replayed_graph():
    count = 0
    for cert in _suite_certificates():
        g = cert.initial_graph()
        sweep = ReplaySweep(g, touched_labels(cert.steps), len(cert.steps) + 1)
        assert sweep.chi(g) == chi_reduced_recursive(g), cert.name
        for step in cert.steps:
            g = apply_step(g, step)
            assert sweep.chi(g) == chi_reduced_recursive(g), cert.name
        assert replay(cert).passed, cert.name
        count += 1
    assert count >= 10 + 5 + 12 + 11 + 60


def test_replay_sweep_shares_most_of_the_appendix_sweep():
    cert = certificates.builtin_certificate("p4n-to-x", 14)
    g = cert.initial_graph()
    sweep = ReplaySweep(g, touched_labels(cert.steps), len(cert.steps) + 1)
    assert len(adjacency_masks(g)[0]) == 56
    assert 56 - len(sweep._order) >= 40


def test_replay_keeps_the_greedy_order_on_a_star():
    # The greedy sweep takes each pendant leaf right after the hub, so it
    # retires at once; the reversed order would keep every leaf active until
    # the hub, 2^19 states here.
    leaves = [f"l{i:02d}" for i in range(20)]
    g = make_graph(["hub"] + leaves, [("hub", v) for v in leaves])
    verts, adj = adjacency_masks(g)
    first = next(verts[v] for v, _ in _sweep(adj) if verts[v] != "hub")
    other = next(v for v in leaves if v != first)
    cert = Certificate(
        "star", g, (OpStep(DEL_VERTEX, first, other),), g.delete_vertices({first})
    )
    t0 = time.perf_counter()
    report = replay(cert)
    assert report.passed
    assert [s.chi_after for s in report.steps] == [chi_reduced_recursive(cert.expected_final)]
    assert time.perf_counter() - t0 < 5
