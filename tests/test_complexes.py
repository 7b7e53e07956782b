import random

import pytest

from indcert.complexes import SimplicialComplex, collapse_oracle, independence_complex
from indcert.euler import FaceBudgetExceeded, chi_reduced
from indcert.graphs import GraphError, cylinder, grid, make_graph
from indcert.homology import collapse_core
from indcert.moves import ADD_EDGE, DEL_EDGE, DEL_VERTEX, OpStep, PreconditionError


def faces_of(g, budget=None):
    return independence_complex(g, budget=budget).faces()


def f_vector(k):
    """Face counts by size, from the empty face up."""
    sizes = [m.bit_count() for m in k.face_masks]
    return tuple(sizes.count(s) for s in range(max(sizes) + 1))


def test_triangle_complex_is_three_points():
    k = independence_complex(cylinder(1, 3))
    assert k.faces() == {
        frozenset(), frozenset({"r1c1"}), frozenset({"r1c2"}), frozenset({"r1c3"})
    }


def test_edgeless_pair_gives_full_simplex():
    k = independence_complex(make_graph(["a", "b"]))
    assert k.faces() == {
        frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})
    }


def test_looped_vertex_contributes_nothing():
    k = independence_complex(make_graph(["a"], [], ["a"]))
    assert k.faces() == {frozenset()}
    assert k.vertices == ()


def test_f_vector_examples():
    assert f_vector(independence_complex(grid(1, 2))) == (1, 2)
    assert f_vector(independence_complex(cylinder(1, 4))) == (1, 4, 2)


def test_complex_of_disjoint_union_is_join():
    rng = random.Random(11)
    for _ in range(15):
        na, nb = rng.randint(1, 6), rng.randint(1, 6)
        ga = make_graph(
            [f"a{i}" for i in range(na)],
            [(f"a{i}", f"a{j}") for i in range(na) for j in range(i + 1, na)
             if rng.random() < 0.4],
        )
        gb = make_graph(
            [f"b{i}" for i in range(nb)],
            [(f"b{i}", f"b{j}") for i in range(nb) for j in range(i + 1, nb)
             if rng.random() < 0.4],
        )
        u = ga.disjoint_union(gb)
        fa, fb = faces_of(ga), faces_of(gb)
        assert faces_of(u) == {a | b for a in fa for b in fb}


def test_downward_closure_of_constructions():
    faces = faces_of(grid(2, 3))
    assert all(f - {v} in faces for f in faces for v in f)


def test_complex_requires_empty_face():
    with pytest.raises(GraphError):
        SimplicialComplex(("a",), frozenset({1}))


def test_face_budget_is_reported():
    with pytest.raises(FaceBudgetExceeded):
        independence_complex(make_graph([f"v{i}" for i in range(20)]), budget=100)


def test_dump_format():
    k = independence_complex(cylinder(1, 3))
    assert k.dump_lines() == ["()", "r1c1", "r1c2", "r1c3"]


def test_collapse_core_preserves_euler():
    k = independence_complex(grid(2, 4))
    core = collapse_core(k.face_masks)
    after = sum(-1 if m.bit_count() % 2 == 0 else 1 for m in core)
    assert after == chi_reduced(grid(2, 4))
    assert len(core) < k.n_faces()


# -- the collapse oracle ------------------------------------------------------


def test_oracle_del_vertex_smallest_example():
    g = make_graph(["u", "v", "w"], [("v", "w")])
    residual, report = collapse_oracle(g, OpStep(DEL_VERTEX, "v", "u"))
    assert report.ok
    assert residual.faces() == {
        frozenset(), frozenset({"u"}), frozenset({"w"}), frozenset({"u", "w"})
    }


def test_oracle_add_edge_path_example():
    g = make_graph(
        ["u", "x", "y", "z", "v"],
        [("u", "x"), ("x", "y"), ("y", "z"), ("z", "v")],
    )
    step = OpStep(ADD_EDGE, ("u", "v"), "y")
    residual, report = collapse_oracle(g, step)
    assert report.ok
    assert residual.faces() == faces_of(g.add_edge("u", "v"))


def test_oracle_del_edge_direction():
    # The witness d is isolated once N[a] ∪ N[b] = {a, b, c} is removed.
    g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    step = OpStep(DEL_EDGE, ("a", "b"), "d")
    residual, report = collapse_oracle(g, step)
    assert report.ok
    assert report.direction == "I(edited) onto I(G)"
    assert report.matched_pairs == 1  # {a,b} is paired with {a,b,d}
    assert residual.faces() == faces_of(g)
    # On a-b-c the witness c lies in N[b]; the move would change the homotopy
    # type (chi~(I(P3)) = 1, chi~(I(P3 - ab)) = 0), so the oracle must refuse
    # it rather than run a matching.
    p3 = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(PreconditionError, match="survive"):
        collapse_oracle(p3, OpStep(DEL_EDGE, ("a", "b"), "c"))


def test_oracle_random_del_vertex_matches_brute_force():
    rng = random.Random(5)
    found = 0
    while found < 12:
        n = 8
        names = [f"v{i}" for i in range(n)]
        g = make_graph(
            names,
            [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3],
        )
        candidates = [
            (v, u)
            for v in names
            for u in names
            if u != v
            and u not in g.closed_neighborhood(v)
            and not (g.adjacency[u] - g.closed_neighborhood(v))
        ]
        if not candidates:
            continue
        v, u = candidates[rng.randrange(len(candidates))]
        residual, report = collapse_oracle(g, OpStep(DEL_VERTEX, v, u))
        assert report.ok, report.detail
        assert residual.faces() == faces_of(g.delete_vertices({v}))
        found += 1


def test_oracle_counts_every_doomed_face():
    g = make_graph(["u", "v", "w"], [("v", "w")])
    _, report = collapse_oracle(g, OpStep(DEL_VERTEX, "v", "u"))
    doomed = [f for f in faces_of(g) if "v" in f]
    assert report.matched_pairs == len(doomed) // 2
    assert report.collapses_executed == report.matched_pairs
