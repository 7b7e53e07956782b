import gc
import random
import time

import pytest

from indcert.complexes import independence_complex
from indcert.euler import (
    DEFAULT_FACE_BUDGET,
    MAX_FRONTIER_STATES,
    FaceBudgetExceeded,
    FrontierBudgetExceeded,
    ReplaySweep,
    SweepHintError,
    _sweep,
    adjacency_masks,
    chi_four_row_grid,
    chi_reduced,
    chi_reduced_enumerate,
    chi_reduced_recursive,
    count_faces,
    edge_deletion_identity,
    independent_set_masks,
)
from indcert.graphs import (
    GraphError,
    cylinder,
    four_row_minus_corners,
    grid,
    make_graph,
)
from indcert.moves import apply_step, touched_labels
from indcert.verify import (
    VERIFY_FAMILIES,
    _valid_steps,
    expected_shape,
    family_graph,
    random_graph,
)
from randgraphs import dense_random_graph, random_test_graphs


def test_known_grid_values():
    assert chi_reduced(grid(4, 1)) == 0
    assert chi_reduced(grid(4, 2)) == -1


def test_four_cycle():
    assert chi_reduced(cylinder(1, 4)) == 1


def test_empty_graph():
    assert chi_reduced(make_graph([])) == -1


def test_looped_vertices_are_dropped():
    g = make_graph(["a", "b"], [], ["a"])
    # only b contributes: complex is a single point
    assert chi_reduced(g) == 0
    assert chi_reduced(g, method="enumerate") == 0


def test_methods_agree_on_random_graphs():
    for g in random_test_graphs(3, 600, 10, 8):
        assert chi_reduced_enumerate(g) == chi_reduced_recursive(g), g.to_json()


def test_replay_sweep_matches_the_dp_on_random_step_chains():
    rng = random.Random(11)
    graphs = [make_graph([], [])] + list(random_test_graphs(12, 360, 9, 6))
    chains = 0
    for g0 in graphs:
        chain = [g0]
        steps = []
        for _ in range(rng.randint(1, 8)):
            valid = _valid_steps(chain[-1])
            if not valid:
                break
            steps.append(valid[rng.randrange(len(valid))])
            chain.append(apply_step(chain[-1], steps[-1]))
        chains += len(steps) > 0
        sweep = ReplaySweep(g0, touched_labels(steps), len(chain))
        for g in chain:
            assert sweep.chi(g) == chi_reduced_recursive(g), g0.to_json()
    assert chains >= 300


def test_replay_sweep_refuses_a_graph_changed_outside_the_hint():
    g0 = make_graph(list("abcdef"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")], ["f"])
    sweep = ReplaySweep(g0, {"a"}, 2)     # near is {a, b}
    assert sweep.chi(g0.delete_vertices({"a"})) == chi_reduced_recursive(g0.delete_vertices({"a"}))
    assert sweep.chi(g0.delete_vertices({"f"})) == chi_reduced_recursive(g0)
    changed = [
        g0.delete_edge("d", "e"),
        g0.delete_vertices({"e"}),
        g0.add_edge("a", "d"),
        make_graph(list("abcdef"), sorted(g0.edges)),           # f loses its loop
        make_graph(list("abcdefg"), sorted(g0.edges), ["f"]),   # g is new
    ]
    for g in changed:
        with pytest.raises(SweepHintError):
            sweep.chi(g)
    # a program fault, not an input error that the command line would report
    assert not issubclass(SweepHintError, ValueError)


def test_dp_matches_the_declared_shapes_up_to_the_sweep_bounds():
    bounds = {"C1": 28, "C2": 28, "M2": 28, "C3": 20, "M3": 20, "CH1": 24}
    assert set(bounds) == set(VERIFY_FAMILIES)
    for family, n_max in bounds.items():
        for n in range(1, n_max + 1):
            want = expected_shape(family, n).chi_reduced()
            assert chi_reduced_recursive(family_graph(family, n)) == want, (family, n)


def _rescan_next_vertex(active, unprocessed, adj):
    """The sweep's next vertex by a rescan of the active set per candidate:
    among the unprocessed neighbours of the active set, the one leaving the
    fewest active vertices, then the one with the most processed neighbours,
    then the lowest index; -1 when there is none."""
    cands = 0
    m = active
    while m:
        b = m & -m
        m ^= b
        cands |= adj[b.bit_length() - 1]
    cands &= unprocessed
    processed = ~unprocessed
    best, best_key = -1, None
    while cands:
        b = cands & -cands
        cands ^= b
        v = b.bit_length() - 1
        rest = unprocessed ^ b
        size = active.bit_count() + (1 if adj[v] & rest else 0)
        m = active & adj[v]
        while m:
            u = m & -m
            m ^= u
            if not adj[u.bit_length() - 1] & rest:
                size -= 1
        key = (size, -(adj[v] & processed).bit_count())
        if best_key is None or key < best_key:
            best, best_key = v, key
    return best


def _rescan_sweep(adj):
    """The (v, active) sequence of the sweep, by `_rescan_next_vertex`."""
    unprocessed = (1 << len(adj)) - 1
    starts = iter(sorted(range(len(adj)), key=lambda u: adj[u].bit_count()))
    active = 0
    while unprocessed:
        v = _rescan_next_vertex(active, unprocessed, adj)
        if v < 0:
            v = next(u for u in starts if unprocessed >> u & 1)
        vb = 1 << v
        unprocessed ^= vb
        active |= vb
        m = active & (adj[v] | vb)
        while m:
            b = m & -m
            m ^= b
            if not adj[b.bit_length() - 1] & unprocessed:
                active ^= b
        yield v, active


def test_sweep_order_matches_the_rescan_on_random_graphs():
    for g in random_test_graphs(5, 600, 14, 9):
        _, adj = adjacency_masks(g)
        assert list(_sweep(adj)) == list(_rescan_sweep(adj)), g.to_json()


def test_sweep_order_matches_the_rescan_on_every_family_member():
    bounds = {"C1": 28, "C2": 28, "M2": 28, "C3": 20, "M3": 20, "CH1": 24}
    assert set(bounds) == set(VERIFY_FAMILIES)
    for family, n_max in bounds.items():
        for n in range(1, n_max + 1):
            _, adj = adjacency_masks(family_graph(family, n))
            assert list(_sweep(adj)) == list(_rescan_sweep(adj)), (family, n)


def test_face_count_meets_the_state_budget_only_past_its_limit():
    # `indcert chi` on this graph exits 3 at the state budget (test_cli); a
    # face count with no limit meets it too, but every state weighs at least
    # 1, so the total passes any limit up to the state budget first
    assert DEFAULT_FACE_BUDGET <= MAX_FRONTIER_STATES
    g = dense_random_graph(80, 0.2, 1)
    t0 = time.perf_counter()
    with pytest.raises(FrontierBudgetExceeded) as info:
        count_faces(g)
    assert info.value.budget == MAX_FRONTIER_STATES
    assert count_faces(g, MAX_FRONTIER_STATES) > MAX_FRONTIER_STATES
    assert time.perf_counter() - t0 < 20


def test_dp_has_no_depth_limit():
    # I(P_3000) is homotopy equivalent to S^999
    assert chi_reduced_recursive(grid(1, 3000)) == -1


def test_independent_set_masks_preorder():
    g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    verts, masks = independent_set_masks(g)
    assert verts == ["a", "b", "c", "d"]
    # {}, {a}, {a,c}, {a,d}, {b}, {b,d}, {c}, {d}
    assert masks == [0b0000, 0b0001, 0b0101, 0b1001, 0b0010, 0b1010, 0b0100, 0b1000]


def test_independent_set_masks_stop_at_the_budget_not_the_recursion_limit():
    with pytest.raises(FaceBudgetExceeded):
        independent_set_masks(grid(1, 3000))


def test_enumerate_budget():
    g = make_graph([f"v{i}" for i in range(25)])
    with pytest.raises(FaceBudgetExceeded):
        chi_reduced(g, method="enumerate", budget=1000)
    # the DP has no budget
    assert chi_reduced(g, method="recursive") == 0


def test_disjoint_union_identity():
    rng = random.Random(9)
    for _ in range(30):
        g, h = random_graph(rng, 6), random_graph(rng, 6)
        u = g.disjoint_union(h, suffix="_r")
        assert chi_reduced(u) == -chi_reduced(g) * chi_reduced(h)


def test_edge_identity_sign_frozen_on_single_edge():
    g = make_graph(["u", "v"], [("u", "v")])
    # chi(I(G-e)) = 0, chi(I(G)) = 1, chi of the empty graph's complex = -1:
    # the identity holds with a plus sign, 0 = 1 + (-1)
    assert chi_reduced(g.delete_edge("u", "v")) == 0
    assert chi_reduced(g) == 1
    assert chi_reduced(g.delete_vertices({"u", "v"})) == -1
    assert edge_deletion_identity(g, ("u", "v"))


def test_edge_identity_on_path():
    g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert edge_deletion_identity(g, ("a", "b"))


def test_edge_identity_random():
    rng = random.Random(17)
    done = 0
    while done < 50:
        g = random_graph(rng, 9)
        if not g.edges:
            continue
        e = sorted(g.edges)[rng.randrange(len(g.edges))]
        assert edge_deletion_identity(g, e)
        done += 1


def test_edge_identity_requires_edge():
    g = make_graph(["a", "b"])
    with pytest.raises(GraphError):
        edge_deletion_identity(g, ("a", "b"))


def test_closed_form_values():
    assert chi_four_row_grid(1) == 0
    assert chi_four_row_grid(4) == -2
    assert chi_four_row_grid(10) == -4


def test_closed_form_matches_enumeration():
    for n in range(1, 8):
        assert chi_four_row_grid(n) == chi_reduced(grid(4, n), method="enumerate", budget=None)
    for n in range(1, 301):
        assert chi_four_row_grid(n) == chi_reduced_recursive(grid(4, n)), n


def test_corner_trimmed_base_values_and_flip():
    values = {1: 1, 2: 0, 3: 1}
    for n, v in values.items():
        assert chi_reduced(four_row_minus_corners(n)) == v
    for n in range(4, 8):
        assert chi_reduced(four_row_minus_corners(n)) == -chi_reduced(
            four_row_minus_corners(n - 3)
        )


def test_chi_and_enumeration_free_their_memory_on_return():
    # With the cyclic collector off, anything left for it to find after a
    # call was kept alive by a reference cycle, such as a self-referring
    # recursive closure holding its memo or face list.
    g = cylinder(2, 8)
    gc.collect()
    gc.disable()
    try:
        for f in (chi_reduced_recursive, chi_reduced_enumerate, independence_complex):
            f(g)
            assert gc.collect() == 0, f.__name__
    finally:
        gc.enable()
