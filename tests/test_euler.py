import gc
import random

import pytest

from indcert.complexes import independence_complex
from indcert.euler import (
    FaceBudgetExceeded,
    chi_four_row_grid,
    chi_reduced,
    chi_reduced_enumerate,
    chi_reduced_recursive,
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
from indcert.verify import VERIFY_FAMILIES, expected_shape, family_graph, random_graph
from randgraphs import random_test_graphs


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


def test_dp_matches_the_declared_shapes_up_to_the_sweep_bounds():
    bounds = {"C1": 28, "C2": 28, "M2": 28, "C3": 20, "M3": 20, "CH1": 24}
    assert set(bounds) == set(VERIFY_FAMILIES)
    for family, n_max in bounds.items():
        for n in range(1, n_max + 1):
            want = expected_shape(family, n).chi_reduced()
            assert chi_reduced_recursive(family_graph(family, n)) == want, (family, n)


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
