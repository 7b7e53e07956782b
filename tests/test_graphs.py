import pytest

from indcert.graphs import (
    FamilySpec,
    GraphError,
    cylinder,
    four_row_minus_corners,
    four_row_with_chord,
    generate_family,
    graph_from_json,
    graphs_equal_labeled,
    grid,
    grid_label,
    hex_cylinder,
    make_graph,
    moebius,
    moebius_hex_strip,
    sorted_pair,
)


def test_make_graph_dedups_both_orientations():
    g = make_graph(["a", "b"], [("a", "b"), ("b", "a")])
    assert g.n_edges() == 1


def test_make_graph_single_edge():
    g = make_graph(["u", "v"], [("u", "v")])
    assert g.n_vertices() == 2 and g.n_edges() == 1


def test_make_graph_loop():
    g = make_graph(["a"], [], ["a"])
    assert g.loops == frozenset({"a"})


def test_make_graph_rejects_self_edge():
    with pytest.raises(GraphError):
        make_graph(["a"], [("a", "a")])


def test_make_graph_rejects_unknown_endpoint():
    with pytest.raises(GraphError):
        make_graph(["a"], [("a", "b")])


def test_closed_neighborhood_vertex():
    g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert g.closed_neighborhood("b") == {"a", "b", "c"}


def test_closed_neighborhood_isolated():
    g = make_graph(["v"])
    assert g.closed_neighborhood("v") == {"v"}


def test_closed_neighborhood_edge():
    g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    assert g.closed_neighborhood(("b", "c")) == {"a", "b", "c", "d"}


def test_closed_neighborhood_requires_edge():
    g = make_graph(["a", "b", "c"], [("a", "b")])
    with pytest.raises(GraphError):
        g.closed_neighborhood(("a", "c"))


def test_loop_adds_nothing_to_neighborhood():
    g = make_graph(["a", "b"], [("a", "b")], ["a"])
    assert g.closed_neighborhood("a") == {"a", "b"}


def test_delete_vertices_triangle():
    g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    h = g.delete_vertices({"a"})
    assert h.vertex_set == {"b", "c"} and h.edges == {("b", "c")}


def test_delete_then_neighborhood_never_sees_removed():
    g = grid(3, 3)
    h = g.delete_vertices({"r2c2", "r1c1"})
    for v in h.vertices:
        assert not h.closed_neighborhood(v) & {"r2c2", "r1c1"}


def test_disjoint_union_with_suffix():
    p = grid(1, 2)
    u = p.disjoint_union(p, suffix="_b")
    assert u.n_vertices() == 4 and u.n_edges() == 2


def test_disjoint_union_clash_without_suffix():
    p = grid(1, 2)
    with pytest.raises(GraphError):
        p.disjoint_union(p)


def test_inverse_edits_restore_graph():
    g = cylinder(1, 3)
    e = sorted(g.edges)[0]
    h = g.delete_edge(*e).add_edge(*e)
    assert graphs_equal_labeled(g, h)


def test_add_existing_edge_fails():
    g = grid(1, 2)
    with pytest.raises(GraphError):
        g.add_edge("r1c1", "r1c2")


def test_delete_absent_edge_fails():
    g = grid(1, 3)
    with pytest.raises(GraphError):
        g.delete_edge("r1c1", "r1c3")


# -- family generators -------------------------------------------------------


def test_grid_counts():
    g = grid(3, 4)
    assert g.n_vertices() == 12 and g.n_edges() == 17


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_grid_count_formula(m, n):
    g = grid(m, n)
    assert g.n_vertices() == m * n
    assert g.n_edges() == m * (n - 1) + (m - 1) * n


def test_cylinder_degenerate_single_vertex_loop():
    g = cylinder(1, 1)
    assert g.n_vertices() == 1 and g.loops == {"r1c1"} and g.n_edges() == 0


def test_cylinder_width_two_collapses_parallel_edges():
    g = cylinder(1, 2)
    assert g.n_vertices() == 2 and g.n_edges() == 1 and not g.loops


def test_moebius_2_2_is_complete():
    g = moebius(2, 2)
    assert g.n_vertices() == 4 and g.n_edges() == 6


def test_moebius_2_1_is_single_edge():
    g = moebius(2, 1)
    assert g.n_vertices() == 2 and g.n_edges() == 1 and not g.loops


def test_moebius_3_1_has_loop():
    g = moebius(3, 1)
    assert g.loops == {"r2c1"}
    assert g.has_edge("r1c1", "r3c1")


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cylinder_simple_for_wide_strips(m, n):
    g = cylinder(m, n)
    assert not g.loops
    assert g.n_vertices() == m * n


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_moebius_and_cylinder_have_equal_counts(m, n):
    c, mo = cylinder(m, n), moebius(m, n)
    assert c.n_vertices() == mo.n_vertices()
    assert c.n_edges() == mo.n_edges()


def test_hex_cylinder_vertical_parity():
    g = hex_cylinder(1, 3)
    for j in range(1, 7):
        e = sorted_pair(grid_label(1, j), grid_label(2, j))
        assert (e in g.edges) == (j % 2 == 1)


def test_moebius_hex_strip_removes_odd_verticals():
    g = moebius_hex_strip(3)
    base = moebius(2, 6)
    for j in range(1, 7):
        e = sorted_pair(grid_label(1, j), grid_label(2, j))
        assert e in base.edges
        assert (e in g.edges) == (j % 2 == 0)


def test_four_row_variants():
    x = four_row_with_chord(3)
    assert x.has_edge("r1c1", "r4c1")
    y = four_row_minus_corners(3)
    assert "r1c1" not in y.vertex_set and "r4c1" not in y.vertex_set
    assert y.n_vertices() == 10


def test_generate_family_is_deterministic():
    a = generate_family(FamilySpec("M", 3, 4))
    b = generate_family(FamilySpec("M", 3, 4))
    assert graphs_equal_labeled(a, b)
    assert a.to_json() == b.to_json()


def test_family_spec_validation():
    with pytest.raises(GraphError):
        FamilySpec("P", None, 3)
    with pytest.raises(GraphError):
        FamilySpec("X4", 2, 3)
    with pytest.raises(GraphError):
        FamilySpec("C", 1, 0)
    with pytest.raises(GraphError):
        FamilySpec("Q", 1, 1)


# -- comparison ---------------------------------------------------------------


def test_graphs_equal_labeled_self():
    g = grid(2, 2)
    assert graphs_equal_labeled(g, g)
    assert not graphs_equal_labeled(g, g.relabel({"r1c1": "x"}))
    assert not graphs_equal_labeled(g, g.delete_edge("r1c1", "r1c2"))
    assert not graphs_equal_labeled(g, make_graph(g.vertices, sorted(g.edges), ["r1c1"]))


# -- JSON ---------------------------------------------------------------------


def test_json_round_trip():
    g = moebius(3, 4)
    assert graphs_equal_labeled(g, graph_from_json(g.to_json()))


def test_family_reference_accepted_as_graph():
    g = graph_from_json('{"family":"C","m":3,"n":4}')
    assert graphs_equal_labeled(g, cylinder(3, 4))


def test_json_output_sorted():
    g = make_graph(["b", "a"], [("b", "a")])
    assert g.to_json() == '{"edges":[["a","b"]],"loops":[],"vertices":["a","b"]}'


def test_bad_json_rejected():
    with pytest.raises(GraphError):
        graph_from_json("{not json")
    with pytest.raises(GraphError):
        graph_from_json('{"vertices":["a"],"edges":[["a"]]}')


@pytest.mark.parametrize("doc", [
    '{"vertices":"ab","edges":["ab"]}',
    '{"vertices":["a","b"],"edges":["ab"]}',
    '{"vertices":["a","b"],"edges":[["a","b","a"]]}',
    '{"vertices":["a","b"],"edges":[["a",1]]}',
    '{"vertices":["a",""]}',
    '{"vertices":["a",2]}',
    '{"vertices":["a","b"],"loops":"a"}',
    '{"vertices":["a","b"],"loops":[""]}',
    '{"edges":[]}',
    '{"family":"C","m":1,"n":3,"edges":[["x","y"]]}',
])
def test_graph_document_needs_label_lists(doc):
    with pytest.raises(GraphError):
        graph_from_json(doc)
