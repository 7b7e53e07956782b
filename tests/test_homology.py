import random
from itertools import combinations

import pytest

from indcert import homology
from indcert.complexes import SimplicialComplex, independence_complex
from indcert.euler import FaceBudgetExceeded, adjacency_masks, chi_reduced, count_faces
from indcert.graphs import GraphError, cylinder, make_graph, moebius
from indcert.homology import (
    MorseMatchingError,
    _face_column,
    _flow,
    _profiles,
    _rank_gfp,
    betti_profiles,
    collapse_core,
    graph_betti,
)
from indcert.verify import (
    VERIFY_FAMILIES,
    SuiteConfig,
    expected_shape,
    family_graph,
    point,
    random_graph,
    verify_case,
    wedge,
)
from randgraphs import random_test_graphs


def betti(k, p=2):
    return betti_profiles(k, (p,))[p]


def edge():
    return make_graph(["a", "b"], [("a", "b")])


def sphere(n):
    """The n-sphere as I(n+1 disjoint edges), the join of n+1 point pairs;
    n = -1 gives the complex whose only face is the empty face."""
    g = make_graph([])
    for i in range(n + 1):
        g = g.disjoint_union(edge(), suffix=f"{i}")
    return independence_complex(g)


def test_two_sphere():
    assert betti(sphere(2)) == ((2, 1),)


def test_empty_face_complex():
    assert betti(sphere(-1)) == ((-1, 1),)


def test_full_simplex_is_acyclic():
    k = independence_complex(make_graph(["a", "b", "c"]))
    assert betti(k) == ()


def test_three_row_cylinder_width_four():
    k = independence_complex(cylinder(3, 4))
    assert betti_profiles(k, (2, 3)) == {2: ((2, 3),), 3: ((2, 3),)}


def test_euler_poincare_on_random_graphs():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, 8)
        k = independence_complex(g)
        profile = betti(k)
        assert sum(v if d % 2 == 0 else -v for d, v in profile) == chi_reduced(g)


def test_suspension_shifts_profile():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, 7)
        k = independence_complex(g)
        # I(g ⊔ K2) is the suspension of I(g)
        sk = independence_complex(g.disjoint_union(edge()))
        assert betti(sk) == tuple((d + 1, v) for d, v in betti(k))


def test_prime_independence_on_family_cases():
    for g in (cylinder(2, 6), moebius(2, 6), cylinder(3, 5), moebius(3, 4)):
        k = independence_complex(g)
        profiles = betti_profiles(k, (2, 3))
        assert profiles[2] == profiles[3]


def test_collapse_preprocessing_agrees_with_direct_elimination():
    for g in (cylinder(2, 7), moebius(3, 4)):
        k = independence_complex(g)
        core = collapse_core(k.face_masks)
        assert len(core) < k.n_faces()
        for p in (2, 3):
            want = _profiles(k.face_masks, (p,), _face_column)
            assert _profiles(core, (p,), _face_column) == want


def _span_size(columns, p, n_rows):
    """The number of vectors in the span of the columns over GF(p)."""
    span = {(0,) * n_rows}
    for col in columns:
        vec = tuple(col.get(r, 0) % p for r in range(n_rows))
        span |= {tuple((x + c * y) % p for x, y in zip(s, vec)) for s in span for c in range(p)}
    return len(span)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_gfp_matches_the_size_of_the_column_span(p):
    # rank r over GF(p) exactly when the columns span p^r vectors
    rng = random.Random(53 + p)
    for _ in range(60):
        n_rows = rng.randint(1, 4)
        columns = [
            {r: v for r in range(n_rows) if (v := rng.randint(-4, 4))}
            for _ in range(rng.randint(0, 5))
        ]
        assert p ** _rank_gfp(columns, p) == _span_size(columns, p, n_rows), columns


def test_boundary_signs_on_the_real_projective_plane():
    # the 6-vertex RP^2: H~_1 and H~_2 are GF(2) but vanish over GF(3), where
    # the profile is right only with the right incidence signs
    triangles = ("123", "134", "145", "156", "162", "235", "346", "452", "563", "624")
    faces = frozenset(
        sum(1 << int(v) - 1 for v in face)
        for t in triangles for size in range(4) for face in combinations(t, size)
    )
    k = SimplicialComplex(tuple(f"v{i}" for i in range(1, 7)), faces)
    assert betti_profiles(k, (2, 3)) == {2: ((1, 1), (2, 1)), 3: ()}


def test_non_prime_rejected():
    with pytest.raises(GraphError):
        betti_profiles(sphere(0), (4,))


def test_betti_of_shape():
    assert wedge(2, 0).betti() == ((0, 2),)
    assert point().betti() == ()
    assert wedge(5, 2).betti() == ((2, 5),)
    assert wedge(1, -1).betti() == ((-1, 1),)
    # the prediction matches what elimination finds, over both primes
    for k, shape in ((sphere(2), wedge(1, 2)), (sphere(-1), wedge(1, -1))):
        for p in (2, 3):
            assert betti(k, p) == shape.betti()


def test_graph_betti_is_none_when_a_budget_stops_it():
    g = cylinder(2, 4)
    assert graph_betti(g, (2, 3)) == betti_profiles(independence_complex(g), (2, 3))
    assert graph_betti(g, (2,), budget=1) is None


def test_graph_betti_matches_the_face_oracle_on_random_graphs():
    for g in random_test_graphs(41, 600, 11, 7):
        want = betti_profiles(independence_complex(g, budget=None), (2, 3))
        assert graph_betti(g, (2, 3), budget=None) == want, g.to_json()


def test_graph_betti_matches_the_face_oracle_where_a_boundary_is_needed():
    # isolated vertices make most of the graphs above cones, with no critical
    # cell; on dense graphs the Morse boundary is often needed
    rng = random.Random(47)
    with_boundary = 0
    for _ in range(600):
        g = random_graph(rng, 14, rng.uniform(0.35, 0.6))
        sizes = {c.bit_count() for c in _tree(g).critical_cells()}
        with_boundary += any(s - 1 in sizes for s in sizes)
        want = betti_profiles(independence_complex(g, budget=None), (2, 3))
        assert graph_betti(g, (2, 3), budget=None) == want, g.to_json()
    assert with_boundary >= 25


def _tree(g):
    return homology._MatchingTree(adjacency_masks(g)[1])


def _complement(n, non_edges):
    names = [f"v{i}" for i in range(n)]
    non = {frozenset(e) for e in non_edges}
    return make_graph(names, [
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n)
        if frozenset((i, j)) not in non
    ])


@pytest.mark.parametrize("k", range(4, 10))
def test_graph_betti_signs_on_a_circle_beside_a_triangle(k):
    # I(g) is the clique complex of g's complement, here a k-cycle beside a
    # triangle: a circle and a point. Over GF(3) the Morse boundary is right
    # only with the right incidence signs, for odd k, and flow signs, for even k
    g = _complement(k + 3, [(i, (i + 1) % k) for i in range(k)]
                    + [(k, k + 1), (k + 1, k + 2), (k, k + 2)])
    want = ((0, 1), (1, 1))
    assert betti_profiles(independence_complex(g), (2, 3)) == {2: want, 3: want}
    assert graph_betti(g, (2, 3)) == {2: want, 3: want}


def test_graph_betti_on_the_empty_and_the_all_looped_graph():
    # only the empty face: the (-1)-sphere
    for g in (make_graph([]), make_graph(["a", "b"], [("a", "b")], ["a", "b"])):
        assert graph_betti(g, (2, 3)) == {2: ((-1, 1),), 3: ((-1, 1),)}


def test_count_gate_agrees_with_the_face_budget():
    graphs = [make_graph([]), cylinder(3, 3), moebius(2, 5)]
    graphs += list(random_test_graphs(43, 40, 9, 5))
    for g in graphs:
        n = independence_complex(g, budget=None).n_faces()
        assert count_faces(g) == n
        with pytest.raises(FaceBudgetExceeded):
            independence_complex(g, budget=n - 1)
        assert graph_betti(g, (2,), budget=n - 1) is None
        for budget in (n, n + 1):
            assert independence_complex(g, budget=budget).n_faces() == n
            assert graph_betti(g, (2,), budget=budget) is not None


def test_graph_betti_matches_every_corollary_shape_without_a_budget():
    # includes the members the default face budget skips
    config = SuiteConfig()
    for family in VERIFY_FAMILIES:
        for n in range(1, config.family_bound(family) + 1):
            want = expected_shape(family, n).betti()
            got = graph_betti(family_graph(family, n), (2, 3), budget=None)
            assert got == {2: want, 3: want}, (family, n)


def test_empty_primes_rejected():
    with pytest.raises(GraphError, match="no prime given"):
        graph_betti(cylinder(2, 4), ())


def test_non_prime_rejected_before_the_budget_stops_betti():
    with pytest.raises(GraphError, match="4 is not prime"):
        graph_betti(cylinder(2, 4), (2, 4), budget=1)
    with pytest.raises(GraphError, match="4 is not prime"):
        verify_case("C1", 5, primes=(4,), budget=10)


class _StubTree:
    """A matching given as a dict, on faces that are all independent."""

    def __init__(self, partners):
        self.partners = partners

    def partner(self, face):
        return self.partners.get(face)

    def is_face(self, mask):
        return True


def test_flow_raises_on_a_gradient_cycle():
    # {0} -> {0,1} > {1} -> {1,2} > {2} -> {0,2} > {0}: a closed gradient path
    pairs = {0b001: 0b011, 0b010: 0b110, 0b100: 0b101}
    partners = {**pairs, **{up: low for low, up in pairs.items()}}
    with pytest.raises(MorseMatchingError, match="cycle"):
        _flow(_StubTree(partners), 0b001, {}, {})


@pytest.mark.parametrize("partners", [
    {0b001: 0b011},                  # {0,1} is not matched back with {0}
    {0b001: 0b111, 0b111: 0b001},    # two vertices away
])
def test_flow_raises_on_a_partner_that_is_not_matched_back_one_vertex_away(partners):
    with pytest.raises(MorseMatchingError, match="one vertex larger"):
        _flow(_StubTree(partners), 0b001, {}, {})


def test_flow_raises_on_an_unmatched_face_that_is_not_critical():
    with pytest.raises(MorseMatchingError, match="not critical"):
        _flow(_StubTree({}), 0b001, {0b010: 0}, {})


def test_a_failed_matching_check_is_an_error_not_a_skip(monkeypatch):
    # I(C3 3) has critical cells of sizes 2 and 3, so its boundary is computed
    g = family_graph("C3", 3)
    assert graph_betti(g, (2,)) == {2: expected_shape("C3", 3).betti()}
    partner = homology._MatchingTree.partner

    def unmatched_down(tree, face):
        # a face matched with a smaller one no longer matches back
        other = partner(tree, face)
        return None if other is not None and other < face else other

    monkeypatch.setattr(homology._MatchingTree, "partner", unmatched_down)
    with pytest.raises(MorseMatchingError):
        graph_betti(g, (2,))
