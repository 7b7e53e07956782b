import random

import pytest

from indcert.complexes import (
    collapse_core,
    independence_complex,
    join,
    point_pair,
    sphere,
)
from indcert.euler import chi_reduced
from indcert.graphs import GraphError, cylinder, make_graph, moebius
from indcert.homology import _betti_from_faces, betti_profiles, graph_betti
from indcert.verify import point, random_graph, wedge


def betti(k, p=2):
    return betti_profiles(k, (p,))[p]


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
        sk = join(k, point_pair("sa", "sb"))
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
            assert _betti_from_faces(core, p) == _betti_from_faces(k.face_masks, p)


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
