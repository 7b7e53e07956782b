import random

import pytest

from indcert.complexes import independence_complex, join, point_pair, sphere
from indcert.euler import chi_reduced
from indcert.graphs import GraphError, cylinder, make_graph, moebius
from indcert.homology import BettiProfile, betti_profiles, reduced_betti
from indcert.verify import point, random_graph, wedge


def test_two_sphere():
    assert reduced_betti(sphere(2), 2).nonzero() == ((2, 1),)


def test_empty_face_complex():
    assert reduced_betti(sphere(-1), 2).nonzero() == ((-1, 1),)


def test_full_simplex_is_acyclic():
    k = independence_complex(make_graph(["a", "b", "c"]))
    assert reduced_betti(k, 2).nonzero() == ()


def test_three_row_cylinder_width_four():
    k = independence_complex(cylinder(3, 4))
    assert reduced_betti(k, 2).get(2) == 3
    assert reduced_betti(k, 3).nonzero() == ((2, 3),)


def test_euler_poincare_on_random_graphs():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, 8)
        k = independence_complex(g)
        profile = reduced_betti(k, 2)
        assert profile.euler_reduced() == chi_reduced(g)


def test_suspension_shifts_profile():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, 7)
        k = independence_complex(g)
        sk = join(k, point_pair("sa", "sb"))
        assert reduced_betti(sk, 2).nonzero() == reduced_betti(k, 2).shifted(1).nonzero()


def test_prime_independence_on_family_cases():
    for g in (cylinder(2, 6), moebius(2, 6), cylinder(3, 5), moebius(3, 4)):
        k = independence_complex(g)
        profiles = betti_profiles(k, (2, 3))
        assert profiles[2].nonzero() == profiles[3].nonzero()


def test_collapse_preprocessing_agrees_with_direct_elimination():
    for g in (cylinder(2, 7), moebius(3, 4)):
        k = independence_complex(g)
        direct = reduced_betti(k, 2, collapse_threshold=10**9)
        collapsed = reduced_betti(k, 2, collapse_threshold=1)
        assert direct.nonzero() == collapsed.nonzero()
        direct3 = reduced_betti(k, 3, collapse_threshold=10**9)
        collapsed3 = reduced_betti(k, 3, collapse_threshold=1)
        assert direct3.nonzero() == collapsed3.nonzero()


def test_non_prime_rejected():
    with pytest.raises(GraphError):
        reduced_betti(sphere(0), 4)


def test_profile_accessors():
    profile = BettiProfile(2, (0, 0, 1, 0))
    assert profile.get(1) == 1
    assert profile.get(7) == 0
    assert profile.shifted(2).nonzero() == ((3, 1),)


def test_betti_of_shape():
    assert wedge(2, 0).betti() == ((0, 2),)
    assert point().betti() == ()
    assert wedge(5, 2).betti() == ((2, 5),)
    assert wedge(1, -1).betti() == ((-1, 1),)
    # the prediction matches what elimination finds, over both primes
    for k, shape in ((sphere(2), wedge(1, 2)), (sphere(-1), wedge(1, -1))):
        for p in (2, 3):
            assert reduced_betti(k, p).nonzero() == shape.betti()
