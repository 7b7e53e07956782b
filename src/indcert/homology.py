"""Reduced Betti numbers of independence complexes over prime fields.

A profile is the nonzero reduced Betti numbers as (dim, value) pairs, the
form `WedgeShape.betti()` predicts. `graph_betti` is the one route from a
graph to Betti evidence for the suites and replay; it returns None when the
face budget or the elimination budget stops it, and callers report that as
a skipped check.

Ranks come from Gaussian elimination on the boundary matrices of the
augmented chain complex (fixed sorted vertex order; the facet obtained by
dropping the i-th smallest vertex carries sign (-1)^i, which only matters for
odd primes). Large complexes are first shrunk by the verified greedy
elementary-collapse reduction, which preserves the homotopy type and hence
every Betti number; the elimination then runs on the small core.
"""

from __future__ import annotations

# The benchmark's tracer (perfbench/spans.py) wraps `homology.collapse_core`,
# `homology.betti_profiles` and `complexes.independence_complex`, so calls
# look them up through these module attributes.
from . import complexes
from .complexes import SimplicialComplex, collapse_core
from .euler import DEFAULT_FACE_BUDGET, FaceBudgetExceeded
from .graphs import Graph, GraphError

COLLAPSE_THRESHOLD = 4_000
MAX_ELIMINATION_COLUMNS = 150_000

Profile = tuple[tuple[int, int], ...]


class HomologyBudgetError(RuntimeError):
    """The complex is too large for exact elimination even after collapsing."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _rank_gf2(columns: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                rank += 1
                break
            col ^= piv
    return rank


def _rank_gfp(columns: list[dict[int, int]], p: int) -> int:
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                inv = pow(col[low], -1, p)
                pivots[low] = {r: (v * inv) % p for r, v in col.items()}
                rank += 1
                break
            c = col[low]
            for r, v in piv.items():
                nv = (col.get(r, 0) - c * v) % p
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
        # empty column: dependent, contributes nothing
    return rank


def betti_profiles(k: SimplicialComplex, primes: tuple[int, ...]) -> dict[int, Profile]:
    """The profile of k over each prime; the collapse preprocessing runs once."""
    for p in primes:
        if not is_prime(p):
            raise GraphError(f"{p} is not prime")
    faces = k.face_masks
    if len(faces) > COLLAPSE_THRESHOLD:
        # a compact copy: the core set keeps the hash table sized for its input
        faces = frozenset(collapse_core(faces))
    if len(faces) > MAX_ELIMINATION_COLUMNS:
        raise HomologyBudgetError(
            f"{len(faces)} faces remain after collapsing; elimination refused"
        )
    return {p: _betti_from_faces(faces, p) for p in primes}


def graph_betti(
    g: Graph, primes: tuple[int, ...], budget: int | None = DEFAULT_FACE_BUDGET
) -> dict[int, Profile] | None:
    """`betti_profiles` of I(g), or None when a budget stops the computation."""
    try:
        return betti_profiles(complexes.independence_complex(g, budget=budget), primes)
    except (FaceBudgetExceeded, HomologyBudgetError):
        return None


def _betti_from_faces(faces: frozenset[int], p: int) -> Profile:
    by_size: dict[int, list[int]] = {}
    for m in faces:
        by_size.setdefault(m.bit_count(), []).append(m)
    for v in by_size.values():
        v.sort()
    top = max(by_size)
    index: dict[int, dict[int, int]] = {
        s: {m: i for i, m in enumerate(ms)} for s, ms in by_size.items()
    }

    # rank of the boundary from size-s faces down to size-(s-1) faces
    ranks: dict[int, int] = {}
    for s in range(1, top + 1):
        cols_masks = by_size.get(s, [])
        row_index = index.get(s - 1, {})
        if p == 2:
            cols2: list[int] = []
            for m in cols_masks:
                col = 0
                mm = m
                while mm:
                    b = mm & -mm
                    mm ^= b
                    col |= 1 << row_index[m ^ b]
                cols2.append(col)
            ranks[s] = _rank_gf2(cols2)
        else:
            colsp: list[dict[int, int]] = []
            for m in cols_masks:
                col: dict[int, int] = {}
                mm = m
                i = 0
                while mm:
                    b = mm & -mm
                    mm ^= b
                    col[row_index[m ^ b]] = 1 if i % 2 == 0 else p - 1
                    i += 1
                colsp.append(col)
            ranks[s] = _rank_gfp(colsp, p)
    ranks[0] = 0
    ranks[top + 1] = 0

    profile = []
    for s in range(0, top + 1):
        value = len(by_size.get(s, [])) - ranks.get(s, 0) - ranks.get(s + 1, 0)
        if value:
            profile.append((s - 1, value))
    return tuple(profile)
