"""Reduced Betti numbers of explicit complexes over prime fields.

Ranks come from Gaussian elimination on the boundary matrices of the
augmented chain complex (fixed sorted vertex order; the facet obtained by
dropping the i-th smallest vertex carries sign (-1)^i, which only matters for
odd primes). Large complexes are first shrunk by the verified greedy
elementary-collapse reduction, which preserves the homotopy type and hence
every Betti number; the elimination then runs on the small core.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, collapse_core
from .graphs import GraphError

COLLAPSE_THRESHOLD = 4_000
MAX_ELIMINATION_COLUMNS = 150_000


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


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers indexed from dimension -1 upward."""

    p: int
    values: tuple[int, ...]

    def get(self, dim: int) -> int:
        i = dim + 1
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def nonzero(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i - 1, v) for i, v in enumerate(self.values) if v
        )

    def euler_reduced(self) -> int:
        return sum(v if (i - 1) % 2 == 0 else -v for i, v in enumerate(self.values))

    def shifted(self, k: int) -> "BettiProfile":
        return BettiProfile(self.p, (0,) * k + self.values)


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


def reduced_betti(
    k: SimplicialComplex,
    p: int = 2,
    collapse_threshold: int = COLLAPSE_THRESHOLD,
) -> BettiProfile:
    return betti_profiles(k, (p,), collapse_threshold)[p]


def betti_profiles(
    k: SimplicialComplex,
    primes: tuple[int, ...],
    collapse_threshold: int = COLLAPSE_THRESHOLD,
) -> dict[int, BettiProfile]:
    """Profiles over several primes; the collapse preprocessing runs once."""
    for p in primes:
        if not is_prime(p):
            raise GraphError(f"{p} is not prime")
    faces = k.face_masks
    if len(faces) > collapse_threshold:
        faces = frozenset(collapse_core(faces))
    if len(faces) > MAX_ELIMINATION_COLUMNS:
        raise HomologyBudgetError(
            f"{len(faces)} faces remain after collapsing; elimination refused"
        )
    return {p: _betti_from_faces(faces, p) for p in primes}


def _betti_from_faces(faces: frozenset[int], p: int) -> BettiProfile:
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

    values = []
    for s in range(0, top + 1):
        dim_count = len(by_size.get(s, []))
        values.append(dim_count - ranks.get(s, 0) - ranks.get(s + 1, 0))
    return BettiProfile(p, tuple(values))
