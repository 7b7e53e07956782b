"""Reduced Betti numbers of independence complexes over prime fields.

A profile is the nonzero reduced Betti numbers as (dim, value) pairs, the
form `WedgeShape.betti()` predicts.

`graph_betti` is the production route, from a graph to Betti evidence for
the suites, replay and `indcert betti`. It builds no face of I(g). A matching
tree on the graph (`_MatchingTree`) gives an acyclic matching of I(g) whose
few critical cells span the Morse complex; its boundary comes from the
gradient flow over Z and is reduced mod p. The face budget is counted, not
built: `graph_betti` returns None exactly when I(g) has more faces than the
budget, the empty face counted, and callers report that as a skipped check.

`betti_profiles` is the oracle, on the faces of an enumerated complex:
Gaussian elimination on the boundary matrices of the augmented chain complex,
after large complexes are shrunk by the verified greedy elementary-collapse
reduction (`collapse_core`), which preserves every Betti number. Both routes
use the fixed sorted vertex order, where the facet obtained by dropping the
i-th smallest vertex carries sign (-1)^i, which only matters for odd primes.
"""

from __future__ import annotations

# The benchmark's tracer (perfbench/spans.py) wraps `homology.collapse_core`
# and `homology.betti_profiles`, so calls look them up through these module
# attributes.
from .complexes import SimplicialComplex, collapse_core
from .euler import DEFAULT_FACE_BUDGET, adjacency_masks, count_faces
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
    check_primes(primes)
    faces = k.face_masks
    if len(faces) > COLLAPSE_THRESHOLD:
        # a compact copy: the core set keeps the hash table sized for its input
        faces = frozenset(collapse_core(faces))
    if len(faces) > MAX_ELIMINATION_COLUMNS:
        raise HomologyBudgetError(
            f"{len(faces)} faces remain after collapsing; elimination refused"
        )
    return {p: _betti_from_faces(faces, p) for p in primes}


def check_primes(primes: tuple[int, ...]) -> None:
    for p in primes:
        if not is_prime(p):
            raise GraphError(f"{p} is not prime")


def graph_betti(
    g: Graph, primes: tuple[int, ...], budget: int | None = DEFAULT_FACE_BUDGET
) -> dict[int, Profile] | None:
    """The profile of I(g) over each prime, from the matching tree's Morse
    complex, or None when I(g) has more than `budget` faces (the empty face
    counted). No face of I(g) is enumerated: the count comes from the
    frontier sweep, which stops once it passes the budget."""
    check_primes(primes)
    if budget is not None and count_faces(g, budget) > budget:
        return None
    _, adj = adjacency_masks(g)
    tree = _MatchingTree(adj)
    crit: dict[int, list[int]] = {}
    for cell in tree.critical_cells():
        crit.setdefault(cell.bit_count(), []).append(cell)
    # rank over GF(p) of the Morse boundary from size-s to size-(s-1) cells;
    # it is computed only where both sizes hold critical cells
    ranks: dict[tuple[int, int], int] = {}
    memo: dict[int, dict[int, int] | None] = {}
    for s in crit:
        rows = crit.get(s - 1)
        if not rows:
            continue
        row_of = {cell: i for i, cell in enumerate(rows)}
        columns = [_morse_column(tree, cell, row_of, memo) for cell in crit[s]]
        for p in primes:
            if p == 2:
                bits = [sum(1 << r for r, v in col.items() if v % 2) for col in columns]
                ranks[p, s] = _rank_gf2(bits)
            else:
                ranks[p, s] = _rank_gfp(columns, p)
    out = {}
    for p in primes:
        profile = []
        for s in sorted(crit):
            value = len(crit[s]) - ranks.get((p, s), 0) - ranks.get((p, s + 1), 0)
            if value:
                profile.append((s - 1, value))
        out[p] = tuple(profile)
    return out


class MorseMatchingError(RuntimeError):
    """The matching tree's matching failed a check the Morse route relies on.
    This is a fault of the program, never a budget stop."""


_CRITICAL, _TOGGLE, _SPLIT, _FORCED = range(4)


class _MatchingTree:
    """The matching tree of I(g) over the sorted unlooped vertex order.

    A node (chosen, excluded) stands for the faces that contain `chosen` and
    miss `excluded`; the neighbours of `chosen` are always excluded, and the
    other vertices are undecided. A node with no undecided vertex is the
    critical cell `chosen`. Else, if an undecided vertex u has no undecided
    neighbour, u is in no edge with the node's faces, and toggling u matches
    them all in pairs. Else, if an undecided v has a single undecided
    neighbour p, the node is split on p and only the branch with p chosen can
    hold critical cells: in the other one v is isolated (the forced branch).
    Else the node is split on the undecided vertex with the most undecided
    neighbours, lowest index on ties. Splitting and toggling order the faces
    so that the union of the toggle matchings is acyclic (Bousquet-Melou,
    Linusson and Nevo, "On the independence complex of square grids"); the
    Morse route checks this where it relies on it. Decisions are cached per
    node, so a face's partner is found by one walk down the tree."""

    def __init__(self, adj: list[int]):
        self.adj = adj
        self.full = (1 << len(adj)) - 1
        self.nodes: dict[tuple[int, int], tuple[int, int, int]] = {}

    def decide(self, chosen: int, excluded: int) -> tuple[int, int, int]:
        """(kind, vertex bit, its neighbours) for the node, cached."""
        key = (chosen, excluded)
        node = self.nodes.get(key)
        if node is not None:
            return node
        adj = self.adj
        undecided = self.full & ~(chosen | excluded)
        node = (_CRITICAL, 0, 0)
        forced = pivot = 0
        most = -1
        m = undecided
        while m:
            b = m & -m
            m ^= b
            nbrs = adj[b.bit_length() - 1]
            near = nbrs & undecided
            if not near:
                node = (_TOGGLE, b, nbrs)
                break
            if not forced and not near & (near - 1):
                forced = near
            degree = near.bit_count()
            if degree > most:
                pivot, most = b, degree
        else:
            if forced:
                node = (_FORCED, forced, adj[forced.bit_length() - 1])
            elif pivot:
                node = (_SPLIT, pivot, adj[pivot.bit_length() - 1])
        self.nodes[key] = node
        return node

    def critical_cells(self) -> list[int]:
        """The critical cells, from a walk of the tree that skips forced
        branches."""
        out = []
        stack = [(0, 0)]
        while stack:
            chosen, excluded = stack.pop()
            kind, b, nbrs = self.decide(chosen, excluded)
            if kind == _CRITICAL:
                out.append(chosen)
            elif kind != _TOGGLE:
                stack.append((chosen | b, excluded | nbrs))
                if kind == _SPLIT:
                    stack.append((chosen, excluded | b))
        return out

    def partner(self, face: int) -> int | None:
        """The face matched with `face`, or None when it is critical."""
        chosen = excluded = 0
        while True:
            kind, b, nbrs = self.decide(chosen, excluded)
            if kind == _CRITICAL:
                return None
            if kind == _TOGGLE:
                return face ^ b
            if face & b:
                chosen |= b
                excluded |= nbrs
            else:
                excluded |= b

    def is_face(self, mask: int) -> bool:
        m = mask
        while m:
            b = m & -m
            m ^= b
            if self.adj[b.bit_length() - 1] & mask:
                return False
        return True


def _facets(face: int):
    """(facet, incidence sign) pairs: dropping the i-th smallest vertex gives
    sign (-1)^i."""
    m = face
    i = 0
    while m:
        b = m & -m
        m ^= b
        yield face ^ b, -1 if i % 2 else 1
        i += 1


def _morse_column(
    tree: _MatchingTree, cell: int, row_of: dict[int, int], memo: dict
) -> dict[int, int]:
    """The Morse boundary of a critical cell over Z: sum of [cell:f] flow(f)
    over its facets f, as {row: coefficient}."""
    for f, _ in _facets(cell):
        _flow(tree, f, row_of, memo)
    return {r: v for r, v in _facet_sum(cell, memo).items() if v}


def _facet_sum(face: int, memo: dict, skip: int | None = None) -> dict[int, int]:
    """Sum of [face:f] flow(f) over the facets f of `face` other than `skip`,
    each flow already in `memo`."""
    out: dict[int, int] = {}
    for f, sign in _facets(face):
        chain = memo[f] if f != skip else None
        if chain:
            for r, v in chain.items():
                out[r] = out.get(r, 0) + sign * v
    return out


def _flow(tree: _MatchingTree, start: int, row_of: dict[int, int], memo: dict) -> None:
    """Put into `memo` the gradient flow of `start` into the critical cells of
    its size, over Z: a critical face flows to itself, a face matched with a
    smaller one to nothing (None), and a face f matched with a larger face u
    flows to -[u:f] times the sum of [u:f'] flow(f') over the other facets f'
    of u.

    Iterative and memoized: each face is expanded at most once. Before it is
    expanded, its partner must be a face one vertex larger whose own partner
    is the face, and a face met again while it is still being expanded
    closes a gradient cycle; either failure, or an unmatched face that is
    not a critical cell, raises MorseMatchingError."""
    stack: list[tuple[int, int]] = [(start, 0)]
    expanding: set[int] = set()
    while stack:
        face, up = stack.pop()
        if up:
            # the second visit: every other facet of `up` has its flow now;
            # [up:face] is -1 when an odd number of up's vertices precede it
            own = -1 if (up & ((up ^ face) - 1)).bit_count() % 2 else 1
            chain = _facet_sum(up, memo, skip=face)
            memo[face] = {r: -own * v for r, v in chain.items() if v} or None
            expanding.discard(face)
            continue
        if face in memo:
            continue
        if face in expanding:
            raise MorseMatchingError(f"gradient cycle through face {face:#x}")
        other = tree.partner(face)
        if other is None:
            if face not in row_of:
                raise MorseMatchingError(f"face {face:#x} is unmatched but not critical")
            memo[face] = {row_of[face]: 1}
            continue
        if other & face == other:
            memo[face] = None
            continue
        extra = other ^ face
        if (other & face != face or extra & (extra - 1) or not tree.is_face(other)
                or tree.partner(other) != face):
            raise MorseMatchingError(
                f"face {face:#x} is matched with {other:#x}, which is not a face "
                "one vertex larger matched back with it"
            )
        expanding.add(face)
        stack.append((face, other))
        for f, _ in _facets(other):
            if f != face and f not in memo:
                stack.append((f, 0))


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
