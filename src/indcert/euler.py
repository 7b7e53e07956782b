"""Reduced Euler characteristics of independence complexes, exactly.

`chi_reduced_recursive` is the production route: a frontier
(transfer-matrix) sweep over the vertices that evaluates the independence
polynomial at -1; on grids it is the transfer matrix of hard squares at
activity -1. It is iterative, so no recursion limit applies, and its cost is
exponential only in the width of the frontier: past MAX_FRONTIER_STATES
states it raises FrontierBudgetExceeded. `_sweep` picks the vertex order
greedily, keeping the frontier small, from bitmasks it updates as it goes
rather than by rescanning the frontier for each candidate. A certificate
replay takes every chi~ from one `ReplaySweep`: one order for all its graphs,
and the states of the part that no step changes computed once.
`chi_reduced_enumerate` is the independent oracle: the signed sum over the
independent sets that `independent_set_masks` enumerates. The two must agree.
The same sweep at activity 1 is `count_faces`, which the Betti route's face
budget reads. Everything is exact integer arithmetic.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, sorted_pair

DEFAULT_FACE_BUDGET = 200_000
# The frontier sweep's state budget. Every suite graph stays below a hundred
# states. It is above the default face budget, so that `count_faces` stops at
# that budget before it can reach this one (see there).
MAX_FRONTIER_STATES = 1 << 18


class FaceBudgetExceeded(RuntimeError):
    def __init__(self, budget: int):
        super().__init__(f"face budget of {budget} faces exceeded")
        self.budget = budget


class FrontierBudgetExceeded(RuntimeError):
    def __init__(self, budget: int):
        super().__init__(f"frontier sweep exceeded its budget of {budget} states")
        self.budget = budget


def adjacency_masks(g: Graph) -> tuple[list[str], list[int]]:
    """Vertex order (sorted, loops dropped) and adjacency bitmasks."""
    verts = sorted(v for v in g.vertices if v not in g.loops)
    return verts, edge_masks(g, {v: i for i, v in enumerate(verts)}, len(verts))


def edge_masks(g: Graph, index: dict[str, int], size: int) -> list[int]:
    """`size` bitmasks of g's edges between the vertices that `index` numbers."""
    adj = [0] * size
    for a, b in g.edges:
        if a in index and b in index:
            adj[index[a]] |= 1 << index[b]
            adj[index[b]] |= 1 << index[a]
    return adj


def independent_set_masks(g: Graph, budget: int | None = DEFAULT_FACE_BUDGET):
    """Every independent set of g as a bitmask over the sorted unlooped vertex
    order, in backtracking preorder: a set comes before its extensions, and
    vertices are added lowest index first. Raises FaceBudgetExceeded past
    budget.

    The search keeps, per depth d, the set `cur[d]` it has built and the
    vertices `cand[d]` it may still add there, so its depth is bounded by the
    graph and not by the interpreter's recursion limit."""
    verts, adj = adjacency_masks(g)
    n = len(verts)
    cur = [0] * (n + 1)
    cand = [0] * (n + 1)
    cand[0] = (1 << n) - 1
    out = [0]
    d = 0
    while True:
        if budget is not None and len(out) > budget:
            raise FaceBudgetExceeded(budget)
        while not cand[d]:
            if d == 0:
                return verts, out
            d -= 1
        m = cand[d]
        b = m & -m
        m ^= b
        cand[d] = m
        cur[d + 1] = cur[d] | b
        cand[d + 1] = m & ~adj[b.bit_length() - 1]
        d += 1
        out.append(cur[d])


def chi_reduced_enumerate(g: Graph, budget: int | None = DEFAULT_FACE_BUDGET) -> int:
    """chi~ as the sum over independent S of (-1)^(|S|-1); the empty set gives -1."""
    _, masks = independent_set_masks(g, budget=budget)
    return sum(1 if m.bit_count() % 2 else -1 for m in masks)


def _sweep(adj: list[int]):
    """The frontier sweep's vertex order over the adjacency bitmasks `adj`:
    yields (v, active) per vertex, where active is the set of processed
    vertices that keep an unprocessed neighbour once v is processed.

    The next vertex is the unprocessed neighbour of the active set that
    leaves the fewest active vertices, then the one with the most processed
    neighbours, then the lowest index. When there is none, the active set is
    empty and the sweep starts a new component at the unprocessed vertex of
    least degree, then lowest index.

    The key is kept cheap by two masks carried across the sweep. `border` is
    the unprocessed neighbours of the active set: a vertex retires only once
    it has no unprocessed neighbour, so the border only grows by the
    neighbours of each processed vertex and loses the processed ones. `last`
    is the active vertices with exactly one unprocessed neighbour left: taking
    v adds v to the active set when it keeps an unprocessed neighbour and
    retires exactly its neighbours in `last`. So a candidate's active-set
    size is |active| + [v keeps an unprocessed neighbour] - |adj[v] & last|,
    the same count as a rescan of the active set; |active| is the same for
    every candidate and is left out of the key. Only v and its neighbours
    change their unprocessed count at a step, so only they are rechecked."""
    n = len(adj)
    full = (1 << n) - 1
    unprocessed = full
    # component starts: least degree first, then lowest index (sorted is stable)
    degree = [a.bit_count() for a in adj]
    starts = iter(sorted(range(n), key=degree.__getitem__))
    active = border = last = 0
    while unprocessed:
        processed = full ^ unprocessed
        v, best = -1, n + 1     # every key is at most n
        m = border
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            a = adj[u]
            # the pair (change of the active set's size, -(processed
            # neighbours)) as one int, as the second is below n; a tie keeps
            # the lower index
            key = (((1 if a & unprocessed else 0) - (a & last).bit_count()) * n
                   - (a & processed).bit_count())
            if key < best:
                v, best = u, key
        if v < 0:
            v = next(u for u in starts if unprocessed >> u & 1)
        vb = 1 << v
        unprocessed ^= vb
        nbrs = adj[v]
        active |= vb
        border = (border | nbrs) & unprocessed
        m = active & (nbrs | vb)   # only v and its neighbours change here
        while m:
            b = m & -m
            m ^= b
            left = adj[b.bit_length() - 1] & unprocessed
            if not left:
                active ^= b
            elif not left & (left - 1):
                last |= b
        last &= active
        yield v, active


def _fold(states, adj: list[int], steps, take: int, limit: int | None = None) -> dict[int, int]:
    """The frontier sweep's state loop, from the (state, weight) pairs
    `states` over the (v, active) pairs of `steps`; see `_frontier_sum`."""
    states = dict(states)
    for v, active in steps:
        vb = 1 << v
        nbrs = adj[v]
        merged: dict[int, int] = {}
        # the hot loop: the sign is chosen outside it, not per state
        if take < 0:
            for s, w in states.items():
                t = s & active
                merged[t] = merged.get(t, 0) + w
                if not s & nbrs:
                    t = (s | vb) & active
                    merged[t] = merged.get(t, 0) - w
            states = {s: w for s, w in merged.items() if w}
        else:
            for s, w in states.items():
                t = s & active
                merged[t] = merged.get(t, 0) + w
                if not s & nbrs:
                    t = (s | vb) & active
                    merged[t] = merged.get(t, 0) + w
            states = merged     # no weight is zero
            if limit is not None and sum(states.values()) > limit:
                break
        if len(states) > MAX_FRONTIER_STATES:
            raise FrontierBudgetExceeded(MAX_FRONTIER_STATES)
    return states


def _frontier_sum(g: Graph, take: int, limit: int | None = None) -> int:
    """The sum over the independent sets S of g of take^|S|, by a frontier
    (transfer-matrix) sweep, for take = -1 (-chi~ of I(g)) or take = 1 (the
    number of faces of I(g), the empty face counted).

    The vertices are processed one at a time in the order of `_sweep`. A
    state is the set of chosen vertices among the active ones (processed,
    with an unprocessed neighbour left), and its weight is the sum of
    take^|S| over the independent sets S of the processed vertices that meet
    the active set in it. A vertex is skipped, or taken with the weight
    multiplied by `take` when the state holds none of its neighbours; then
    the vertices with no unprocessed neighbour left retire and equal states
    merge. The sweep is iterative, so its depth is not limited. Past
    MAX_FRONTIER_STATES states it raises FrontierBudgetExceeded.

    With take = 1 the total only grows as vertices are processed, so once it
    passes `limit` the sweep stops and returns that partial total: a number
    greater than `limit`, not the count."""
    _, adj = adjacency_masks(g)
    return sum(_fold(((0, 1),), adj, _sweep(adj), take, limit).values())


def _ordered(adj: list[int], order, unprocessed: int, active: int):
    """(v, active) per vertex of `order` in `unprocessed`, the others
    skipped: `_sweep`'s pairs for an order fixed in advance."""
    for v in order:
        vb = 1 << v
        if not unprocessed & vb:
            continue
        unprocessed ^= vb
        active |= vb
        m = active & (adj[v] | vb)   # only v and its neighbours change here
        while m:
            b = m & -m
            m ^= b
            if not adj[b.bit_length() - 1] & unprocessed:
                active ^= b
        yield v, active


def _cost(pairs, k: int, graphs: int) -> int:
    """A bound on the states that `graphs` sweeps in the order of `pairs`
    visit when they share the first k vertices: a vertex with active set A
    leaves at most 2^|A| states."""
    bound = [1 << active.bit_count() for _, active in pairs]
    return sum(bound[:k]) + graphs * sum(bound[k:])


class SweepHintError(RuntimeError):
    """A graph given to `ReplaySweep.chi` changed outside the region its hint
    allows. This is a fault of the program, never an input error."""


class ReplaySweep:
    """chi~ of I(g) for the graphs of one certificate replay, by one sweep
    order and one shared prefix of states.

    `changing` holds the labels the steps touch: each del_vertex target and
    both endpoints of each edge step. Steps delete only touched vertices and
    edit only edges between them, so each vertex outside `near`, the closed
    neighbourhood of `changing` in the initial graph g0, keeps its presence
    and its neighbours in every replayed graph; `chi` checks this on g's
    masks, in g0's index space, and raises SweepHintError when it fails. The
    vertices before the first one in `near` are then the same, with the same
    neighbours, in every graph, and so are the states after them: those are
    computed once, as (state, weight) pairs, and each graph is swept on from
    there with its own active sets, its deleted vertices skipped. Any order
    gives the exact sum, so the result never rests on the hint;
    MAX_FRONTIER_STATES applies.

    The order is `_sweep`'s on g0 or, when that reaches `near` later, its
    reverse, if `_cost` puts it below the greedy order for the `graphs`
    graphs that `chi` will see. The reverse can share far more (40 of the 56
    vertices of `p4n-to-x(14)`, where the greedy order meets `near` first)
    but can also hold a far wider frontier: the greedy order retires a hub's
    pendant leaves at once, the reverse keeps them all active until the hub."""

    def __init__(self, g0: Graph, changing, graphs: int):
        verts, adj = adjacency_masks(g0)
        self._index = index = {v: i for i, v in enumerate(verts)}
        near = 0
        for v in changing:
            if v in index:
                near |= adj[index[v]] | 1 << index[v]
        full = (1 << len(verts)) - 1
        pairs = list(_sweep(adj))
        hits = [i for i, (v, _) in enumerate(pairs) if near >> v & 1] or [len(pairs)]
        k, back = hits[0], len(pairs) - 1 - hits[-1]
        if back > k:
            rev = list(_ordered(adj, [v for v, _ in reversed(pairs)], full, 0))
            if _cost(rev, back, graphs) < _cost(pairs, k, graphs):
                pairs, k = rev, back
        self._active = pairs[k - 1][1] if k else 0
        self._prefix = tuple(_fold(((0, 1),), adj, pairs[:k], -1).items())
        self._order = [v for v, _ in pairs[k:]]
        self._rest = sum(1 << v for v in self._order)
        self._adj, self._outside = adj, full & ~near

    def chi(self, g: Graph) -> int:
        index, adj0, outside = self._index, self._adj, self._outside
        live = g.vertex_set - g.loops
        if not live <= index.keys():
            raise SweepHintError("a vertex is unlooped here but not in the initial graph")
        pos = {v: index[v] for v in live}
        present = sum(1 << i for i in pos.values())
        adj = edge_masks(g, pos, len(adj0))
        if present & outside != outside or any(
            adj[i] != adj0[i] for i in range(len(adj)) if outside >> i & 1
        ):
            raise SweepHintError("the graph changed outside the vertices the replay touches")
        steps = _ordered(adj, self._order, present & self._rest, self._active)
        return -sum(_fold(self._prefix, adj, steps, -1).values())


def chi_reduced_recursive(g: Graph) -> int:
    """chi~ of I(g) by the frontier sweep of `_frontier_sum`; the name is kept
    for callers and for the benchmark's tracer, which wraps it by name."""
    return -_frontier_sum(g, -1)


def count_faces(g: Graph, limit: int | None = None) -> int:
    """The number of faces of I(g), the empty face counted, by the frontier
    sweep with unsigned weights. Past `limit` the sweep stops early and
    returns some number greater than `limit`, which is all a budget check
    needs; `independent_set_masks` raises FaceBudgetExceeded on the same
    graphs at the same budget. A `limit` of at most MAX_FRONTIER_STATES, the
    default face budget among them, never meets FrontierBudgetExceeded: every
    state weighs at least 1, so the total passes the limit no later than the
    state count passes the state budget. With no limit, or a larger one, the
    sweep can raise it."""
    return _frontier_sum(g, 1, limit)


def chi_reduced(
    g: Graph, method: str = "recursive", budget: int | None = DEFAULT_FACE_BUDGET
) -> int:
    if method == "recursive":
        return chi_reduced_recursive(g)
    if method == "enumerate":
        return chi_reduced_enumerate(g, budget=budget)
    raise ValueError(f"unknown method {method!r}")


def chi_four_row_grid(n: int) -> int:
    """Closed form for chi~ of the independence complex of the 4-by-n grid."""
    if n < 1:
        raise ValueError("need n >= 1")
    k, i = divmod(n, 6)
    return (-2 * k - 1, 2 * k, -2 * k - 1, 2 * k + 1, -2 * k - 2, 2 * k + 1)[i]


def edge_deletion_identity(g: Graph, e: tuple[str, str]) -> bool:
    """Check chi~(I(G-e)) = chi~(I(G)) + chi~(I(G \\ N[e])).

    The sign is calibrated on the single-edge graph: there the left side is 0,
    chi~(I(G)) = 1 and chi~ of the empty graph's complex is -1.
    """
    a, b = e
    if not g.has_edge(a, b):
        raise GraphError(f"no edge {a!r}-{b!r}")
    left = chi_reduced_recursive(g.delete_edge(a, b))
    mid = chi_reduced_recursive(g)
    right = chi_reduced_recursive(g.delete_vertices(g.closed_neighborhood(sorted_pair(a, b))))
    return left == mid + right
