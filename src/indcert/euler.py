"""Reduced Euler characteristics of independence complexes, exactly.

`chi_reduced_recursive` is the production route: a frontier
(transfer-matrix) sweep over the vertices that evaluates the independence
polynomial at -1; on grids it is the transfer matrix of hard squares at
activity -1. It is iterative, so no recursion limit applies, and its cost is
exponential only in the width of the frontier. `chi_reduced_enumerate` is
the independent oracle: the signed sum over the independent sets that
`independent_set_masks` enumerates. The two must agree. The same sweep at
activity 1 is `count_faces`, which the Betti route's face budget reads.
Everything is exact integer arithmetic.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, sorted_pair

DEFAULT_FACE_BUDGET = 200_000


class FaceBudgetExceeded(RuntimeError):
    def __init__(self, budget: int):
        super().__init__(f"face budget of {budget} faces exceeded")
        self.budget = budget


def adjacency_masks(g: Graph) -> tuple[list[str], list[int]]:
    """Vertex order (sorted, loops dropped) and adjacency bitmasks."""
    verts = sorted(v for v in g.vertices if v not in g.loops)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for a, b in g.edges:
        if a in index and b in index:
            adj[index[a]] |= 1 << index[b]
            adj[index[b]] |= 1 << index[a]
    return verts, adj


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


def _next_vertex(active: int, unprocessed: int, adj: list[int]) -> int:
    """The sweep's next vertex. Among the unprocessed neighbours of the active
    set: the one leaving the fewest active vertices, then the one with the
    most processed neighbours, then the lowest index. -1 when there is none:
    the active set is empty, and the sweep starts a new component."""
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
        # v joins the active set if it keeps an unprocessed neighbour; an
        # active neighbour of v retires if v was its last one
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


def _frontier_sum(g: Graph, take: int, limit: int | None = None) -> int:
    """The sum over the independent sets S of g of take^|S|, by a frontier
    (transfer-matrix) sweep, for take = -1 (-chi~ of I(g)) or take = 1 (the
    number of faces of I(g), the empty face counted).

    The vertices are processed one at a time in the order of `_next_vertex`.
    A state is the set of chosen vertices among the active ones (processed,
    with an unprocessed neighbour left), and its weight is the sum of
    take^|S| over the independent sets S of the processed vertices that meet
    the active set in it. A vertex is skipped, or taken with the weight
    multiplied by `take` when the state holds none of its neighbours; then
    the vertices with no unprocessed neighbour left retire and equal states
    merge. The sweep is iterative, so its depth is not limited.

    With take = 1 the total only grows as vertices are processed, so once it
    passes `limit` the sweep stops and returns that partial total: a number
    greater than `limit`, not the count."""
    verts, adj = adjacency_masks(g)
    unprocessed = (1 << len(verts)) - 1
    # component starts: least degree first, then lowest index (sorted is stable)
    starts = iter(sorted(range(len(verts)), key=lambda u: adj[u].bit_count()))
    active = 0
    states = {0: 1}
    while unprocessed:
        v = _next_vertex(active, unprocessed, adj)
        if v < 0:
            v = next(u for u in starts if unprocessed >> u & 1)
        vb = 1 << v
        unprocessed ^= vb
        active |= vb
        nbrs = adj[v]
        m = active & (nbrs | vb)   # only v and its neighbours can retire now
        while m:
            b = m & -m
            m ^= b
            if not adj[b.bit_length() - 1] & unprocessed:
                active ^= b
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
    return sum(states.values())


def chi_reduced_recursive(g: Graph) -> int:
    """chi~ of I(g) by the frontier sweep of `_frontier_sum`; the name is kept
    for callers and for the benchmark's tracer, which wraps it by name."""
    return -_frontier_sum(g, -1)


def count_faces(g: Graph, limit: int | None = None) -> int:
    """The number of faces of I(g), the empty face counted, by the frontier
    sweep with unsigned weights. Past `limit` the sweep stops early and
    returns some number greater than `limit`, which is all a budget check
    needs; `independent_set_masks` raises FaceBudgetExceeded on the same
    graphs at the same budget."""
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
