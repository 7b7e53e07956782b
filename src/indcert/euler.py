"""Reduced Euler characteristics of independence complexes, exactly.

`chi_reduced_recursive` is the production route: a memoized vertex recursion
on the independence polynomial evaluated at -1, with connected-component
splitting. `chi_reduced_enumerate` is the independent oracle: the signed sum
over the independent sets that `independent_set_masks` enumerates. The two
must agree. Everything is exact integer arithmetic.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, sorted_pair

DEFAULT_FACE_BUDGET = 200_000


class FaceBudgetExceeded(RuntimeError):
    def __init__(self, budget: int):
        super().__init__(f"face budget of {budget} faces exceeded")
        self.budget = budget


def _adjacency_masks(g: Graph) -> tuple[list[str], list[int]]:
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
    """Yield every independent set of g as a bitmask over the sorted unlooped
    vertex order. Exact backtracking; raises FaceBudgetExceeded past budget."""
    verts, adj = _adjacency_masks(g)
    n = len(verts)
    out: list[int] = []
    limit = budget if budget is not None else None
    full = (1 << n) - 1

    def rec(current: int, candidates: int):
        out.append(current)
        if limit is not None and len(out) > limit:
            raise FaceBudgetExceeded(limit)
        m = candidates
        while m:
            b = m & -m
            m ^= b
            rec(current | b, m & ~adj[b.bit_length() - 1])

    try:
        rec(0, full)
    finally:
        del rec  # rec refers to itself: break the cycle so `out` is freed on return
    return verts, out


def chi_reduced_enumerate(g: Graph, budget: int | None = DEFAULT_FACE_BUDGET) -> int:
    """chi~ as the sum over independent S of (-1)^(|S|-1); the empty set gives -1."""
    _, masks = independent_set_masks(g, budget=budget)
    return sum(1 if m.bit_count() % 2 else -1 for m in masks)


def _components(mask: int, adj: list[int]) -> list[int]:
    comps = []
    rem = mask
    while rem:
        seed = rem & -rem
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                nxt |= adj[b.bit_length() - 1] & mask & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        rem &= ~comp
    return comps


def chi_reduced_recursive(g: Graph) -> int:
    """chi~ via the vertex recursion on the signed independent-set count
    f(G) = f(G - v) - f(G \\ N[v]), memoized on induced vertex subsets and
    multiplied over connected components; returns -f(G)."""
    verts, adj = _adjacency_masks(g)
    n = len(verts)
    memo: dict[int, int] = {0: 1}

    def signed_count(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        comps = _components(mask, adj)
        if len(comps) > 1:
            val = 1
            for c in comps:
                val *= signed_count(c)
            memo[mask] = val
            return val
        # pivot: maximum degree within the induced subgraph
        best_v = -1
        best_d = -1
        m = mask
        while m:
            b = m & -m
            m ^= b
            i = b.bit_length() - 1
            d = (adj[i] & mask).bit_count()
            if d > best_d:
                best_d = d
                best_v = i
        vb = 1 << best_v
        val = signed_count(mask & ~vb) - signed_count(mask & ~(adj[best_v] | vb))
        memo[mask] = val
        return val

    try:
        return -signed_count((1 << n) - 1)
    finally:
        del signed_count  # break the self-reference so `memo` is freed on return


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


def edge_deletion_identity(g: Graph, e: tuple[str, str], budget: int | None = None) -> bool:
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
