"""Labeled undirected graphs with loops, plus the grid-like family generators.

Graphs are immutable values: every edit returns a new graph. Vertices are
non-empty string labels; grid vertices use the canonical form ``r<row>c<col>``.
A loop is recorded separately from ordinary edges (an edge never pairs a label
with itself). Identifications that would create parallel edges collapse them
to one simple edge; identifying two adjacent vertices produces a loop on the
merged vertex, and a looped vertex belongs to no independent set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property


class GraphError(ValueError):
    """Invalid graph construction or edit."""


def sorted_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def grid_label(row: int, col: int) -> str:
    return f"r{row}c{col}"


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    loops: frozenset[str]

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {v: frozenset(ns) for v, ns in adj.items()}

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    def neighbors(self, v: str) -> frozenset[str]:
        if v not in self.adjacency:
            raise GraphError(f"unknown vertex {v!r}")
        return self.adjacency[v]

    def has_edge(self, a: str, b: str) -> bool:
        return sorted_pair(a, b) in self.edges

    def n_vertices(self) -> int:
        return len(self.vertices)

    def n_edges(self) -> int:
        return len(self.edges)

    def closed_neighborhood(self, target: str | tuple[str, str]) -> frozenset[str]:
        """N[v] for a vertex target, N[u] ∪ N[v] for an edge target.

        A loop at v contributes nothing beyond v itself. An edge target must
        actually be an edge of the graph.
        """
        if isinstance(target, str):
            return self.neighbors(target) | {target}
        a, b = target
        if not self.has_edge(a, b):
            raise GraphError(f"no edge {a!r}-{b!r}")
        return self.neighbors(a) | self.neighbors(b) | {a, b}

    def delete_vertices(self, remove: set[str] | frozenset[str]) -> Graph:
        remove = frozenset(remove)
        missing = remove - self.vertex_set
        if missing:
            raise GraphError(f"unknown vertices {sorted(missing)}")
        return Graph(
            tuple(v for v in self.vertices if v not in remove),
            frozenset(e for e in self.edges if not (e[0] in remove or e[1] in remove)),
            self.loops - remove,
        )

    def delete_edge(self, a: str, b: str) -> Graph:
        e = sorted_pair(a, b)
        if e not in self.edges:
            raise GraphError(f"no edge {a!r}-{b!r} to delete")
        return Graph(self.vertices, self.edges - {e}, self.loops)

    def add_edge(self, a: str, b: str) -> Graph:
        if a == b:
            raise GraphError(f"cannot add edge pairing {a!r} with itself")
        for x in (a, b):
            if x not in self.vertex_set:
                raise GraphError(f"unknown vertex {x!r}")
        e = sorted_pair(a, b)
        if e in self.edges:
            raise GraphError(f"edge {a!r}-{b!r} already present")
        return Graph(self.vertices, self.edges | {e}, self.loops)

    def disjoint_union(self, other: Graph, suffix: str | None = None) -> Graph:
        """Disjoint union; clashing labels are an error unless a suffix is given."""
        clash = self.vertex_set & other.vertex_set
        if clash and suffix is None:
            raise GraphError(f"label clash {sorted(clash)}; pass a suffix")
        if suffix is not None:
            ren = {v: v + suffix for v in other.vertices}
            if set(ren.values()) & self.vertex_set:
                raise GraphError("suffix does not resolve the label clash")
            other = other.relabel(ren)
        return Graph(
            self.vertices + other.vertices,
            self.edges | other.edges,
            self.loops | other.loops,
        )

    def relabel(self, mapping: dict[str, str]) -> Graph:
        new = [mapping.get(v, v) for v in self.vertices]
        if len(set(new)) != len(new):
            raise GraphError("relabeling collides")
        return Graph(
            tuple(new),
            frozenset(sorted_pair(mapping.get(a, a), mapping.get(b, b)) for a, b in self.edges),
            frozenset(mapping.get(v, v) for v in self.loops),
        )

    def to_json_dict(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "edges": sorted(list(e) for e in self.edges),
            "loops": sorted(self.loops),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=None, separators=(",", ":"), sort_keys=True)


def make_graph(
    vertices: list[str] | tuple[str, ...],
    edges: list[tuple[str, str]] | None = None,
    loops: list[str] | tuple[str, ...] | None = None,
) -> Graph:
    """Canonical graph constructor.

    Duplicate edges and both orientations of a pair are tolerated and
    deduplicated. A pair (a, a) is rejected: self-adjacency is represented
    only through ``loops``.
    """
    vs = tuple(vertices)
    if len(set(vs)) != len(vs):
        raise GraphError("duplicate vertex labels")
    for v in vs:
        if not isinstance(v, str) or not v:
            raise GraphError(f"bad vertex label {v!r}")
    vset = set(vs)
    es: set[tuple[str, str]] = set()
    for a, b in edges or []:
        if a == b:
            raise GraphError(f"edge pairs {a!r} with itself; use loops")
        if a not in vset or b not in vset:
            raise GraphError(f"edge ({a!r},{b!r}) has an unknown endpoint")
        es.add(sorted_pair(a, b))
    ls = set(loops or [])
    if not ls <= vset:
        raise GraphError(f"unknown loop vertices {sorted(ls - vset)}")
    return Graph(vs, frozenset(es), frozenset(ls))


# ---------------------------------------------------------------------------
# Family generators


TWO_PARAMETER_FAMILIES = ("P", "C", "M", "CH")
FAMILY_TAGS = TWO_PARAMETER_FAMILIES + ("MH1", "X4", "Y4")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    m: int | None
    n: int

    def __post_init__(self):
        if self.family not in FAMILY_TAGS:
            raise GraphError(f"unknown family {self.family!r}")
        if self.family in TWO_PARAMETER_FAMILIES:
            if self.m is None or self.m < 1:
                raise GraphError(f"family {self.family} needs m >= 1")
        elif self.m is not None:
            raise GraphError(f"family {self.family} takes only n")
        if self.n < 1:
            raise GraphError("need n >= 1")

    def to_json_dict(self) -> dict:
        d: dict = {"family": self.family, "n": self.n}
        if self.m is not None:
            d["m"] = self.m
        return d


def grid(m: int, n: int) -> Graph:
    """The m-by-n square grid: rows 1..m, columns 1..n."""
    if m < 1 or n < 1:
        raise GraphError("grid needs m, n >= 1")
    vs = [grid_label(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    es = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if j < n:
                es.append((grid_label(i, j), grid_label(i, j + 1)))
            if i < m:
                es.append((grid_label(i, j), grid_label(i + 1, j)))
    return make_graph(vs, es)


def _identify(g: Graph, mapping: dict[str, str]) -> Graph:
    """Quotient by vertex identification; parallel edges collapse, a merged
    adjacent pair leaves a loop on the surviving vertex."""
    def img(v: str) -> str:
        return mapping.get(v, v)

    vs = []
    seen = set()
    for v in g.vertices:
        w = img(v)
        if w not in seen:
            seen.add(w)
            vs.append(w)
    es: set[tuple[str, str]] = set()
    ls: set[str] = {img(v) for v in g.loops}
    for a, b in g.edges:
        a2, b2 = img(a), img(b)
        if a2 == b2:
            ls.add(a2)
        else:
            es.add(sorted_pair(a2, b2))
    return Graph(tuple(vs), frozenset(es), frozenset(ls))


def cylinder(m: int, n: int) -> Graph:
    """Wrap the m-by-(n+1) grid by identifying column n+1 with column 1."""
    g = grid(m, n + 1)
    mapping = {grid_label(i, n + 1): grid_label(i, 1) for i in range(1, m + 1)}
    return _identify(g, mapping)


def moebius(m: int, n: int) -> Graph:
    """Wrap the m-by-(n+1) grid with a row reversal: column n+1 vertex in row i
    lands on row m-i+1 of column 1."""
    g = grid(m, n + 1)
    mapping = {grid_label(i, n + 1): grid_label(m - i + 1, 1) for i in range(1, m + 1)}
    return _identify(g, mapping)


def hex_cylinder(m: int, n: int) -> Graph:
    """Hexagonal cylinder: the (m+1)-row, 2n-column cylinder with the vertical
    edge between rows i-1, i at column j removed whenever i - j is even."""
    g = cylinder(m + 1, 2 * n)
    drop = set()
    for i in range(2, m + 2):
        for j in range(1, 2 * n + 1):
            if (i - j) % 2 == 0:
                e = sorted_pair(grid_label(i - 1, j), grid_label(i, j))
                if e in g.edges:
                    drop.add(e)
    return Graph(g.vertices, g.edges - frozenset(drop), g.loops)


def moebius_hex_strip(n: int) -> Graph:
    """The 2-row, 2n-column Moebius strip with the verticals at odd columns
    1, 3, ..., 2n-1 removed."""
    g = moebius(2, 2 * n)
    drop = set()
    for j in range(1, 2 * n, 2):
        e = sorted_pair(grid_label(1, j), grid_label(2, j))
        if e in g.edges:
            drop.add(e)
    return Graph(g.vertices, g.edges - frozenset(drop), g.loops)


def four_row_with_chord(n: int) -> Graph:
    """The 4-by-n grid plus the first-column chord r1c1-r4c1."""
    return grid(4, n).add_edge(grid_label(1, 1), grid_label(4, 1))


def four_row_minus_corners(n: int) -> Graph:
    """The 4-by-n grid minus its first-column corner vertices r1c1, r4c1."""
    return grid(4, n).delete_vertices({grid_label(1, 1), grid_label(4, 1)})


def generate_family(spec: FamilySpec) -> Graph:
    if spec.family == "P":
        return grid(spec.m, spec.n)
    if spec.family == "C":
        return cylinder(spec.m, spec.n)
    if spec.family == "M":
        return moebius(spec.m, spec.n)
    if spec.family == "CH":
        return hex_cylinder(spec.m, spec.n)
    if spec.family == "MH1":
        return moebius_hex_strip(spec.n)
    if spec.family == "X4":
        return four_row_with_chord(spec.n)
    if spec.family == "Y4":
        return four_row_minus_corners(spec.n)
    raise GraphError(f"unknown family {spec.family!r}")


# ---------------------------------------------------------------------------
# Graph comparison


def graphs_equal_labeled(g: Graph, h: Graph) -> bool:
    return (
        g.vertex_set == h.vertex_set
        and g.edges == h.edges
        and g.loops == h.loops
    )


# ---------------------------------------------------------------------------
# JSON input (graph documents and family references)


def check_keys(doc: dict, allowed: tuple[str, ...], kind: str) -> None:
    """Raise GraphError on a key no writer of a `kind` document emits, so that
    a misspelt key is an error rather than a silently different input."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise GraphError(f"malformed {kind} document: unknown key {unknown[0]!r}")


def family_from_json_dict(doc: dict) -> FamilySpec:
    check_keys(doc, ("family", "m", "n"), "family")
    fam = doc.get("family")
    if not isinstance(fam, str):
        raise GraphError("family document needs a 'family' string")
    # JSON true and false load as bool, an int subclass: hence `type(x) is int`
    n = doc.get("n")
    if type(n) is not int:
        raise GraphError("family document needs an integer 'n'")
    m = doc.get("m")
    if m is not None and type(m) is not int:
        raise GraphError("'m' must be an integer")
    return FamilySpec(fam, m, n)


def is_label(x) -> bool:
    """A vertex label as a JSON document may give it: a non-empty string."""
    return isinstance(x, str) and x != ""


def is_label_pair(x) -> bool:
    """An edge as a JSON document may give it: a list of two labels."""
    return isinstance(x, list) and len(x) == 2 and all(is_label(v) for v in x)


def graph_from_json_dict(doc: dict) -> Graph:
    """Accepts either a graph document or a family reference document."""
    if not isinstance(doc, dict):
        raise GraphError("expected a JSON object")
    if "family" in doc:
        return generate_family(family_from_json_dict(doc))
    if "vertices" not in doc:
        raise GraphError("malformed graph document: no 'vertices'")
    check_keys(doc, ("vertices", "edges", "loops"), "graph")
    for key, ok, what in (
        ("vertices", is_label, "non-empty strings"),
        ("edges", is_label_pair, "2-element lists of non-empty strings"),
        ("loops", is_label, "non-empty strings"),
    ):
        value = doc.get(key, [])
        if not isinstance(value, list) or not all(ok(x) for x in value):
            raise GraphError(f"malformed graph document: {key!r} must be a list of {what}")
    return make_graph(
        doc["vertices"], [tuple(e) for e in doc.get("edges", [])], doc.get("loops", [])
    )


def graph_from_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    return graph_from_json_dict(doc)
