"""Builtin certificates and the generic patch-replacement generators.

The three replacement rules:

* thm1 -- replace an edge u-v by a length-four path u-x-y-z-v; the complex of
  the new graph is a suspension of the old one, witnessed by a 3-step
  certificate ending at the old graph plus a detached edge.
* thm2 -- replace an induced 2-by-2 grid patch (corners a,ā,b,b̄) by a 2-by-4
  grid wired with one crossing between the two interior columns; 6 steps, one
  suspension, final = old graph plus a detached edge. The vertical a-ā may be
  absent (relaxed mode).
* thm3 -- replace an induced 3-by-2 grid patch by a 3-by-6 grid whose outer
  rows cross between the two middle interior columns; 33 steps, three
  suspensions, final = old graph plus a detached 8-cycle.

Builtins transcribe the fixed reduction sequences for the small grid families
(the step counts are pinned by tests). Certificates store their expected final
graph explicitly; replay checks it label-for-label.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .graphs import (
    FamilySpec,
    Graph,
    GraphError,
    cylinder,
    four_row_minus_corners,
    grid,
    grid_label,
    hex_cylinder,
    make_graph,
    moebius,
    sorted_pair,
)
from .moves import ADD_EDGE, DEL_EDGE, DEL_VERTEX, Certificate, OpStep

PATCH_EDGE = "edge"
PATCH_P22 = "p22"
PATCH_P32 = "p32"
PATCH_ROLES = (PATCH_EDGE, PATCH_P22, PATCH_P32)

ROLE_FOR_RULE = {"thm1": PATCH_EDGE, "thm2": PATCH_P22, "thm3": PATCH_P32}
SUSPENSION_COUNT = {"thm1": 1, "thm2": 1, "thm3": 3}

# The edges each patch role requires, as index pairs into its labels (u, v),
# (a, ā, b, b̄) and (a1, a2, a3, b1, b2, b3). Every label lies on one, so the
# table also fixes the label count. The last p22 pair is the vertical a-ā,
# which relaxed mode leaves optional.
PATCH_EDGES = {
    PATCH_EDGE: ((0, 1),),
    PATCH_P22: ((2, 3), (0, 2), (1, 3), (0, 1)),
    PATCH_P32: ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)),
}


class PatchError(GraphError):
    """The marked patch does not validate against the host graph."""


@dataclass(frozen=True)
class MarkedPatch:
    role: str
    labels: tuple[str, ...]
    relaxed: bool = False

    def __post_init__(self):
        if self.role not in PATCH_ROLES:
            raise GraphError(f"unknown patch role {self.role!r}")
        need = 1 + max(max(pair) for pair in PATCH_EDGES[self.role])
        if len(self.labels) != need:
            raise GraphError(f"{self.role} patch needs {need} labels")
        if len(set(self.labels)) != need:
            raise GraphError("patch labels must be distinct")
        if self.relaxed and self.role != PATCH_P22:
            raise GraphError("relaxed mode applies to p22 patches only")

    def edges(self) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
        """The (required, optional) patch edges as label pairs."""
        pairs = [(self.labels[i], self.labels[j]) for i, j in PATCH_EDGES[self.role]]
        if self.relaxed:
            return pairs[:-1], pairs[-1:]
        return pairs, []


def validate_patch(g: Graph, patch: MarkedPatch) -> None:
    """Raise PatchError unless the induced subgraph on the patch labels is
    exactly the required grid piece (relaxed p22: a-ā optional)."""
    labels = patch.labels
    for v in labels:
        if v not in g.vertex_set:
            raise PatchError(f"patch label {v!r} is not a vertex")
        if v in g.loops:
            raise PatchError(f"patch vertex {v!r} carries a loop")
    required, optional = patch.edges()
    for a, b in required:
        if not g.has_edge(a, b):
            raise PatchError(f"patch edge {a}-{b} is missing")
    allowed = {sorted_pair(a, b) for a, b in required + optional}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            e = sorted_pair(a, b)
            if e in g.edges and e not in allowed:
                raise PatchError(f"host has an extra induced edge {a}-{b}")


def _fresh_labels(g: Graph, names: list[str]) -> list[str]:
    taken = set(g.vertex_set)
    out = []
    for name in names:
        if name in taken or name in out:
            raise PatchError(f"interior label {name!r} collides with the host")
        out.append(name)
    return out


def make_replacement(g: Graph, patch: MarkedPatch) -> tuple[Graph, Certificate]:
    """Build the enlarged graph H for the patch's rule, plus the certificate
    reducing H back to g with a detached factor."""
    validate_patch(g, patch)
    if patch.role == PATCH_EDGE:
        return _replace_edge(g, patch)
    if patch.role == PATCH_P22:
        return _replace_p22(g, patch)
    return _replace_p32(g, patch)


def _replace_edge(g: Graph, patch: MarkedPatch) -> tuple[Graph, Certificate]:
    u, v = patch.labels
    x, y, z = _fresh_labels(g, ["x", "y", "z"])
    h = g.delete_edge(u, v)
    h = Graph(
        h.vertices + (x, y, z),
        h.edges | {sorted_pair(u, x), sorted_pair(x, y), sorted_pair(y, z), sorted_pair(z, v)},
        h.loops,
    )
    steps = (
        OpStep(ADD_EDGE, (u, v), y),
        OpStep(DEL_EDGE, (u, x), z),
        OpStep(DEL_VERTEX, z, x),
    )
    final = Graph(g.vertices + (x, y), g.edges | {sorted_pair(x, y)}, g.loops)
    cert = Certificate(
        "thm1-replacement", h, steps, final,
        note="edge-to-path replacement reduced back to the host plus a detached edge",
    )
    return h, cert


def _replace_p22(g: Graph, patch: MarkedPatch) -> tuple[Graph, Certificate]:
    a, abar, b, bbar = patch.labels
    x1, x1b, x2, x2b = _fresh_labels(g, ["x1", "x1b", "x2", "x2b"])
    h = g.delete_edge(a, b).delete_edge(abar, bbar)
    new_edges = {
        sorted_pair(x1, x1b), sorted_pair(x2, x2b),
        sorted_pair(a, x1), sorted_pair(x1, x2b), sorted_pair(x2b, bbar),
        sorted_pair(abar, x1b), sorted_pair(x1b, x2), sorted_pair(x2, b),
    }
    h = Graph(h.vertices + (x1, x1b, x2, x2b), h.edges | new_edges, h.loops)
    steps = (
        OpStep(ADD_EDGE, (a, b), x2b),
        OpStep(ADD_EDGE, (abar, bbar), x2),
        OpStep(DEL_EDGE, (a, x1), x2),
        OpStep(DEL_EDGE, (abar, x1b), x2b),
        OpStep(DEL_VERTEX, x2b, x1b),
        OpStep(DEL_VERTEX, x2, x1),
    )
    final = Graph(g.vertices + (x1, x1b), g.edges | {sorted_pair(x1, x1b)}, g.loops)
    cert = Certificate(
        "thm2-replacement", h, steps, final,
        note="2-row patch replacement reduced back to the host plus a detached edge",
    )
    return h, cert


def _replace_p32(g: Graph, patch: MarkedPatch) -> tuple[Graph, Certificate]:
    a1, a2, a3, b1, b2, b3 = patch.labels
    names = [f"c{k}r{r}" for k in range(1, 5) for r in range(1, 4)]
    _fresh_labels(g, names)
    c = {(k, r): f"c{k}r{r}" for k in range(1, 5) for r in range(1, 4)}
    h = g.delete_edge(a1, b1).delete_edge(a2, b2).delete_edge(a3, b3)
    new_edges = set()
    for k in range(1, 5):
        new_edges.add(sorted_pair(c[k, 1], c[k, 2]))
        new_edges.add(sorted_pair(c[k, 2], c[k, 3]))
    # middle row runs straight through; outer rows break between columns 2
    # and 3 and cross over
    chain2 = [a2, c[1, 2], c[2, 2], c[3, 2], c[4, 2], b2]
    for s, t in zip(chain2, chain2[1:]):
        new_edges.add(sorted_pair(s, t))
    for r, ar, br in ((1, a1, b1), (3, a3, b3)):
        new_edges.add(sorted_pair(ar, c[1, r]))
        new_edges.add(sorted_pair(c[1, r], c[2, r]))
        new_edges.add(sorted_pair(c[3, r], c[4, r]))
        new_edges.add(sorted_pair(c[4, r], br))
    new_edges.add(sorted_pair(c[2, 1], c[3, 3]))
    new_edges.add(sorted_pair(c[2, 3], c[3, 1]))
    h = Graph(h.vertices + tuple(names), h.edges | new_edges, h.loops)

    A = {1: a1, 2: a2, 3: a3}
    B = {1: b1, 2: b2, 3: b3}
    steps = (
        # stage 1: restore the three host horizontals
        OpStep(ADD_EDGE, (A[2], c[3, 1]), c[1, 3]),
        OpStep(ADD_EDGE, (A[2], B[2]), c[4, 1]),
        OpStep(DEL_EDGE, (A[2], c[3, 1]), c[1, 3]),
        OpStep(ADD_EDGE, (A[1], c[2, 3]), c[1, 2]),
        OpStep(ADD_EDGE, (A[1], c[3, 2]), c[2, 1]),
        OpStep(ADD_EDGE, (A[1], B[1]), c[3, 1]),
        OpStep(DEL_EDGE, (A[1], c[3, 2]), c[2, 1]),
        OpStep(DEL_EDGE, (A[1], c[2, 3]), c[1, 2]),
        OpStep(ADD_EDGE, (A[3], c[2, 1]), c[1, 2]),
        OpStep(ADD_EDGE, (A[3], c[3, 2]), c[2, 3]),
        OpStep(ADD_EDGE, (A[3], B[3]), c[3, 3]),
        OpStep(DEL_EDGE, (A[3], c[3, 2]), c[2, 3]),
        OpStep(DEL_EDGE, (A[3], c[2, 1]), c[1, 2]),
        # stage 2: detach the first interior column from the host
        OpStep(ADD_EDGE, (c[1, 1], c[3, 1]), c[2, 2]),
        OpStep(ADD_EDGE, (c[1, 1], c[4, 2]), c[3, 3]),
        OpStep(DEL_EDGE, (A[1], c[1, 1]), c[4, 1]),
        OpStep(DEL_EDGE, (c[1, 1], c[3, 1]), c[2, 2]),
        OpStep(ADD_EDGE, (c[1, 3], c[3, 3]), c[2, 2]),
        OpStep(ADD_EDGE, (c[1, 3], c[4, 2]), c[3, 1]),
        OpStep(DEL_EDGE, (A[3], c[1, 3]), c[4, 3]),
        OpStep(DEL_EDGE, (c[1, 3], c[3, 3]), c[2, 2]),
        OpStep(ADD_EDGE, (c[1, 2], c[4, 1]), c[2, 3]),
        OpStep(ADD_EDGE, (c[1, 2], c[3, 2]), c[2, 1]),
        OpStep(ADD_EDGE, (c[1, 2], c[4, 3]), c[2, 1]),
        OpStep(DEL_EDGE, (A[2], c[1, 2]), c[4, 2]),
        # stage 3: remove the last interior column
        OpStep(DEL_EDGE, (c[1, 2], c[3, 2]), c[2, 1]),
        OpStep(ADD_EDGE, (c[2, 2], c[4, 2]), c[3, 3]),
        OpStep(DEL_VERTEX, c[4, 2], c[1, 2]),
        OpStep(ADD_EDGE, (c[2, 3], c[4, 3]), c[3, 2]),
        OpStep(DEL_VERTEX, c[4, 3], c[1, 3]),
        OpStep(ADD_EDGE, (c[2, 1], c[4, 1]), c[3, 2]),
        OpStep(DEL_VERTEX, c[4, 1], c[1, 1]),
        # stage 4: the middle of the second interior column goes last
        OpStep(DEL_VERTEX, c[2, 2], c[1, 1]),
    )

    cycle = [c[1, 2], c[1, 1], c[2, 1], c[3, 3], c[3, 2], c[3, 1], c[2, 3], c[1, 3]]
    cycle_edges = {
        sorted_pair(s, t) for s, t in zip(cycle, cycle[1:] + cycle[:1])
    }
    survivors = tuple(v for v in names if v not in (c[2, 2], c[4, 1], c[4, 2], c[4, 3]))
    final = Graph(g.vertices + survivors, g.edges | cycle_edges, g.loops)
    cert = Certificate(
        "thm3-replacement", h, steps, final,
        note="3-row patch replacement reduced back to the host plus a detached 8-cycle",
    )
    return h, cert


# ---------------------------------------------------------------------------
# Builtin certificate library


def _gl(r, cidx):
    return grid_label(r, cidx)


def _steps(*triples) -> tuple[OpStep, ...]:
    out = []
    for kind, target, witness in triples:
        out.append(OpStep(kind, target, witness))
    return tuple(out)


def _cert_p42() -> Certificate:
    steps = _steps(
        (DEL_VERTEX, _gl(2, 1), _gl(1, 2)),
        (DEL_VERTEX, _gl(2, 2), _gl(1, 1)),
        (DEL_VERTEX, _gl(3, 1), _gl(4, 2)),
        (DEL_VERTEX, _gl(3, 2), _gl(4, 1)),
    )
    final = make_graph(
        [_gl(1, 1), _gl(1, 2), _gl(4, 1), _gl(4, 2)],
        [(_gl(1, 1), _gl(1, 2)), (_gl(4, 1), _gl(4, 2))],
    )
    return Certificate(
        "p42", FamilySpec("P", 4, 2), steps, final,
        note="4x2 grid down to the two outer-row edges (a 1-sphere complex)",
    )


def _cert_c32() -> Certificate:
    steps = _steps(
        (DEL_VERTEX, _gl(2, 1), _gl(1, 2)),
        (DEL_VERTEX, _gl(2, 2), _gl(1, 1)),
    )
    final = make_graph(
        [_gl(1, 1), _gl(1, 2), _gl(3, 1), _gl(3, 2)],
        [(_gl(1, 1), _gl(1, 2)), (_gl(3, 1), _gl(3, 2))],
    )
    return Certificate(
        "c32", FamilySpec("C", 3, 2), steps, final,
        note="3-row width-2 cylinder down to two detached edges",
    )


def _cert_m32() -> Certificate:
    steps = _steps(
        (DEL_VERTEX, _gl(3, 1), _gl(1, 1)),
        (DEL_VERTEX, _gl(3, 2), _gl(1, 2)),
        (DEL_VERTEX, _gl(2, 1), _gl(1, 2)),
        (DEL_VERTEX, _gl(2, 2), _gl(1, 1)),
    )
    final = make_graph(
        [_gl(1, 1), _gl(1, 2)],
        [(_gl(1, 1), _gl(1, 2))],
    )
    return Certificate(
        "m32", FamilySpec("M", 3, 2), steps, final,
        note="3-row width-2 Moebius strip down to one edge (a 0-sphere complex)",
    )


def _cert_c33() -> Certificate:
    steps = _steps(
        (ADD_EDGE, (_gl(1, 1), _gl(3, 2)), _gl(2, 3)),
        (ADD_EDGE, (_gl(1, 1), _gl(3, 3)), _gl(2, 2)),
        (DEL_VERTEX, _gl(1, 1), _gl(3, 1)),
        (DEL_VERTEX, _gl(2, 2), _gl(1, 3)),
        (DEL_VERTEX, _gl(2, 3), _gl(1, 2)),
        (DEL_VERTEX, _gl(3, 3), _gl(2, 1)),
        (DEL_VERTEX, _gl(2, 1), _gl(3, 2)),
    )
    final = make_graph(
        [_gl(1, 2), _gl(1, 3), _gl(3, 1), _gl(3, 2)],
        [(_gl(1, 2), _gl(1, 3)), (_gl(3, 1), _gl(3, 2))],
    )
    return Certificate(
        "c33", FamilySpec("C", 3, 3), steps, final,
        note="3x3 cylinder down to two detached edges",
    )


def _cert_c34() -> Certificate:
    steps = _steps(
        (ADD_EDGE, (_gl(1, 1), _gl(3, 3)), _gl(2, 2)),
        (DEL_EDGE, (_gl(1, 1), _gl(2, 1)), _gl(3, 2)),
        (DEL_EDGE, (_gl(1, 3), _gl(2, 3)), _gl(1, 1)),
        (ADD_EDGE, (_gl(2, 2), _gl(2, 4)), _gl(1, 3)),
        (DEL_EDGE, (_gl(1, 2), _gl(2, 2)), _gl(1, 4)),
        (DEL_VERTEX, _gl(1, 4), _gl(1, 2)),
        (DEL_VERTEX, _gl(1, 1), _gl(1, 3)),
        (DEL_EDGE, (_gl(2, 2), _gl(2, 4)), _gl(3, 3)),
    )
    vs = [_gl(1, 2), _gl(1, 3)]
    es = [(_gl(1, 2), _gl(1, 3))]
    for r in (2, 3):
        for j in range(1, 5):
            vs.append(_gl(r, j))
        for j in range(1, 4):
            es.append((_gl(r, j), _gl(r, j + 1)))
        es.append((_gl(r, 1), _gl(r, 4)))
    for j in range(1, 5):
        es.append((_gl(2, j), _gl(3, j)))
    final = make_graph(vs, es)
    return Certificate(
        "c34", FamilySpec("C", 3, 4), steps, final,
        note="3x4 cylinder down to the 2x4 cylinder plus a detached edge",
    )


def _cert_m33() -> Certificate:
    steps = _steps(
        (DEL_EDGE, (_gl(1, 1), _gl(3, 3)), _gl(2, 2)),
        (DEL_EDGE, (_gl(3, 1), _gl(1, 3)), _gl(2, 2)),
        (DEL_EDGE, (_gl(2, 1), _gl(2, 3)), _gl(1, 2)),
        (DEL_VERTEX, _gl(2, 2), _gl(1, 1)),
    )
    vs = [_gl(r, j) for r in (1, 2, 3) for j in (1, 2, 3) if (r, j) != (2, 2)]
    es = [
        (_gl(1, 1), _gl(1, 2)), (_gl(1, 2), _gl(1, 3)),
        (_gl(3, 1), _gl(3, 2)), (_gl(3, 2), _gl(3, 3)),
        (_gl(1, 1), _gl(2, 1)), (_gl(2, 1), _gl(3, 1)),
        (_gl(1, 3), _gl(2, 3)), (_gl(2, 3), _gl(3, 3)),
    ]
    final = make_graph(vs, es)
    return Certificate(
        "m33", FamilySpec("M", 3, 3), steps, final,
        note="3x3 Moebius strip down to the 8-cycle around its centre",
    )


def _cert_m34() -> Certificate:
    steps = _steps(
        (ADD_EDGE, (_gl(2, 1), _gl(2, 3)), _gl(1, 2)),
        (ADD_EDGE, (_gl(2, 2), _gl(2, 4)), _gl(1, 3)),
        (ADD_EDGE, (_gl(1, 1), _gl(2, 2)), _gl(3, 3)),
        (ADD_EDGE, (_gl(2, 1), _gl(1, 2)), _gl(1, 4)),
        (ADD_EDGE, (_gl(1, 3), _gl(2, 4)), _gl(1, 1)),
        (ADD_EDGE, (_gl(2, 3), _gl(1, 4)), _gl(3, 2)),
        (DEL_EDGE, (_gl(2, 1), _gl(3, 1)), _gl(1, 3)),
        (DEL_EDGE, (_gl(2, 2), _gl(3, 2)), _gl(3, 4)),
        (DEL_EDGE, (_gl(2, 3), _gl(3, 3)), _gl(3, 1)),
        (ADD_EDGE, (_gl(1, 4), _gl(3, 4)), _gl(3, 2)),
        (DEL_EDGE, (_gl(3, 1), _gl(1, 4)), _gl(3, 3)),
        (DEL_VERTEX, _gl(3, 3), _gl(3, 1)),
        (DEL_EDGE, (_gl(1, 2), _gl(1, 3)), _gl(3, 4)),
        (ADD_EDGE, (_gl(2, 3), _gl(3, 4)), _gl(1, 2)),
        (DEL_VERTEX, _gl(3, 4), _gl(1, 3)),
    )
    vs = [_gl(r, j) for r in (1, 2) for j in range(1, 5)] + [_gl(3, 1), _gl(3, 2)]
    es = [
        (_gl(1, 1), _gl(1, 2)), (_gl(1, 3), _gl(1, 4)),
        (_gl(2, 1), _gl(2, 2)), (_gl(2, 2), _gl(2, 3)),
        (_gl(2, 3), _gl(2, 4)), (_gl(2, 1), _gl(2, 4)),
        (_gl(2, 1), _gl(2, 3)), (_gl(2, 2), _gl(2, 4)),
        (_gl(1, 1), _gl(2, 1)), (_gl(1, 2), _gl(2, 2)),
        (_gl(1, 3), _gl(2, 3)), (_gl(1, 4), _gl(2, 4)),
        (_gl(1, 1), _gl(2, 2)), (_gl(1, 2), _gl(2, 1)),
        (_gl(1, 3), _gl(2, 4)), (_gl(1, 4), _gl(2, 3)),
        (_gl(3, 1), _gl(3, 2)),
    ]
    final = make_graph(vs, es)
    return Certificate(
        "m34", FamilySpec("M", 3, 4), steps, final,
        note="3x4 Moebius strip down to a dense 8-vertex graph plus a detached edge",
    )


def _cert_ch1(n: int) -> Certificate:
    if n < 1:
        raise GraphError("ch1 takes n >= 1")
    w = 2 * n + 2
    steps = _steps(
        (ADD_EDGE, (_gl(1, w), _gl(2, 3)), _gl(1, 2)),
        (ADD_EDGE, (_gl(1, w), _gl(2, w)), _gl(2, 2)),
        (DEL_EDGE, (_gl(1, w), _gl(2, 3)), _gl(1, 2)),
    )
    final = hex_cylinder(1, n + 1).add_edge(_gl(1, w), _gl(2, w))
    return Certificate(
        f"ch1({n})", FamilySpec("CH", 1, n + 1), steps, final,
        note="hexagonal 2-row cylinder gains the even-column vertical it lacks",
    )


def _cert_p4n_to_x(n: int) -> Certificate:
    if n < 3:
        raise GraphError("p4n-to-x takes n >= 3")
    steps = _steps(
        (DEL_VERTEX, _gl(2, 2), _gl(1, 1)),
        (DEL_VERTEX, _gl(3, 2), _gl(4, 1)),
        (ADD_EDGE, (_gl(3, 1), _gl(1, 3)), _gl(1, 1)),
        (DEL_EDGE, (_gl(1, 2), _gl(1, 3)), _gl(2, 1)),
        (DEL_VERTEX, _gl(2, 1), _gl(1, 2)),
        (ADD_EDGE, (_gl(1, 3), _gl(4, 3)), _gl(4, 1)),
        (DEL_EDGE, (_gl(4, 2), _gl(4, 3)), _gl(3, 1)),
        (DEL_VERTEX, _gl(3, 1), _gl(4, 2)),
    )
    final = (
        grid(4, n)
        .delete_vertices({_gl(2, 1), _gl(3, 1), _gl(2, 2), _gl(3, 2)})
        .delete_edge(_gl(1, 2), _gl(1, 3))
        .delete_edge(_gl(4, 2), _gl(4, 3))
        .add_edge(_gl(1, 3), _gl(4, 3))
    )
    return Certificate(
        f"p4n-to-x({n})", FamilySpec("P", 4, n), steps, final,
        note="4-row grid down to the chorded grid on two fewer columns plus two detached edges",
    )


def _cert_y_recursion(n: int) -> Certificate:
    if n < 4:
        raise GraphError("y-recursion takes n >= 4")
    steps = _steps(
        (DEL_VERTEX, _gl(2, 2), _gl(3, 1)),
        (DEL_VERTEX, _gl(3, 2), _gl(2, 1)),
        (DEL_VERTEX, _gl(2, 3), _gl(1, 2)),
        (DEL_VERTEX, _gl(3, 3), _gl(4, 2)),
        (DEL_VERTEX, _gl(1, 4), _gl(1, 2)),
        (DEL_VERTEX, _gl(4, 4), _gl(4, 2)),
    )
    final = four_row_minus_corners(n).delete_vertices(
        {_gl(2, 2), _gl(3, 2), _gl(2, 3), _gl(3, 3), _gl(1, 4), _gl(4, 4)}
    )
    return Certificate(
        f"y-recursion({n})", FamilySpec("Y4", None, n), steps, final,
        note="corner-trimmed 4-row grid down to its three-column shift plus three detached edges",
    )


def canonical_thm1_host() -> tuple[Graph, MarkedPatch]:
    g = cylinder(1, 3)
    return g, MarkedPatch(PATCH_EDGE, (_gl(1, 1), _gl(1, 2)))


def canonical_thm2_host() -> tuple[Graph, MarkedPatch]:
    g = moebius(2, 3)
    patch = MarkedPatch(PATCH_P22, (_gl(1, 3), _gl(2, 3), _gl(2, 1), _gl(1, 1)))
    return g, patch


def canonical_thm3_host() -> tuple[Graph, MarkedPatch]:
    g = moebius(3, 4)
    patch = MarkedPatch(
        PATCH_P32,
        (_gl(1, 4), _gl(2, 4), _gl(3, 4), _gl(3, 1), _gl(2, 1), _gl(1, 1)),
    )
    return g, patch


def _cert_thm_generic(rule: str) -> Certificate:
    host = {
        "thm1": canonical_thm1_host,
        "thm2": canonical_thm2_host,
        "thm3": canonical_thm3_host,
    }[rule]
    g, patch = host()
    _, cert = make_replacement(g, patch)
    return Certificate(
        f"{rule}-generic", cert.initial, cert.steps, cert.expected_final,
        note=f"{cert.note} (canonical host)",
    )


_STATIC_BUILDERS = {
    "thm1-generic": partial(_cert_thm_generic, "thm1"),
    "thm2-generic": partial(_cert_thm_generic, "thm2"),
    "thm3-generic": partial(_cert_thm_generic, "thm3"),
    "p42": _cert_p42,
    "c32": _cert_c32,
    "m32": _cert_m32,
    "c33": _cert_c33,
    "c34": _cert_c34,
    "m33": _cert_m33,
    "m34": _cert_m34,
}

_PARAMETERIZED_BUILDERS = {
    "ch1": _cert_ch1,
    "p4n-to-x": _cert_p4n_to_x,
    "y-recursion": _cert_y_recursion,
}

BUILTIN_IDS = tuple(_STATIC_BUILDERS) + tuple(_PARAMETERIZED_BUILDERS)
PARAMETERIZED_IDS = tuple(_PARAMETERIZED_BUILDERS)


def builtin_certificate(cert_id: str, n: int | None = None) -> Certificate:
    if cert_id in _STATIC_BUILDERS:
        if n is not None:
            raise GraphError(f"{cert_id} takes no parameter")
        return _STATIC_BUILDERS[cert_id]()
    if cert_id in _PARAMETERIZED_BUILDERS:
        if n is None:
            raise GraphError(f"{cert_id} needs a parameter n")
        return _PARAMETERIZED_BUILDERS[cert_id](n)
    raise GraphError(f"unknown certificate id {cert_id!r}")


# ---------------------------------------------------------------------------
# Random hosts for the replacement property suite


_HOST_LABELS = {
    "thm1": ("pu", "pv"),
    "thm2": ("pa", "pab", "pb", "pbb"),
    "thm3": ("pa1", "pa2", "pa3", "pb1", "pb2", "pb3"),
}


def random_host(rule: str, rng: random.Random) -> tuple[Graph, MarkedPatch]:
    """A random host whose patch is a genuine full subgraph: extra vertices
    attach only to patch vertices and to each other, never inside the patch."""
    if rule not in _HOST_LABELS:
        raise GraphError(f"unknown rule {rule!r}")
    labels = _HOST_LABELS[rule]
    relaxed = rule == "thm2" and rng.random() < 0.3
    patch = MarkedPatch(ROLE_FOR_RULE[rule], labels, relaxed=relaxed)
    all_edges, _ = patch.edges()

    k = rng.randint(0, 10)
    extras = [f"h{i}" for i in range(k)]
    for i, e in enumerate(extras):
        for p in labels:
            if rng.random() < 0.35:
                all_edges.append((e, p))
        for f in extras[:i]:
            if rng.random() < 0.25:
                all_edges.append((e, f))
    g = make_graph(list(labels) + extras, all_edges)
    return g, patch
