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

Each rule is data: a function from the patch labels to the edges it cuts, the
interior it wires in, its steps and the part of the interior the final graph
keeps. `make_replacement` is the one assembler of H, the final graph and the
certificate.

The builtins transcribe the fixed reduction sequences for the small grid
families, one table read by one builder, plus three parameterized sequences;
`tests/data/certificates.json` pins every one of them. Certificates store
their expected final graph explicitly; replay checks it label-for-label.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial

from .graphs import (
    FamilySpec,
    Graph,
    GraphError,
    cylinder,
    four_row_minus_corners,
    grid,
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


def _path(*labels: str) -> tuple[tuple[str, str], ...]:
    """The edges of the path through the labels; a cycle repeats its first."""
    return tuple(zip(labels, labels[1:]))


def _edge_set(pairs) -> frozenset[tuple[str, str]]:
    return frozenset(sorted_pair(a, b) for a, b in pairs)


def _steps(*triples) -> tuple[OpStep, ...]:
    return tuple(OpStep(kind, target, witness) for kind, target, witness in triples)


@dataclass(frozen=True)
class _Replacement:
    """One rule's edit of a patch: the host edges it cuts, the interior
    vertices it adds and the edges wiring them in, the steps reducing H back
    to the host, and the interior vertices and detached edges the final graph
    keeps beside the host."""

    name: str
    cut: tuple[tuple[str, str], ...]
    interior: tuple[str, ...]
    wiring: tuple[tuple[str, str], ...]
    steps: tuple[tuple, ...]
    kept: tuple[str, ...]
    detached: tuple[tuple[str, str], ...]
    note: str


def _thm1(u: str, v: str) -> _Replacement:
    return _Replacement(
        "thm1-replacement",
        cut=((u, v),),
        interior=("x", "y", "z"),
        wiring=_path(u, "x", "y", "z", v),
        steps=(
            (ADD_EDGE, (u, v), "y"),
            (DEL_EDGE, (u, "x"), "z"),
            (DEL_VERTEX, "z", "x"),
        ),
        kept=("x", "y"),
        detached=(("x", "y"),),
        note="edge-to-path replacement reduced back to the host plus a detached edge",
    )


def _thm2(a: str, abar: str, b: str, bbar: str) -> _Replacement:
    return _Replacement(
        "thm2-replacement",
        cut=((a, b), (abar, bbar)),
        interior=("x1", "x1b", "x2", "x2b"),
        wiring=(
            # the two interior rungs, and the two rows crossing between them
            ("x1", "x1b"), ("x2", "x2b"),
            *_path(a, "x1", "x2b", bbar), *_path(abar, "x1b", "x2", b),
        ),
        steps=(
            (ADD_EDGE, (a, b), "x2b"),
            (ADD_EDGE, (abar, bbar), "x2"),
            (DEL_EDGE, (a, "x1"), "x2"),
            (DEL_EDGE, (abar, "x1b"), "x2b"),
            (DEL_VERTEX, "x2b", "x1b"),
            (DEL_VERTEX, "x2", "x1"),
        ),
        kept=("x1", "x1b"),
        detached=(("x1", "x1b"),),
        note="2-row patch replacement reduced back to the host plus a detached edge",
    )


def _thm3(a1: str, a2: str, a3: str, b1: str, b2: str, b3: str) -> _Replacement:
    # interior vertex c<k>r<r> sits in interior column k, row r
    return _Replacement(
        "thm3-replacement",
        cut=((a1, b1), (a2, b2), (a3, b3)),
        interior=tuple(f"c{k}r{r}" for k in range(1, 5) for r in range(1, 4)),
        wiring=(
            *_path("c1r1", "c1r2", "c1r3"), *_path("c2r1", "c2r2", "c2r3"),
            *_path("c3r1", "c3r2", "c3r3"), *_path("c4r1", "c4r2", "c4r3"),
            # the middle row runs straight through; the outer rows cross over
            # between interior columns 2 and 3
            *_path(a2, "c1r2", "c2r2", "c3r2", "c4r2", b2),
            *_path(a1, "c1r1", "c2r1", "c3r3", "c4r3", b3),
            *_path(a3, "c1r3", "c2r3", "c3r1", "c4r1", b1),
        ),
        steps=(
            # stage 1: restore the three host horizontals
            (ADD_EDGE, (a2, "c3r1"), "c1r3"),
            (ADD_EDGE, (a2, b2), "c4r1"),
            (DEL_EDGE, (a2, "c3r1"), "c1r3"),
            (ADD_EDGE, (a1, "c2r3"), "c1r2"),
            (ADD_EDGE, (a1, "c3r2"), "c2r1"),
            (ADD_EDGE, (a1, b1), "c3r1"),
            (DEL_EDGE, (a1, "c3r2"), "c2r1"),
            (DEL_EDGE, (a1, "c2r3"), "c1r2"),
            (ADD_EDGE, (a3, "c2r1"), "c1r2"),
            (ADD_EDGE, (a3, "c3r2"), "c2r3"),
            (ADD_EDGE, (a3, b3), "c3r3"),
            (DEL_EDGE, (a3, "c3r2"), "c2r3"),
            (DEL_EDGE, (a3, "c2r1"), "c1r2"),
            # stage 2: detach the first interior column from the host
            (ADD_EDGE, ("c1r1", "c3r1"), "c2r2"),
            (ADD_EDGE, ("c1r1", "c4r2"), "c3r3"),
            (DEL_EDGE, (a1, "c1r1"), "c4r1"),
            (DEL_EDGE, ("c1r1", "c3r1"), "c2r2"),
            (ADD_EDGE, ("c1r3", "c3r3"), "c2r2"),
            (ADD_EDGE, ("c1r3", "c4r2"), "c3r1"),
            (DEL_EDGE, (a3, "c1r3"), "c4r3"),
            (DEL_EDGE, ("c1r3", "c3r3"), "c2r2"),
            (ADD_EDGE, ("c1r2", "c4r1"), "c2r3"),
            (ADD_EDGE, ("c1r2", "c3r2"), "c2r1"),
            (ADD_EDGE, ("c1r2", "c4r3"), "c2r1"),
            (DEL_EDGE, (a2, "c1r2"), "c4r2"),
            # stage 3: remove the last interior column
            (DEL_EDGE, ("c1r2", "c3r2"), "c2r1"),
            (ADD_EDGE, ("c2r2", "c4r2"), "c3r3"),
            (DEL_VERTEX, "c4r2", "c1r2"),
            (ADD_EDGE, ("c2r3", "c4r3"), "c3r2"),
            (DEL_VERTEX, "c4r3", "c1r3"),
            (ADD_EDGE, ("c2r1", "c4r1"), "c3r2"),
            (DEL_VERTEX, "c4r1", "c1r1"),
            # stage 4: the middle of the second interior column goes last
            (DEL_VERTEX, "c2r2", "c1r1"),
        ),
        kept=("c1r1", "c1r2", "c1r3", "c2r1", "c2r3", "c3r1", "c3r2", "c3r3"),
        detached=_path("c1r2", "c1r1", "c2r1", "c3r3", "c3r2", "c3r1", "c2r3", "c1r3", "c1r2"),
        note="3-row patch replacement reduced back to the host plus a detached 8-cycle",
    )


_RULES = {PATCH_EDGE: _thm1, PATCH_P22: _thm2, PATCH_P32: _thm3}


def make_replacement(g: Graph, patch: MarkedPatch) -> tuple[Graph, Certificate]:
    """Build the enlarged graph H for the patch's rule, plus the certificate
    reducing H back to g with a detached factor."""
    validate_patch(g, patch)
    rule = _RULES[patch.role](*patch.labels)
    for name in rule.interior:
        if name in g.vertex_set:
            raise PatchError(f"interior label {name!r} collides with the host")
    # every cut edge is a required patch edge, so validate_patch found it
    edges = (g.edges - _edge_set(rule.cut)) | _edge_set(rule.wiring)
    h = Graph(g.vertices + rule.interior, edges, g.loops)
    final = Graph(g.vertices + rule.kept, g.edges | _edge_set(rule.detached), g.loops)
    return h, Certificate(rule.name, h, _steps(*rule.steps), final, note=rule.note)


# ---------------------------------------------------------------------------
# Builtin certificate library


# The fixed reductions of small family members, each as (initial family,
# note, final vertices, final edges, *steps). The final graph is written out,
# not derived from the steps, so that replay's label-for-label check of it
# stays independent of them.
_REDUCTIONS = {
    "p42": (
        FamilySpec("P", 4, 2), "4x2 grid down to the two outer-row edges (a 1-sphere complex)",
        ("r1c1", "r1c2", "r4c1", "r4c2"), (("r1c1", "r1c2"), ("r4c1", "r4c2")),
        (DEL_VERTEX, "r2c1", "r1c2"),
        (DEL_VERTEX, "r2c2", "r1c1"),
        (DEL_VERTEX, "r3c1", "r4c2"),
        (DEL_VERTEX, "r3c2", "r4c1"),
    ),
    "c32": (
        FamilySpec("C", 3, 2), "3-row width-2 cylinder down to two detached edges",
        ("r1c1", "r1c2", "r3c1", "r3c2"), (("r1c1", "r1c2"), ("r3c1", "r3c2")),
        (DEL_VERTEX, "r2c1", "r1c2"),
        (DEL_VERTEX, "r2c2", "r1c1"),
    ),
    "m32": (
        FamilySpec("M", 3, 2), "3-row width-2 Moebius strip down to one edge (a 0-sphere complex)",
        ("r1c1", "r1c2"), (("r1c1", "r1c2"),),
        (DEL_VERTEX, "r3c1", "r1c1"),
        (DEL_VERTEX, "r3c2", "r1c2"),
        (DEL_VERTEX, "r2c1", "r1c2"),
        (DEL_VERTEX, "r2c2", "r1c1"),
    ),
    "c33": (
        FamilySpec("C", 3, 3), "3x3 cylinder down to two detached edges",
        ("r1c2", "r1c3", "r3c1", "r3c2"), (("r1c2", "r1c3"), ("r3c1", "r3c2")),
        (ADD_EDGE, ("r1c1", "r3c2"), "r2c3"),
        (ADD_EDGE, ("r1c1", "r3c3"), "r2c2"),
        (DEL_VERTEX, "r1c1", "r3c1"),
        (DEL_VERTEX, "r2c2", "r1c3"),
        (DEL_VERTEX, "r2c3", "r1c2"),
        (DEL_VERTEX, "r3c3", "r2c1"),
        (DEL_VERTEX, "r2c1", "r3c2"),
    ),
    "c34": (
        FamilySpec("C", 3, 4), "3x4 cylinder down to the 2x4 cylinder plus a detached edge",
        ("r1c2", "r1c3", "r2c1", "r2c2", "r2c3", "r2c4", "r3c1", "r3c2", "r3c3", "r3c4"),
        (
            ("r1c2", "r1c3"),
            *_path("r2c1", "r2c2", "r2c3", "r2c4", "r2c1"),
            *_path("r3c1", "r3c2", "r3c3", "r3c4", "r3c1"),
            ("r2c1", "r3c1"), ("r2c2", "r3c2"), ("r2c3", "r3c3"), ("r2c4", "r3c4"),
        ),
        (ADD_EDGE, ("r1c1", "r3c3"), "r2c2"),
        (DEL_EDGE, ("r1c1", "r2c1"), "r3c2"),
        (DEL_EDGE, ("r1c3", "r2c3"), "r1c1"),
        (ADD_EDGE, ("r2c2", "r2c4"), "r1c3"),
        (DEL_EDGE, ("r1c2", "r2c2"), "r1c4"),
        (DEL_VERTEX, "r1c4", "r1c2"),
        (DEL_VERTEX, "r1c1", "r1c3"),
        (DEL_EDGE, ("r2c2", "r2c4"), "r3c3"),
    ),
    "m33": (
        FamilySpec("M", 3, 3), "3x3 Moebius strip down to the 8-cycle around its centre",
        ("r1c1", "r1c2", "r1c3", "r2c1", "r2c3", "r3c1", "r3c2", "r3c3"),
        _path("r1c1", "r1c2", "r1c3", "r2c3", "r3c3", "r3c2", "r3c1", "r2c1", "r1c1"),
        (DEL_EDGE, ("r1c1", "r3c3"), "r2c2"),
        (DEL_EDGE, ("r3c1", "r1c3"), "r2c2"),
        (DEL_EDGE, ("r2c1", "r2c3"), "r1c2"),
        (DEL_VERTEX, "r2c2", "r1c1"),
    ),
    "m34": (
        FamilySpec("M", 3, 4),
        "3x4 Moebius strip down to a dense 8-vertex graph plus a detached edge",
        ("r1c1", "r1c2", "r1c3", "r1c4", "r2c1", "r2c2", "r2c3", "r2c4", "r3c1", "r3c2"),
        (
            ("r1c1", "r1c2"), ("r1c3", "r1c4"), ("r3c1", "r3c2"),
            # row 2 is a complete graph, and each row 1 vertex sees two of it
            ("r2c1", "r2c2"), ("r2c2", "r2c3"), ("r2c3", "r2c4"),
            ("r2c1", "r2c4"), ("r2c1", "r2c3"), ("r2c2", "r2c4"),
            ("r1c1", "r2c1"), ("r1c2", "r2c2"), ("r1c3", "r2c3"), ("r1c4", "r2c4"),
            ("r1c1", "r2c2"), ("r1c2", "r2c1"), ("r1c3", "r2c4"), ("r1c4", "r2c3"),
        ),
        (ADD_EDGE, ("r2c1", "r2c3"), "r1c2"),
        (ADD_EDGE, ("r2c2", "r2c4"), "r1c3"),
        (ADD_EDGE, ("r1c1", "r2c2"), "r3c3"),
        (ADD_EDGE, ("r2c1", "r1c2"), "r1c4"),
        (ADD_EDGE, ("r1c3", "r2c4"), "r1c1"),
        (ADD_EDGE, ("r2c3", "r1c4"), "r3c2"),
        (DEL_EDGE, ("r2c1", "r3c1"), "r1c3"),
        (DEL_EDGE, ("r2c2", "r3c2"), "r3c4"),
        (DEL_EDGE, ("r2c3", "r3c3"), "r3c1"),
        (ADD_EDGE, ("r1c4", "r3c4"), "r3c2"),
        (DEL_EDGE, ("r3c1", "r1c4"), "r3c3"),
        (DEL_VERTEX, "r3c3", "r3c1"),
        (DEL_EDGE, ("r1c2", "r1c3"), "r3c4"),
        (ADD_EDGE, ("r2c3", "r3c4"), "r1c2"),
        (DEL_VERTEX, "r3c4", "r1c3"),
    ),
}


def _fixed_certificate(cert_id: str) -> Certificate:
    initial, note, vertices, edges, *steps = _REDUCTIONS[cert_id]
    return Certificate(cert_id, initial, _steps(*steps), make_graph(vertices, edges), note=note)


def _cert_ch1(n: int) -> Certificate:
    if n < 1:
        raise GraphError("ch1 takes n >= 1")
    w = 2 * n + 2
    steps = _steps(
        (ADD_EDGE, (f"r1c{w}", "r2c3"), "r1c2"),
        (ADD_EDGE, (f"r1c{w}", f"r2c{w}"), "r2c2"),
        (DEL_EDGE, (f"r1c{w}", "r2c3"), "r1c2"),
    )
    final = hex_cylinder(1, n + 1).add_edge(f"r1c{w}", f"r2c{w}")
    return Certificate(
        f"ch1({n})", FamilySpec("CH", 1, n + 1), steps, final,
        note="hexagonal 2-row cylinder gains the even-column vertical it lacks",
    )


def _cert_p4n_to_x(n: int) -> Certificate:
    if n < 3:
        raise GraphError("p4n-to-x takes n >= 3")
    steps = _steps(
        (DEL_VERTEX, "r2c2", "r1c1"),
        (DEL_VERTEX, "r3c2", "r4c1"),
        (ADD_EDGE, ("r3c1", "r1c3"), "r1c1"),
        (DEL_EDGE, ("r1c2", "r1c3"), "r2c1"),
        (DEL_VERTEX, "r2c1", "r1c2"),
        (ADD_EDGE, ("r1c3", "r4c3"), "r4c1"),
        (DEL_EDGE, ("r4c2", "r4c3"), "r3c1"),
        (DEL_VERTEX, "r3c1", "r4c2"),
    )
    final = (
        grid(4, n)
        .delete_vertices({"r2c1", "r3c1", "r2c2", "r3c2"})
        .delete_edge("r1c2", "r1c3")
        .delete_edge("r4c2", "r4c3")
        .add_edge("r1c3", "r4c3")
    )
    return Certificate(
        f"p4n-to-x({n})", FamilySpec("P", 4, n), steps, final,
        note="4-row grid down to the chorded grid on two fewer columns plus two detached edges",
    )


def _cert_y_recursion(n: int) -> Certificate:
    if n < 4:
        raise GraphError("y-recursion takes n >= 4")
    steps = _steps(
        (DEL_VERTEX, "r2c2", "r3c1"),
        (DEL_VERTEX, "r3c2", "r2c1"),
        (DEL_VERTEX, "r2c3", "r1c2"),
        (DEL_VERTEX, "r3c3", "r4c2"),
        (DEL_VERTEX, "r1c4", "r1c2"),
        (DEL_VERTEX, "r4c4", "r4c2"),
    )
    final = four_row_minus_corners(n).delete_vertices(
        {"r2c2", "r3c2", "r2c3", "r3c3", "r1c4", "r4c4"}
    )
    return Certificate(
        f"y-recursion({n})", FamilySpec("Y4", None, n), steps, final,
        note="corner-trimmed 4-row grid down to its three-column shift plus three detached edges",
    )


def canonical_thm1_host() -> tuple[Graph, MarkedPatch]:
    g = cylinder(1, 3)
    return g, MarkedPatch(PATCH_EDGE, ("r1c1", "r1c2"))


def canonical_thm2_host() -> tuple[Graph, MarkedPatch]:
    g = moebius(2, 3)
    return g, MarkedPatch(PATCH_P22, ("r1c3", "r2c3", "r2c1", "r1c1"))


def canonical_thm3_host() -> tuple[Graph, MarkedPatch]:
    g = moebius(3, 4)
    return g, MarkedPatch(PATCH_P32, ("r1c4", "r2c4", "r3c4", "r3c1", "r2c1", "r1c1"))


def _cert_thm_generic(rule: str) -> Certificate:
    host = {"thm1": canonical_thm1_host, "thm2": canonical_thm2_host, "thm3": canonical_thm3_host}
    _, cert = make_replacement(*host[rule]())
    return replace(cert, name=f"{rule}-generic", note=f"{cert.note} (canonical host)")


_STATIC_BUILDERS = {
    **{f"{rule}-generic": partial(_cert_thm_generic, rule) for rule in ROLE_FOR_RULE},
    **{cert_id: partial(_fixed_certificate, cert_id) for cert_id in _REDUCTIONS},
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
