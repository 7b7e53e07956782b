"""The three witness-justified graph moves and the certificate replay engine.

A step is one of:

* ``del_vertex(v; u)`` -- delete vertex v; valid when u is isolated in
  G \\ N[v]; the independence complex collapses onto that of the edited graph.
* ``del_edge(vw; u)`` -- delete edge vw; valid when u is isolated in
  G \\ N[vw]; the independence complex expands into that of the edited graph.
* ``add_edge(vw; u)`` -- add edge vw; valid when u is isolated in
  G \\ (N[v] ∪ N[w]); again a collapse.

"Isolated" means the witness survives the deletion, carries no loop, and has
no incident edge there. A certificate is an ordered, replayable step list with
a declared final graph; replay checks every precondition and that every step
leaves the reduced Euler characteristic unchanged ("chi"), and at the "betti"
level also the GF(2) Betti profile from `homology.graph_betti`, wherever the
budget allows it. The face-level check of a single move is
`complexes.collapse_oracle`, which builds on this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import euler
from .graphs import (
    FamilySpec,
    Graph,
    GraphError,
    check_keys,
    family_from_json_dict,
    generate_family,
    graph_from_json_dict,
    graphs_equal_labeled,
    is_label,
    is_label_pair,
    sorted_pair,
)
from .homology import graph_betti

DEL_VERTEX = "del_vertex"
DEL_EDGE = "del_edge"
ADD_EDGE = "add_edge"
STEP_KINDS = (DEL_VERTEX, DEL_EDGE, ADD_EDGE)


class PreconditionError(GraphError):
    """A step applied to a graph where its witness condition fails."""


@dataclass(frozen=True)
class OpStep:
    kind: str
    target: str | tuple[str, str]
    witness: str

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise GraphError(f"unknown step kind {self.kind!r}")
        if self.kind == DEL_VERTEX:
            if not isinstance(self.target, str):
                raise GraphError("del_vertex target must be a vertex label")
            if self.witness == self.target:
                raise GraphError("witness must differ from the deleted vertex")
        else:
            if isinstance(self.target, str) or len(self.target) != 2:
                raise GraphError(f"{self.kind} target must be a vertex pair")
            a, b = self.target
            if a == b:
                raise GraphError("edge target pairs a vertex with itself")
            object.__setattr__(self, "target", sorted_pair(a, b))
            if self.witness in self.target:
                raise GraphError("witness must lie outside the target pair")

    def describe(self) -> str:
        if self.kind == DEL_VERTEX:
            return f"del_vertex({self.target}; {self.witness})"
        a, b = self.target
        return f"{self.kind}(({a},{b}); {self.witness})"

    def to_json_dict(self) -> dict:
        t = self.target if isinstance(self.target, str) else list(self.target)
        return {"op": self.kind, "target": t, "witness": self.witness}


def step_from_json_dict(doc: dict) -> OpStep:
    try:
        kind = doc["op"]
        target = doc["target"]
        witness = doc["witness"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed step document: {exc}") from exc
    check_keys(doc, ("op", "target", "witness"), "step")
    if not (is_label(target) or is_label_pair(target)) or not is_label(witness):
        raise GraphError(
            "malformed step document: the target must be a non-empty string or "
            "a list of two, the witness a non-empty string"
        )
    if isinstance(target, list):
        target = tuple(target)
    return OpStep(kind, target, witness)


@dataclass(frozen=True)
class StepCheck:
    ok: bool
    reason: str = ""


def _witness_isolated(g: Graph, removed: frozenset[str], u: str) -> StepCheck:
    if u not in g.vertex_set:
        raise GraphError(f"witness {u!r} is not a vertex")
    if u in removed:
        return StepCheck(False, f"witness {u} does not survive the deletion")
    if u in g.loops:
        return StepCheck(False, f"witness {u} carries a loop")
    stray = g.adjacency[u] - removed
    if stray:
        return StepCheck(False, f"witness {u} still adjacent to {sorted(stray)[0]}")
    return StepCheck(True)


def check_step(g: Graph, step: OpStep) -> StepCheck:
    """Validate a step's witness condition against g, with a diagnostic."""
    if step.kind == DEL_VERTEX:
        v = step.target
        if v not in g.vertex_set:
            raise GraphError(f"vertex {v!r} is not in the graph")
        return _witness_isolated(g, g.closed_neighborhood(v), step.witness)
    a, b = step.target
    for x in (a, b):
        if x not in g.vertex_set:
            raise GraphError(f"vertex {x!r} is not in the graph")
    if step.kind == DEL_EDGE:
        if not g.has_edge(a, b):
            raise GraphError(f"edge {a}-{b} is not in the graph")
        return _witness_isolated(g, g.closed_neighborhood((a, b)), step.witness)
    if g.has_edge(a, b):
        raise GraphError(f"edge {a}-{b} is already in the graph")
    removed = g.closed_neighborhood(a) | g.closed_neighborhood(b)
    return _witness_isolated(g, removed, step.witness)


def apply_step(g: Graph, step: OpStep) -> Graph:
    """Apply a step after checking its precondition (raises otherwise)."""
    check = check_step(g, step)
    if not check.ok:
        raise PreconditionError(f"{step.describe()}: {check.reason}")
    return _apply_checked(g, step)


def _apply_checked(g: Graph, step: OpStep) -> Graph:
    """The edit of a step whose precondition holds on g."""
    if step.kind == DEL_VERTEX:
        return g.delete_vertices({step.target})
    a, b = step.target
    if step.kind == DEL_EDGE:
        return g.delete_edge(a, b)
    return g.add_edge(a, b)


def touched_labels(steps) -> set[str]:
    """Every del_vertex target and both endpoints of every edge step."""
    out: set[str] = set()
    for step in steps:
        out.update((step.target,) if step.kind == DEL_VERTEX else step.target)
    return out


def step_direction(step: OpStep) -> str:
    """del_vertex and add_edge collapse the complex; del_edge expands it."""
    return "expansion" if step.kind == DEL_EDGE else "collapse"


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class Certificate:
    name: str
    initial: Graph | FamilySpec
    steps: tuple[OpStep, ...]
    expected_final: Graph
    note: str = ""

    def initial_graph(self) -> Graph:
        if isinstance(self.initial, FamilySpec):
            return generate_family(self.initial)
        return self.initial

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "initial": self.initial.to_json_dict(),
            "steps": [s.to_json_dict() for s in self.steps],
            "expected_final": self.expected_final.to_json_dict(),
            "note": self.note,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=False)


def certificate_from_json_dict(doc: dict) -> Certificate:
    try:
        name = doc["name"]
        initial_doc = doc["initial"]
        steps = tuple(step_from_json_dict(s) for s in doc["steps"])
        final = graph_from_json_dict(doc["expected_final"])
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed certificate document: {exc}") from exc
    check_keys(doc, ("name", "initial", "steps", "expected_final", "note"), "certificate")
    note = doc.get("note", "")
    if not isinstance(name, str) or not isinstance(note, str):
        raise GraphError("malformed certificate document: 'name' and 'note' must be strings")
    if isinstance(initial_doc, dict) and "family" in initial_doc:
        initial: Graph | FamilySpec = family_from_json_dict(initial_doc)
    else:
        initial = graph_from_json_dict(initial_doc)
    return Certificate(name, initial, steps, final, note)


def certificate_from_json(text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    return certificate_from_json_dict(doc)


# ---------------------------------------------------------------------------
# Replay


CHECK_LEVELS = ("chi", "betti")


@dataclass(frozen=True)
class StepReport:
    index: int
    step: OpStep
    direction: str
    precondition_ok: bool
    reason: str = ""
    chi_before: int | None = None
    chi_after: int | None = None


@dataclass(frozen=True)
class ReplayReport:
    certificate: str
    passed: bool
    failure: str | None            # None | "precondition" | "invariant" | "final_mismatch"
    failure_detail: str
    steps: tuple[StepReport, ...]
    final_matches: bool
    # True when a budget stopped the Betti profile of some replayed graph, so
    # the steps around it were checked by chi~ alone.
    betti_skipped: bool = False

    def to_json_dict(self) -> dict:
        return {
            "certificate": self.certificate,
            "passed": self.passed,
            "failure": self.failure,
            "failure_detail": self.failure_detail,
            "final_matches": self.final_matches,
            "betti_skipped": self.betti_skipped,
            "steps": [
                {
                    "index": s.index,
                    "step": s.step.to_json_dict(),
                    "direction": s.direction,
                    "precondition_ok": s.precondition_ok,
                    "reason": s.reason,
                    "chi_before": s.chi_before,
                    "chi_after": s.chi_after,
                }
                for s in self.steps
            ],
        }


def replay(
    cert: Certificate,
    checks: str = "chi",
    budget: int | None = euler.DEFAULT_FACE_BUDGET,
) -> ReplayReport:
    """Fold the certificate's steps over its initial graph.

    Every step must leave the reduced Euler characteristic unchanged; with
    checks="betti", the GF(2) Betti profile as well, where the budget allows
    computing it on both sides (`betti_skipped` says where it did not).
    Finally the result must equal the declared final graph label-for-label.

    Every chi~ comes from one `euler.ReplaySweep` of the initial graph, told
    the labels the steps touch, so each step sweeps only past the part of the
    graph that no step changes.
    """
    if checks not in CHECK_LEVELS:
        raise ValueError(f"unknown check level {checks!r}")
    want_betti = checks == "betti"
    g = cert.initial_graph()
    sweep = euler.ReplaySweep(g, touched_labels(cert.steps), len(cert.steps) + 1)
    chi = sweep.chi(g)
    betti = graph_betti(g, (2,), budget) if want_betti else None
    skipped = want_betti and betti is None
    reports: list[StepReport] = []

    def stop(failure: str, detail: str) -> ReplayReport:
        return ReplayReport(
            cert.name, False, failure, detail, tuple(reports), False, skipped
        )

    for i, step in enumerate(cert.steps):
        try:
            check = check_step(g, step)
        except GraphError as exc:
            check = StepCheck(False, str(exc))
        if not check.ok:
            reports.append(
                StepReport(i, step, step_direction(step), False, check.reason)
            )
            return stop("precondition", f"step {i} {step.describe()}: {check.reason}")
        g2 = _apply_checked(g, step)
        chi2 = sweep.chi(g2)
        reports.append(
            StepReport(i, step, step_direction(step), True, "", chi, chi2)
        )
        if chi2 != chi:
            return stop(
                "invariant", f"step {i} {step.describe()}: chi~ changed {chi} -> {chi2}"
            )
        if want_betti:
            betti2 = graph_betti(g2, (2,), budget)
            skipped = skipped or betti2 is None
            if betti is not None and betti2 is not None and betti != betti2:
                return stop(
                    "invariant", f"step {i} {step.describe()}: GF(2) Betti profile changed"
                )
            betti = betti2
        g, chi = g2, chi2

    if not graphs_equal_labeled(g, cert.expected_final):
        return stop("final_mismatch", "replayed graph differs from the declared final graph")
    return ReplayReport(cert.name, True, None, "", tuple(reports), True, skipped)
