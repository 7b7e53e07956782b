"""Independence complexes as explicit face sets, and the face-level collapse
oracle.

Faces are stored as bitmasks over a fixed, sorted vertex universe; the empty
face is always present (the complex containing only the empty face is the
(-1)-sphere).

The collapse oracle makes the witness argument executable: for a valid graph
move it builds the matching that pairs every face that must disappear with
its witness-toggled partner, executes the pairs as genuine elementary
collapses (checking freeness at each removal), and confirms the residual
complex equals the smaller side: I(edited) for del_vertex and add_edge, I(G)
for del_edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .euler import DEFAULT_FACE_BUDGET, independent_set_masks
from .graphs import Graph, GraphError
from .moves import OpStep, apply_step, step_direction, touched_labels


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple[str, ...]
    face_masks: frozenset[int]

    def __post_init__(self):
        if 0 not in self.face_masks:
            raise GraphError("a complex must contain the empty face")

    def n_faces(self) -> int:
        return len(self.face_masks)

    def face_labels(self, mask: int) -> frozenset[str]:
        return frozenset(
            self.vertices[i] for i in range(len(self.vertices)) if mask >> i & 1
        )

    def faces(self) -> set[frozenset[str]]:
        return {self.face_labels(m) for m in self.face_masks}

    def dump_lines(self) -> list[str]:
        """One face per line, labels comma-separated and sorted; the empty
        face prints as "()". Deterministic ordering."""
        rows = sorted(
            (m.bit_count(), tuple(sorted(self.face_labels(m)))) for m in self.face_masks
        )
        return ["()" if not labels else ",".join(labels) for _, labels in rows]


def independence_complex(
    g: Graph, budget: int | None = DEFAULT_FACE_BUDGET
) -> SimplicialComplex:
    """All independent sets of g. Looped vertices are excluded from the
    universe (they appear in no face). Exceeding the face budget raises."""
    verts, masks = independent_set_masks(g, budget=budget)
    return SimplicialComplex(tuple(verts), frozenset(masks))


@dataclass(frozen=True)
class CollapseReport:
    ok: bool
    detail: str
    step: OpStep
    direction: str                    # which complex was collapsed onto which
    matched_pairs: int
    collapses_executed: int
    residual_faces: int


def collapse_oracle(
    g: Graph, step: OpStep, budget: int | None = DEFAULT_FACE_BUDGET
) -> tuple[SimplicialComplex, CollapseReport]:
    """Execute the face-level matching justifying a graph move.

    For del_vertex and add_edge the complex of g collapses onto the complex of
    the edited graph; for del_edge the complex of the edited graph collapses
    onto the complex of g. Returns the residual complex (always the smaller
    side) and a report. Raises PreconditionError via apply_step when the step
    is invalid and FaceBudgetExceeded past the budget.
    """
    edited = apply_step(g, step)  # validates the precondition
    before = independence_complex(g, budget=budget)
    after = independence_complex(edited, budget=budget)

    if step_direction(step) == "collapse":
        big, small = before, after
        direction = "I(G) onto I(edited)"
    else:  # del_edge: the edited complex is the larger one
        big, small = after, before
        direction = "I(edited) onto I(G)"
    doomed_labels = touched_labels([step])

    idx = {v: i for i, v in enumerate(big.vertices)}
    u_bit = 1 << idx[step.witness]

    # Faces that must disappear are exactly those containing the whole doomed
    # set; the witness toggle pairs them up. A looped target label sits in no
    # face at all, so nothing disappears.
    if all(v in idx for v in doomed_labels):
        doomed_mask = 0
        for v in doomed_labels:
            doomed_mask |= 1 << idx[v]
        doomed = [m for m in big.face_masks if m & doomed_mask == doomed_mask]
    else:
        doomed = []
    pairs: list[tuple[int, int]] = []
    seen = set()
    for m in doomed:
        if m & u_bit:
            continue
        partner = m | u_bit
        if partner not in big.face_masks:
            report = CollapseReport(
                False,
                f"face {sorted(big.face_labels(m))} + witness is not a face",
                step, direction, 0, 0, big.n_faces(),
            )
            return big, report
        pairs.append((m, partner))
        seen.add(m)
        seen.add(partner)
    if len(seen) != len(doomed):
        report = CollapseReport(
            False,
            "matching incomplete: some disappearing faces are unpaired",
            step, direction, len(pairs), 0, big.n_faces(),
        )
        return big, report

    # Execute as elementary collapses, widest faces first; each removal
    # verifies that the pair is free right now.
    alive = set(big.face_masks)
    all_bits = (1 << len(big.vertices)) - 1
    executed = 0
    for tau, sigma in sorted(pairs, key=lambda p: -p[1].bit_count()):
        m = all_bits & ~tau
        cofaces = []
        while m:
            b = m & -m
            m ^= b
            if (tau | b) in alive:
                cofaces.append(tau | b)
                if len(cofaces) > 1:
                    break
        if cofaces != [sigma] or tau not in alive:
            report = CollapseReport(
                False,
                f"pair ({sorted(big.face_labels(tau))}, {sorted(big.face_labels(sigma))}) "
                "is not free at its turn",
                step, direction, len(pairs), executed, len(alive),
            )
            return big, report
        alive.discard(tau)
        alive.discard(sigma)
        executed += 1

    residual = SimplicialComplex(big.vertices, frozenset(alive))
    same = residual.faces() == small.faces()
    report = CollapseReport(
        same,
        "" if same else "residual complex differs from the edited graph's complex",
        step, direction, len(pairs), executed, len(alive),
    )
    return residual, report
