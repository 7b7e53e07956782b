"""Explicit simplicial complexes and the face-level collapse oracle.

Faces are stored as bitmasks over a fixed, sorted vertex universe; the empty
face is always present (the complex containing only the empty face plays the
role of the (-1)-sphere and is the join unit). All constructions are exact.

The collapse oracle makes the witness argument executable: for a valid graph
move it builds the matching that pairs every face that must disappear with
its witness-toggled partner, executes the pairs as genuine elementary
collapses (checking freeness at each removal), and confirms the residual
complex equals the independence complex of the edited graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .euler import DEFAULT_FACE_BUDGET, independent_set_masks
from .graphs import Graph, GraphError
from .moves import ADD_EDGE, DEL_VERTEX, OpStep, apply_step


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

    def is_downward_closed(self) -> bool:
        faces = self.face_masks
        for m in faces:
            mm = m
            while mm:
                b = mm & -mm
                mm ^= b
                if (m ^ b) not in faces:
                    return False
        return True

    def dump_lines(self) -> list[str]:
        """One face per line, labels comma-separated and sorted; the empty
        face prints as "()". Deterministic ordering."""
        rows = sorted(
            (m.bit_count(), tuple(sorted(self.face_labels(m)))) for m in self.face_masks
        )
        return ["()" if not labels else ",".join(labels) for _, labels in rows]


def complex_from_faces(vertices, faces) -> SimplicialComplex:
    verts = tuple(sorted(set(vertices)))
    idx = {v: i for i, v in enumerate(verts)}
    masks = set()
    for f in faces:
        m = 0
        for v in f:
            m |= 1 << idx[v]
        masks.add(m)
    masks.add(0)
    k = SimplicialComplex(verts, frozenset(masks))
    if not k.is_downward_closed():
        raise GraphError("face set is not downward closed")
    return k


def independence_complex(
    g: Graph, budget: int | None = DEFAULT_FACE_BUDGET
) -> SimplicialComplex:
    """All independent sets of g. Looped vertices are excluded from the
    universe (they appear in no face). Exceeding the face budget raises."""
    verts, masks = independent_set_masks(g, budget=budget)
    return SimplicialComplex(tuple(verts), frozenset(masks))


def join(
    k: SimplicialComplex, l: SimplicialComplex, suffix: str | None = None
) -> SimplicialComplex:
    """Join: faces are all unions of a face of k with a face of l.

    Universes must be disjoint; pass a suffix to relabel l's vertices.
    """
    clash = set(k.vertices) & set(l.vertices)
    if clash and suffix is None:
        raise GraphError(f"universe clash {sorted(clash)}; pass a suffix")
    l_vertices = tuple(v + suffix for v in l.vertices) if suffix else l.vertices
    if set(k.vertices) & set(l_vertices):
        raise GraphError("suffix does not resolve the universe clash")
    verts = tuple(sorted(k.vertices + l_vertices))
    idx = {v: i for i, v in enumerate(verts)}
    k_shift = [idx[v] for v in k.vertices]
    l_shift = [idx[v] for v in l_vertices]

    def remap(mask: int, table: list[int]) -> int:
        out = 0
        i = 0
        while mask:
            if mask & 1:
                out |= 1 << table[i]
            mask >>= 1
            i += 1
        return out

    k_masks = [remap(m, k_shift) for m in k.face_masks]
    l_masks = [remap(m, l_shift) for m in l.face_masks]
    return SimplicialComplex(
        verts, frozenset(a | b for a in k_masks for b in l_masks)
    )


def point_pair(name_a: str, name_b: str) -> SimplicialComplex:
    """Two isolated points: the 0-sphere."""
    return complex_from_faces((name_a, name_b), [(name_a,), (name_b,)])


def sphere(n: int) -> SimplicialComplex:
    """The n-sphere triangulated as the join of n+1 point pairs (the boundary
    of the (n+1)-dimensional cross-polytope); n = -1 gives the complex whose
    only face is the empty face."""
    if n < -1:
        raise GraphError("need n >= -1")
    out = complex_from_faces((), [()])
    for i in range(n + 1):
        out = join(out, point_pair(f"s{i}a", f"s{i}b"))
    return out


def f_vector(k: SimplicialComplex) -> tuple[int, ...]:
    """Face counts by dimension starting at dim -1 (always 1)."""
    counts: dict[int, int] = {}
    for m in k.face_masks:
        counts[m.bit_count()] = counts.get(m.bit_count(), 0) + 1
    top = max(counts)
    return tuple(counts.get(i, 0) for i in range(top + 1))


def complexes_equal(k: SimplicialComplex, l: SimplicialComplex) -> bool:
    """Exact equality of face sets (as label sets)."""
    if set(k.vertices) == set(l.vertices) and k.vertices == l.vertices:
        return k.face_masks == l.face_masks
    return k.faces() == l.faces()


# ---------------------------------------------------------------------------
# Elementary collapse machinery


def collapse_core(face_masks) -> set[int]:
    """Greedily remove free pairs (tau, sigma), sigma the unique coface of tau.

    Every removal re-checks freeness against the current face set, so the
    result is reachable from the input by genuine elementary collapses and it
    is again downward closed. The empty face is never removed. Deterministic
    given the input set.
    """
    alive = set(face_masks)
    cofdeg: dict[int, int] = {m: 0 for m in alive}
    for m in alive:
        mm = m
        while mm:
            b = mm & -mm
            mm ^= b
            cofdeg[m ^ b] += 1
    from collections import deque

    queue = deque(
        sorted(t for t, c in cofdeg.items() if c == 1 and t != 0)
    )
    all_bits = 0
    for m in alive:
        all_bits |= m
    while queue:
        tau = queue.popleft()
        if tau not in alive or cofdeg[tau] != 1:
            continue
        sigma = -1
        m = all_bits & ~tau
        while m:
            b = m & -m
            m ^= b
            if (tau | b) in alive:
                sigma = tau | b
                break
        if sigma < 0:
            continue
        alive.discard(tau)
        alive.discard(sigma)
        for parent in (sigma, tau):
            mm = parent
            while mm:
                b = mm & -mm
                mm ^= b
                facet = parent ^ b
                if facet in alive:
                    cofdeg[facet] -= 1
                    if cofdeg[facet] == 1 and facet != 0:
                        queue.append(facet)
    return alive


@dataclass(frozen=True)
class CollapseReport:
    ok: bool
    detail: str
    step: OpStep
    direction: str                    # which complex was collapsed onto which
    matched_pairs: int
    collapses_executed: int
    residual_faces: int
    # True when the residual equals the smaller side: I(edited) for del_vertex
    # and add_edge, but I(G) for del_edge, where I(edited) is the larger one.
    residual_equals_edited: bool


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

    if step.kind == DEL_VERTEX:
        big, small = before, after
        doomed_labels = {step.target}
        direction = "I(G) onto I(edited)"
    elif step.kind == ADD_EDGE:
        big, small = before, after
        doomed_labels = set(step.target)
        direction = "I(G) onto I(edited)"
    else:  # DEL_EDGE: the edited complex is the larger one
        big, small = after, before
        doomed_labels = set(step.target)
        direction = "I(edited) onto I(G)"

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
                step, direction, 0, 0, big.n_faces(), False,
            )
            return big, report
        pairs.append((m, partner))
        seen.add(m)
        seen.add(partner)
    if len(seen) != len(doomed):
        report = CollapseReport(
            False,
            "matching incomplete: some disappearing faces are unpaired",
            step, direction, len(pairs), 0, big.n_faces(), False,
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
                step, direction, len(pairs), executed, len(alive), False,
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
        step, direction, len(pairs), executed, len(alive), same,
    )
    return residual, report
