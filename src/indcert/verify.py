"""Expected homotopy shapes for the grid families and the end-to-end suites.

A shape is either a wedge of m copies of the d-sphere or a point, and it
predicts its own invariants: `WedgeShape.chi_reduced` and `WedgeShape.betti`,
the nonzero reduced Betti numbers, which are the same over every prime field.
Families are verified by comparing the exact reduced Euler characteristic and,
budget permitting, reduced Betti profiles over the configured primes against
those predictions. "point" is verified through vanishing invariants only;
contractibility itself is not certified.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields

from . import certificates, complexes, euler, homology, moves
from .graphs import (
    FamilySpec,
    Graph,
    GraphError,
    four_row_minus_corners,
    four_row_with_chord,
    generate_family,
    grid,
    make_graph,
)

# verify family -> (generator family, row count m)
_FAMILY_SPECS = {
    "C1": ("C", 1), "C2": ("C", 2), "C3": ("C", 3),
    "M2": ("M", 2), "M3": ("M", 3), "CH1": ("CH", 1),
}
VERIFY_FAMILIES = tuple(_FAMILY_SPECS)


@dataclass(frozen=True)
class WedgeShape:
    kind: str                  # "wedge" | "point"
    copies: int = 0
    dim: int = 0

    def __post_init__(self):
        if self.kind == "point":
            return
        if self.kind != "wedge":
            raise GraphError(f"unknown shape kind {self.kind!r}")
        if self.copies < 1 or self.dim < -1:
            raise GraphError("malformed wedge shape")
        if self.dim == -1 and self.copies != 1:
            raise GraphError("only a single copy of the (-1)-sphere is meaningful")

    def chi_reduced(self) -> int:
        if self.kind == "point":
            return 0
        return self.copies if self.dim % 2 == 0 else -self.copies

    def betti(self) -> tuple[tuple[int, int], ...]:
        """The nonzero reduced Betti numbers as (dim, value) pairs; a wedge of
        m d-spheres has only m in dimension d, over every prime field."""
        if self.kind == "point":
            return ()
        return ((self.dim, self.copies),)

    def describe(self) -> str:
        if self.kind == "point":
            return "point"
        if self.copies == 1:
            return f"S^{self.dim}"
        return f"wedge({self.copies}, S^{self.dim})"


def point() -> WedgeShape:
    return WedgeShape("point")


def wedge(copies: int, dim: int) -> WedgeShape:
    return WedgeShape("wedge", copies, dim)


_SHAPE_TABLE: dict[str, tuple[int, tuple[tuple[int, int, int], ...]]] = {
    # family: (modulus, per-residue (copies, dim multiplier on k, dim offset))
    "C1": (3, ((2, 1, -1), (1, 1, -1), (1, 1, 0))),
    "C2": (4, ((3, 2, -1), (1, 2, -1), (1, 2, 0), (1, 2, 1))),
    "C3": (8, ((5, 6, -1), (1, 6, -1), (1, 6, 1), (1, 6, 1),
               (3, 6, 2), (1, 6, 3), (1, 6, 3), (1, 6, 5))),
    "M2": (4, ((1, 2, -1), (1, 2, 0), (3, 2, 0), (1, 2, 0))),
    "M3": (8, ((3, 6, -1), (1, 6, 0), (1, 6, 0), (1, 6, 2),
               (5, 6, 2), (1, 6, 2), (1, 6, 4), (1, 6, 4))),
}


def expected_shape(family: str, n: int) -> WedgeShape:
    """The declared homotopy shape for the family's complex at width n."""
    if n < 1:
        raise GraphError("need n >= 1")
    if family == "CH1":
        if n % 2 == 1:
            return point()
        return wedge(2, n - 1)
    if family not in _SHAPE_TABLE:
        raise GraphError(f"unknown verify family {family!r}")
    modulus, rows = _SHAPE_TABLE[family]
    k, i = divmod(n, modulus)
    copies, mult, offset = rows[i]
    return wedge(copies, mult * k + offset)


def family_graph(family: str, n: int) -> Graph:
    if family not in _FAMILY_SPECS:
        raise GraphError(f"unknown verify family {family!r}")
    tag, m = _FAMILY_SPECS[family]
    return generate_family(FamilySpec(tag, m, n))


@dataclass(frozen=True)
class VerifyReport:
    case_id: str
    verdict: str                   # "PASS" | "FAIL"
    detail: str = ""
    chi: int | None = None
    chi_expected: int | None = None
    expected: str = ""
    betti: tuple[tuple[int, homology.Profile], ...] = ()     # (p, profile) per prime
    betti_skipped: bool = False

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def line(self) -> str:
        parts = [self.case_id, self.verdict]
        if self.chi is not None:
            parts.append(f"chi={self.chi}")
        if self.betti_skipped:
            parts.append("betti=skipped")
        elif self.betti:
            rendered = ";".join(
                "p{}:{}".format(p, ",".join(f"{d}:{v}" for d, v in prof) or "0")
                for p, prof in self.betti
            )
            parts.append(f"betti={rendered}")
        if self.detail and not self.passed:
            parts.append(f"[{self.detail}]")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "case": self.case_id,
            "verdict": self.verdict,
            "detail": self.detail,
            "chi": self.chi,
            "chi_expected": self.chi_expected,
            "expected": self.expected,
            "betti": {
                str(p): {str(d): v for d, v in prof} for p, prof in self.betti
            },
            "betti_skipped": self.betti_skipped,
        }


def verify_case(
    family: str,
    n: int,
    primes: tuple[int, ...] = (2, 3),
    budget: int | None = euler.DEFAULT_FACE_BUDGET,
    with_betti: bool = True,
) -> VerifyReport:
    """Check one family member against its declared shape. The chi~ check
    always runs; Betti checks are skipped where a budget stops them."""
    shape = expected_shape(family, n)
    g = family_graph(family, n)
    case_id = f"{family} {n}"
    chi = euler.chi_reduced_recursive(g)
    chi_want = shape.chi_reduced()
    problems = []
    if chi != chi_want:
        problems.append(f"chi {chi} != expected {chi_want}")

    profiles = homology.graph_betti(g, tuple(primes), budget) if with_betti else None
    betti_rows = tuple((profiles or {}).items())
    for p, got in betti_rows:
        if got != shape.betti():
            problems.append(f"betti over GF({p}) {got} != expected {shape.betti()}")
    verdict = "PASS" if not problems else "FAIL"
    return VerifyReport(
        case_id, verdict, "; ".join(problems), chi, chi_want,
        shape.describe(), betti_rows, profiles is None,
    )


# ---------------------------------------------------------------------------
# Four-row-grid recursion checks


def verify_appendix(n_max: int = 14) -> list[VerifyReport]:
    """The exact Euler-characteristic identities behind the four-row grids:
    closed form, parity, both reduction certificates, and the deletion
    recursions, with the Y-family base values."""
    if n_max < 4:
        raise GraphError("need n_max >= 4")
    out: list[VerifyReport] = []

    # chi~ of the three four-row families, each computed once per width
    chi = euler.chi_reduced_recursive
    p4 = {n: chi(grid(4, n)) for n in range(1, n_max + 1)}
    x = {n: chi(four_row_with_chord(n)) for n in range(1, n_max - 1)}
    y = {n: chi(four_row_minus_corners(n)) for n in range(1, n_max + 1)}

    bad = [n for n in p4 if euler.chi_four_row_grid(n) != p4[n]]
    out.append(_bulk_report("P4 closed form n=1..%d" % n_max, bad))

    bad = [n for n in p4 if (euler.chi_four_row_grid(n) < 0) != (n % 2 == 0)]
    out.append(_bulk_report("P4 parity n=1..%d" % n_max, bad))

    bad = []
    for n in range(3, n_max + 1):
        rep = moves.replay(certificates.builtin_certificate("p4n-to-x", n), checks="chi")
        if not rep.passed or p4[n] != x[n - 2]:
            bad.append(n)
    out.append(_bulk_report("P4 -> chorded-grid transfer n=3..%d" % n_max, bad))

    bad = [n for n in range(4, n_max + 1) if p4[n] != p4[n - 2] - y[n - 3]]
    out.append(_bulk_report("P4 two-column recursion n=4..%d" % n_max, bad))

    bad = []
    for n in range(4, n_max + 1):
        rep = moves.replay(certificates.builtin_certificate("y-recursion", n), checks="chi")
        if not rep.passed or y[n] != -y[n - 3]:
            bad.append(n)
    out.append(_bulk_report("Y three-column sign flip n=4..%d" % n_max, bad))

    base = {1: 1, 2: 0, 3: 1}
    bad = [n for n, v in base.items() if y[n] != v]
    out.append(_bulk_report("Y base values", bad))

    branch = {0: -1, 1: 1, 2: 0, 3: 1, 4: -1, 5: 0}
    bad = [n for n in y if y[n] != branch[n % 6]]
    out.append(_bulk_report("Y branch values n=1..%d" % n_max, bad))
    return out


def _bulk_report(case_id: str, bad: list, betti_skipped: bool = False) -> VerifyReport:
    detail = f"failing instances: {bad}" if bad else ""
    return VerifyReport(case_id, "FAIL" if bad else "PASS", detail, betti_skipped=betti_skipped)


# ---------------------------------------------------------------------------
# Property suites


def replacement_suite(
    rng: random.Random,
    per_rule: int = 20,
    budget: int | None = euler.DEFAULT_FACE_BUDGET,
    with_betti: bool = True,
) -> list[VerifyReport]:
    """Random hosts per rule: replacement + replay must pass, chi~ must flip
    sign, and the GF(2) profile must shift by the suspension count. A rule's
    row has `betti_skipped` when a budget stopped the profile of any host."""
    out = []
    for rule in ("thm1", "thm2", "thm3"):
        shift = certificates.SUSPENSION_COUNT[rule]
        bad: list[str] = []
        skipped = False
        for i in range(per_rule):
            g, patch = certificates.random_host(rule, rng)
            h, cert = certificates.make_replacement(g, patch)
            rep = moves.replay(cert, checks="chi")
            if not rep.passed:
                bad.append(f"#{i}: replay {rep.failure}")
                continue
            chi_g = euler.chi_reduced_recursive(g)
            chi_h = euler.chi_reduced_recursive(h)
            if chi_h != -chi_g:
                bad.append(f"#{i}: chi {chi_h} != -({chi_g})")
                continue
            if with_betti:
                # I(g) is a subcomplex of I(h), so h has at least as many
                # faces and a budget stops h first: g is then not counted
                bh = homology.graph_betti(h, (2,), budget)
                bg = homology.graph_betti(g, (2,), budget) if bh is not None else None
                if bg is None:
                    skipped = True
                elif bh[2] != tuple((d + shift, v) for d, v in bg[2]):
                    bad.append(f"#{i}: betti shift by {shift} fails")
        out.append(_bulk_report(f"{rule} random hosts x{per_rule}", bad, skipped))
    return out


def random_graph(rng: random.Random, max_n: int, p_edge: float | None = None) -> Graph:
    n = rng.randint(1, max_n)
    p = p_edge if p_edge is not None else rng.uniform(0.2, 0.5)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return make_graph(names, edges)


def _valid_steps(g: Graph) -> list[moves.OpStep]:
    found = []
    verts = list(g.vertices)
    for v in verts:
        for u in verts:
            if u == v:
                continue
            step = moves.OpStep(moves.DEL_VERTEX, v, u)
            if moves.check_step(g, step).ok:
                found.append(step)
    for a, b in sorted(g.edges):
        for u in verts:
            if u in (a, b):
                continue
            step = moves.OpStep(moves.DEL_EDGE, (a, b), u)
            if moves.check_step(g, step).ok:
                found.append(step)
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            if g.has_edge(a, b):
                continue
            for u in verts:
                if u in (a, b):
                    continue
                step = moves.OpStep(moves.ADD_EDGE, (a, b), u)
                if moves.check_step(g, step).ok:
                    found.append(step)
    return found


def oracle_suite(
    rng: random.Random,
    instances: int = 200,
    max_vertices: int = 9,
    budget: int | None = euler.DEFAULT_FACE_BUDGET,
) -> VerifyReport:
    """Random (graph, valid step) pairs: the face-level matching must run as
    elementary collapses and land exactly on the edited graph's complex."""
    bad: list[str] = []
    done = 0
    attempts = 0
    while done < instances and attempts < instances * 60:
        attempts += 1
        g = random_graph(rng, max_vertices)
        steps = _valid_steps(g)
        if not steps:
            continue
        step = steps[rng.randrange(len(steps))]
        residual, report = complexes.collapse_oracle(g, step, budget=budget)
        if not report.ok or not report.residual_equals_edited:
            bad.append(f"#{done}: {step.describe()}: {report.detail}")
        done += 1
    if done < instances:
        bad.append(f"only generated {done}/{instances} instances")
    return _bulk_report(f"collapse oracle x{instances}", bad)


def euler_suite(
    rng: random.Random,
    join_pairs: int = 100,
    edge_identities: int = 100,
    agreement: int = 200,
) -> list[VerifyReport]:
    out = []

    bad = []
    for i in range(join_pairs):
        g = random_graph(rng, 6)
        h = random_graph(rng, 6)
        u = g.disjoint_union(h, suffix="_r")
        lhs = euler.chi_reduced_recursive(u)
        rhs = -euler.chi_reduced_recursive(g) * euler.chi_reduced_recursive(h)
        if lhs != rhs:
            bad.append(str(i))
    out.append(_bulk_report(f"disjoint-union chi identity x{join_pairs}", bad))

    bad = []
    done = 0
    while done < edge_identities:
        g = random_graph(rng, 9)
        if not g.edges:
            continue
        e = sorted(g.edges)[rng.randrange(len(g.edges))]
        if not euler.edge_deletion_identity(g, e):
            bad.append(f"#{done}")
        done += 1
    out.append(_bulk_report(f"edge-deletion chi identity x{edge_identities}", bad))

    bad = []
    for i in range(agreement):
        g = random_graph(rng, 10)
        if euler.chi_reduced_enumerate(g) != euler.chi_reduced_recursive(g):
            bad.append(str(i))
    out.append(_bulk_report(f"enumerate/recursive agreement x{agreement}", bad))
    return out


def builtin_replay_suite(
    budget: int | None = euler.DEFAULT_FACE_BUDGET,
    ch1_max: int = 5,
    p4n_max: int = 10,
    y_max: int = 10,
) -> list[VerifyReport]:
    jobs: list[tuple[str, int | None]] = [
        (cert_id, None) for cert_id in certificates.BUILTIN_IDS
        if cert_id not in certificates.PARAMETERIZED_IDS
    ]
    jobs += [("ch1", n) for n in range(1, ch1_max + 1)]
    jobs += [("p4n-to-x", n) for n in range(3, p4n_max + 1)]
    jobs += [("y-recursion", n) for n in range(4, y_max + 1)]
    out = []
    for cert_id, n in jobs:
        cert = certificates.builtin_certificate(cert_id, n)
        rep = moves.replay(cert, checks="chi", budget=budget)
        detail = "" if rep.passed else f"{rep.failure}: {rep.failure_detail}"
        out.append(
            VerifyReport(f"replay {cert.name}", "PASS" if rep.passed else "FAIL", detail)
        )
    return out


ORACLE_CHECKED_BUILTINS = (
    "thm1-generic", "thm2-generic", "p42", "c32", "m32", "c33", "m33",
)


def oracle_validate_certificate(
    cert: moves.Certificate, budget: int | None = euler.DEFAULT_FACE_BUDGET
) -> tuple[bool, bool, str]:
    """Validate every step of a certificate with the face-level oracle.

    Returns (ok, stopped, detail): stopped is True when a step's complexes
    exceed the face budget, so the steps from there on went unchecked."""
    g = cert.initial_graph()
    for i, step in enumerate(cert.steps):
        try:
            _, report = complexes.collapse_oracle(g, step, budget=budget)
        except euler.FaceBudgetExceeded:
            return True, True, f"stopped at step {i}: face budget"
        if not report.ok:
            return False, False, f"step {i} {step.describe()}: {report.detail}"
        g = moves.apply_step(g, step)
    return True, False, ""


def builtin_oracle_suite(budget: int | None = euler.DEFAULT_FACE_BUDGET) -> list[VerifyReport]:
    """One row per oracle-checked builtin; a row whose check stopped at the
    face budget is a PASS with `betti_skipped`, so it counts as skipped."""
    out = []
    for cert_id in ORACLE_CHECKED_BUILTINS:
        cert = certificates.builtin_certificate(cert_id)
        ok, stopped, detail = oracle_validate_certificate(cert, budget=budget)
        out.append(VerifyReport(
            f"oracle {cert_id}", "PASS" if ok else "FAIL", detail, betti_skipped=stopped
        ))
    return out


# ---------------------------------------------------------------------------
# Suite configuration and runner


DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class SuiteConfig:
    c1_max: int = 16
    c2_max: int = 16
    c3_max: int = 12
    m2_max: int = 16
    m3_max: int = 12
    ch1_max: int = 10
    appendix_max: int = 14
    primes: tuple[int, ...] = (2, 3)
    budget: int = euler.DEFAULT_FACE_BUDGET
    seed: int = DEFAULT_SEED
    random_hosts: int = 20
    oracle_instances: int = 200
    join_pairs: int = 100
    edge_identities: int = 100
    agreement: int = 200
    checks: str = "betti"          # "chi" restricts every case to chi~ only

    def family_bound(self, family: str) -> int:
        """The largest n checked for a verify family: its `<family>_max` field."""
        return getattr(self, f"{family.lower()}_max")


_INT_KEYS = {f.name for f in fields(SuiteConfig) if isinstance(f.default, int)}


def _config_int(lineno: int, key: str, val: str) -> int:
    try:
        return int(val)
    except ValueError:
        raise GraphError(f"line {lineno}: {key} must be an integer, not {val!r}") from None


def parse_config(text: str) -> SuiteConfig:
    """Plain-text key/value config: one `key = value` per line, '#' comments."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            key, _, val = line.partition(" ")
        key = key.strip()
        val = val.strip()
        if key in _INT_KEYS:
            values[key] = _config_int(lineno, key, val)
        elif key == "primes":
            primes = tuple(_config_int(lineno, key, x) for x in val.replace(",", " ").split())
            try:
                homology.check_primes(primes)
            except GraphError as exc:
                raise GraphError(f"line {lineno}: primes: {exc}") from None
            values[key] = primes
        elif key == "checks":
            if val not in ("chi", "betti"):
                raise GraphError(f"line {lineno}: checks must be chi or betti")
            values[key] = val
        else:
            raise GraphError(f"line {lineno}: unknown config key {key!r}")
    return SuiteConfig(**values)


@dataclass(frozen=True)
class SuiteSummary:
    reports: tuple[VerifyReport, ...]
    config: SuiteConfig

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.reports]
        n_fail = sum(1 for r in self.reports if not r.passed)
        out.append(
            f"TOTAL {len(self.reports)} cases, "
            f"{len(self.reports) - n_fail} passed, {n_fail} failed"
        )
        return out

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "cases": [r.to_json_dict() for r in self.reports],
            "seed": self.config.seed,
            "budget": self.config.budget,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)


def run_corollary_cases(config: SuiteConfig) -> list[VerifyReport]:
    out = []
    for family in VERIFY_FAMILIES:
        for n in range(1, config.family_bound(family) + 1):
            out.append(
                verify_case(
                    family, n, primes=config.primes, budget=config.budget,
                    with_betti=config.checks == "betti",
                )
            )
    return out


def run_suite(config: SuiteConfig = SuiteConfig(), sections: tuple[str, ...] = ("corollaries", "appendix", "replays", "properties")) -> SuiteSummary:
    reports: list[VerifyReport] = []
    if "corollaries" in sections:
        reports += run_corollary_cases(config)
    if "appendix" in sections:
        reports += verify_appendix(config.appendix_max)
    if "replays" in sections:
        reports += builtin_replay_suite(budget=config.budget)
        reports += builtin_oracle_suite(budget=config.budget)
    if "properties" in sections:
        rng = random.Random(config.seed)
        reports += replacement_suite(
            rng, per_rule=config.random_hosts, budget=config.budget,
            with_betti=config.checks == "betti",
        )
        reports.append(
            oracle_suite(rng, instances=config.oracle_instances, budget=config.budget)
        )
        reports += euler_suite(
            rng, join_pairs=config.join_pairs,
            edge_identities=config.edge_identities, agreement=config.agreement,
        )
    return SuiteSummary(tuple(reports), config)
