"""Regenerate reference.json, the pinned case list of every workload.

    python3 perfbench/make_reference.py

indcert is imported from the src directory beside perfbench. For each
workload, full and tiny, one pass of the suite gives the ordered case ids
and the chi~ of every case that reports one. Every row must PASS, and each pinned chi~ is checked against
sources independent of the pass: the declared shape's chi~
(`expected_shape(f, n).chi_reduced()`) and, where the independent sets fit
the face budget, direct enumeration (`chi_reduced_enumerate`). The appendix
rows carry no chi~; the four-row closed form they rest on is checked against
enumeration as far as the budget reaches. Betti numbers are not pinned: a
faster reduction may legitimately turn a skipped Betti check into evidence.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


def _enumerated(euler, g):
    try:
        return euler.chi_reduced_enumerate(g, budget=workloads.FACE_BUDGET)
    except euler.FaceBudgetExceeded:
        return None


def pinned_cases(verify, euler, workload) -> tuple[list, int]:
    """Pinned [[case_id, chi], ...] for one workload, and how many chi~
    values enumeration confirmed."""
    config = verify.SuiteConfig(**workload.fields)
    summary = verify.run_suite(config, sections=workload.sections)
    cases = []
    enumerated = 0
    for r in summary.reports:
        if not r.passed:
            raise SystemExit(f"{r.case_id} does not PASS: {r.detail}")
        if r.chi is not None:
            family, n = r.case_id.split()
            declared = verify.expected_shape(family, int(n)).chi_reduced()
            direct = _enumerated(euler, verify.family_graph(family, int(n)))
            if r.chi != declared or direct not in (None, r.chi):
                raise SystemExit(f"{r.case_id}: chi {r.chi}, declared {declared}, enumerated {direct}")
            enumerated += direct is not None
        cases.append([r.case_id, r.chi])
    return cases, enumerated


def check_four_row_closed_form(euler, graphs, n_max: int) -> int:
    """Compare chi_four_row_grid with enumeration for n = 1..n_max while the
    grid fits the face budget; returns the largest n checked."""
    checked = 0
    for n in range(1, n_max + 1):
        direct = _enumerated(euler, graphs.grid(4, n))
        if direct is None:
            break
        if direct != euler.chi_four_row_grid(n):
            raise SystemExit(f"P4 {n}: closed form {euler.chi_four_row_grid(n)}, enumerated {direct}")
        checked = n
    return checked


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from indcert import euler, graphs, verify

    reference = {}
    for tiny, table in ((False, workloads.WORKLOADS), (True, workloads.TINY)):
        for name, workload in table.items():
            cases, enumerated = pinned_cases(verify, euler, workload)
            key = run.reference_key(name, tiny)
            reference[key] = {"cases": cases}
            with_chi = sum(chi is not None for _, chi in cases)
            print(f"{key}: {len(cases)} cases, {with_chi} with chi~, "
                  f"{enumerated} confirmed by enumeration")
    n = check_four_row_closed_form(euler, graphs, workloads.WORKLOADS["chi-sweep"].fields["appendix_max"])
    print(f"four-row closed form confirmed by enumeration for n = 1..{n}")
    blocks = []
    for key, entry in reference.items():
        rows = ",\n".join("   " + json.dumps(case) for case in entry["cases"])
        blocks.append(f' {json.dumps(key)}: {{"cases": [\n{rows}\n ]}}')
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
