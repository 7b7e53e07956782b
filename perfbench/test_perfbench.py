"""Tests of the benchmark itself, on the tiny version of each workload.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from indcert import verify  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture(scope="module")
def tiny_runs():
    """Each tiny workload measured once untraced and twice traced, the traced
    runs under different hash seeds."""
    out = {}
    for name in workloads.WORKLOADS:
        for trace, hash_seed in ((False, "0"), (True, "1"), (True, "2")):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            result, _ = run.measure(name, 0.1, trace, tiny=True, env=env)
            out[name, trace, hash_seed] = result
    return out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tiny_runs, name):
    for trace, hash_seed, kind in ((False, "0", "end_to_end"), (True, "1", "per_layer")):
        result = tiny_runs[name, trace, hash_seed]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {m: v["unit"] for m, v in result["metrics"].items()}
        assert emitted == _declared(kind)
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_counts_repeat_under_other_hash_seed(tiny_runs, name):
    counts = [
        {m: v["value"] for m, v in tiny_runs[name, True, h]["metrics"].items() if v["unit"] == "count"}
        for h in ("1", "2")
    ]
    assert counts[0] == counts[1]


def test_tiny_corollaries_report_budget_skips(tiny_runs):
    kept = tiny_runs["corollaries", False, "0"]["metrics"]["evidence_kept_frac"]["value"]
    assert 0 < kept < 1


def _one_pass(name: str):
    workload = workloads.get(name, tiny=True)
    config = verify.SuiteConfig(**workload.fields)
    rows = worker.run_pass(verify, config, workload.sections)["rows"]
    return rows, REFERENCE[run.reference_key(name, True)]["cases"]


def test_gate_accepts_the_pinned_reference():
    rows, cases = _one_pass("chi-sweep")
    assert run.gate(rows, cases) == (len(cases), [])


def test_gate_flags_a_wrong_chi():
    rows, cases = _one_pass("chi-sweep")
    i = next(i for i, (_, chi) in enumerate(cases) if chi is not None)
    tampered = [list(c) for c in cases]
    tampered[i][1] += 1
    attempted, problems = run.gate(rows, tampered)
    assert attempted == len(cases)
    assert len(problems) == 1 and problems[0].startswith(cases[i][0])


def test_gate_flags_a_dropped_case():
    rows, cases = _one_pass("chi-sweep")
    attempted, problems = run.gate(rows, cases[:3] + cases[4:])
    assert attempted == len(cases)
    assert problems == [f"{cases[3][0]}: not in the pinned case list"]
    attempted, problems = run.gate(rows[:3] + rows[4:], cases)
    assert problems == [f"{cases[3][0]}: missing"]


def test_gate_flags_a_failed_verdict_and_order():
    rows, cases = _one_pass("selftest")
    failed = [list(r) for r in rows]
    failed[0][1] = "FAIL"
    assert len(run.gate(failed, cases)[1]) == 1
    swapped = [rows[1], rows[0]] + rows[2:]
    assert len(run.gate(swapped, cases)[1]) == 1


def test_paired_round_runs_both_sides_on_the_same_cases():
    from indcert_v0 import verify as verify_v0

    workload = workloads.get("chi-sweep", tiny=True)
    sides = {
        "program": (verify, verify.SuiteConfig(**workload.fields)),
        "v0": (verify_v0, verify_v0.SuiteConfig(**workload.fields)),
    }
    (round_,) = worker.run_paired(sides, workload.sections, 0)["rounds"]
    cases = REFERENCE[run.reference_key("chi-sweep", True)]["cases"]
    for side in round_.values():
        assert side["cpu_s"] > 0
        assert run.gate(side["rows"], cases) == (len(cases), [])


def test_stale_tracer_fails_the_pass():
    tracer = spans.Tracer()
    with pytest.raises(AttributeError):
        tracer._wrap(verify, "no_such_function", "graphs", spans._on_graph)

    def hook(*args):
        raise KeyError("hook no longer fits")

    tracer._wrap(verify, "expected_shape", "graphs", hook)
    try:
        with pytest.raises(KeyError):
            verify.expected_shape("C1", 3)
    finally:
        tracer.uninstall()


def test_pinned_chi_matches_declared_shapes():
    for key, entry in REFERENCE.items():
        for case_id, chi in entry["cases"]:
            if chi is not None:
                family, n = case_id.split()
                assert chi == verify.expected_shape(family, int(n)).chi_reduced(), (key, case_id)

