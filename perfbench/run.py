"""The indcert benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload corollaries --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; indcert is imported from the src directory
beside perfbench, nothing is installed or built. Each worker process
(worker.py) is fresh and runs alone. A run with --trace 0 starts SETUP_PAIRS
pairs of workers that are stopped once set up, one of each pair importing the
program and the other indcert_v0, then SINGLE_PASSES workers that each run
one pass of the workload, then one paired worker: in it the program and
indcert_v0, the frozen copy of the program kept in perfbench, run passes of the
workload at the same time in two threads, in rounds, for about what is left of
--seconds after the set-up launches (at least one round). Every pass, of
either side, is checked against the pinned case list in reference.json. Every
workload is deterministic (workloads.py pins selftest's suite seed), so every
pass does the same work and --seed is accepted but unused.

With --trace 0 the end-to-end metrics are reported:
  cpu_vs_v0           CPU time of the program's passes in the paired rounds
                      over that of indcert_v0's: below 1 is faster than the
                      program was when the benchmark was defined
  setup_s             time from a worker process's launch until indcert is
                      imported and the configuration is built, as the median
                      over the set-up pairs of the program's time over
                      indcert_v0's, times V0_SETUP_S: the program's set-up
                      time at the machine speed of the baseline
  peak_rss_mb         least peak resident memory of a single pass's process
  evidence_kept_frac  share of cases whose requested Betti check was not skipped
                      by the face or homology budget (1 - skipped_frac)
The report lines also print the single passes' median wall time (wall_s) and
the 50th and 90th percentiles over cases of each case's median time: on a
shared machine these move by tens of percent with other load, so they are not
bounded. They also print failed_frac and skipped_frac; a failure also shows in
"failed" and "correct" of the result. With --trace 1 there is no paired
worker: untraced and traced single passes alternate until --seconds have
passed, and the per-layer metrics of the traced passes are reported instead
(spans.py). The last line of standard output is one JSON object: correct,
attempted, failed, metrics. `--workload all` runs the three workloads in turn
and prints all of them. The exit status is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170             # a run must end within 180 s
# Pairs of worker launches per run that are stopped once set up. Launch time
# follows the shared machine's speed, which drifts by tens of percent over
# minutes; the set-up time of indcert_v0 launched just before or after the
# program's cancels that drift.
SETUP_PAIRS = 12
# indcert_v0's set-up time on the baseline machine (2 CPUs, Python 3.11): the
# median over 60 runs of the program's median set-up time at the commit that
# froze indcert_v0, when the two were the same code (baseline.json).
V0_SETUP_S = 0.142
# Single passes per run with --trace 0. A pass's peak resident memory varies
# by a few percent from one process to the next, and the lesser of two is steady.
SINGLE_PASSES = 2


class BenchError(RuntimeError):
    pass


def reference_key(name: str, tiny: bool) -> str:
    return f"{name}/tiny" if tiny else name


def _start(args: list[str], env) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line: returns the process and
    the seconds from launch to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, 10)
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup_s


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline and was stopped") from None
    return out


def gate(rows: list, cases: list) -> tuple[int, list[str]]:
    """Check one pass's rows against the pinned cases [[case_id, chi], ...].

    A case fails when its row is not PASS, its chi~ differs from the pinned
    one, it is missing, it is not pinned, it repeats, or it is out of the
    pinned order. Returns (cases attempted, one problem per failed case).
    """
    pinned = dict(cases)
    problems: dict[str, str] = {}
    seen: list[str] = []
    for case_id, verdict, chi, *_ in rows:
        if case_id not in pinned:
            problems[case_id] = "not in the pinned case list"
        elif case_id in seen:
            problems[case_id] = "reported twice"
        elif verdict != "PASS":
            problems[case_id] = verdict
        elif pinned[case_id] is not None and chi != pinned[case_id]:
            problems[case_id] = f"chi {chi} != pinned {pinned[case_id]}"
        seen.append(case_id)
    for case_id, _ in cases:
        if case_id not in seen:
            problems[case_id] = "missing"
    if not problems:
        for got, (want, _) in zip(seen, cases):
            if got != want:
                problems[got] = "out of the pinned order"
                break
    attempted = len(set(pinned) | set(seen))
    return attempted, [f"{cid}: {why}" for cid, why in problems.items()]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _run_worker(args: list[str], env, deadline: float) -> dict:
    """Run one worker to its end: returns its JSON record."""
    proc, _ = _start(args, env)
    out = _finish(proc, deadline - time.perf_counter())
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _set_up(args: list[str], env) -> float:
    """Start a worker, stop it once set up: returns its set-up time."""
    proc, setup_s = _start(args, env)
    proc.kill()
    proc.communicate()
    return setup_s


def measure(name: str, seconds: float, trace: bool,
            tiny: bool = False, env=None) -> tuple[dict, list[str]]:
    """One benchmark run of a workload: returns the result object and the
    human-readable report lines."""
    deadline = time.perf_counter() + DEADLINE_S
    workload = workloads.get(name, tiny)
    base_args = [sys.executable, str(WORKER), "--workload", name]
    base_args += ["--tiny"] if tiny else []
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        cases = json.load(fh)[reference_key(name, tiny)]["cases"]

    setups: dict[str, list[float]] = {"program": [], "v0": []}
    for i in range(SETUP_PAIRS if not trace else 0):
        for side in ("program", "v0") if i % 2 == 0 else ("v0", "program"):
            setups[side].append(_set_up(base_args + (["--v0"] if side == "v0" else []), env))
    start = time.perf_counter()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        record = _run_worker(base_args + (["--trace"] if traced else []), env, deadline)
        record["traced"] = traced
        passes.append(record)
        # With --trace, untraced and traced passes alternate until --seconds
        # have passed; otherwise the paired worker takes the rest of the time.
        if trace:
            if len(passes) % 2 == 0 and time.perf_counter() - start > seconds:
                break
        elif len(passes) == SINGLE_PASSES:
            break
    rounds = []
    if not trace:
        left = max(seconds - (time.perf_counter() - start), 0)
        paired = _run_worker(base_args + ["--paired", f"{left:.3f}"], env, deadline)
        rounds = paired["rounds"]

    attempted = 0
    problems: list[str] = []
    skipped = 0
    for rows in [p["rows"] for p in passes] + [r["program"]["rows"] for r in rounds]:
        n, bad = gate(rows, cases)
        attempted += n
        problems += bad
        if workload.fields["checks"] == "betti":
            skipped += sum(1 for row in rows if row[3])
    for r in rounds:
        problems += [f"indcert_v0 {p}" for p in gate(r["v0"]["rows"], cases)[1]]

    untraced = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {
            m: statistics.median(p["layers"][m] for p in traced)
            for m in spans.LAYER_METRICS
        }
        layers["trace.overhead_frac"] = (
            sum(p["wall_s"] for p in traced) / sum(p["wall_s"] for p in untraced) - 1
        )
        values = {m: (layers[m], u) for m, u in spans.LAYER_METRICS.items()}
        notes = []
    else:
        per_case: dict[str, list[float]] = {}
        for p in passes:
            for row in p["rows"]:
                per_case.setdefault(row[0], []).append(row[4])
        case_ms = [statistics.median(v) * 1000 for v in per_case.values()]
        cpu = {side: sum(r[side]["cpu_s"] for r in rounds) for side in ("program", "v0")}
        setup_ratio = statistics.median(p / v for p, v in zip(setups["program"], setups["v0"]))
        values = {
            "cpu_vs_v0": (cpu["program"] / cpu["v0"], "ratio"),
            "setup_s": (V0_SETUP_S * setup_ratio, "s"),
            "peak_rss_mb": (min(p["rss_mb"] for p in passes), "MB"),
            "evidence_kept_frac": (1 - skipped / attempted, "ratio"),
        }
        notes = [
            f"  set-up: median {statistics.median(setups['program']):.6g} s (program), "
            f"{statistics.median(setups['v0']):.6g} s (indcert_v0) over {SETUP_PAIRS} pairs",
            f"  paired: {len(rounds)} rounds, CPU per pass {cpu['program'] / len(rounds):.6g} s "
            f"(program), {cpu['v0'] / len(rounds):.6g} s (indcert_v0)",
            f"  single passes: median wall_s {statistics.median(p['wall_s'] for p in passes):.6g} s, "
            f"case_p50_ms {statistics.median(case_ms):.6g} ms, case_p90_ms "
            f"{_p90(case_ms):.6g} ms (over {len(case_ms)} cases)",
        ]

    lines = [f"{name}: {len(passes)} single passes, {len(cases)} pinned cases"]
    lines += [f"  {m} {v:.6g} {u}" for m, (v, u) in values.items()]
    lines += notes
    lines.append(f"  failed_frac {len(problems) / attempted:.6g} ({len(problems)}/{attempted})")
    lines.append(f"  skipped_frac {skipped / attempted:.6g} ({skipped}/{attempted})")
    lines += [f"  FAILED {p}" for p in problems[:20]]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the indcert benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for the benchmark interface; every workload is deterministic")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (HERE.parent / "src" / "indcert" / "__init__.py").is_file():
        print("error: no src/indcert beside perfbench; run from a checkout", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = measure(name, seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
