"""One pass of one workload in one fresh process; run.py starts it.

    python3 perfbench/worker.py --workload NAME [--trace | --paired SECONDS | --v0] [--tiny]

The worker imports indcert from the src directory beside perfbench, builds the
workload's configuration and prints "ready": that is the end of set-up. The
tracer (spans.py) is imported only with --trace, after set-up. It then runs one
pass of the suite (traced with --trace) and prints one JSON line with the
pass's rows, timings and the process's peak resident memory. With --v0 it
does the same with indcert_v0 in place of indcert; run.py times such set-ups
beside the program's.

With --paired the worker also imports indcert_v0, a verbatim copy of the
program as it was when the benchmark was defined, and runs rounds: in each
round the program and the copy each run one pass at the same time, in two
threads on one processor that take turns holding the interpreter lock every
SWITCH_S seconds. Each side's time is the CPU time of its own thread. Other
load on a shared machine slows both sides alike, so the ratio of the two times
is steady where either time alone is not. Rounds run for about SECONDS after "ready" (see
run_paired). It prints one JSON line with each round's times and rows.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter, thread_time

import workloads

HERE = Path(__file__).resolve().parent
# How long a thread of a paired round holds the interpreter lock before the
# other thread takes it (CPython's default, written out).
SWITCH_S = 0.005


def run_pass(verify, config, sections, tracer=None) -> dict:
    """One pass of `run_suite`, timed per report row.

    A row's time runs from the previous row's completion (or the start of the
    pass) to the construction of its own `VerifyReport`, which is when the
    suite finishes the row's work.
    """
    cls = verify.VerifyReport
    original_init = cls.__init__
    built: dict[int, float] = {}

    def stamped_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built[id(self)] = perf_counter()

    cls.__init__ = stamped_init
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        summary = verify.run_suite(config, sections=sections)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
        cls.__init__ = original_init

    rows = []
    prev = t0
    for r in summary.reports:
        done = built.get(id(r))
        if done is None or done < prev:
            raise RuntimeError(f"cannot time row {r.case_id!r}: rows are not built in order")
        rows.append([r.case_id, r.verdict, r.chi, r.betti_skipped, done - prev])
        prev = done
    out = {"wall_s": wall, "rows": rows}
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
    return out


def paired_round(sides: dict, sections) -> dict:
    """One pass of each side {name: (verify module, config)} at once, one
    thread per side: returns {name: {"cpu_s", "rows"}}."""
    out: dict[str, dict] = {}
    errors: list[Exception] = []

    def one(name, verify, config):
        try:
            t0 = thread_time()
            summary = verify.run_suite(config, sections=sections)
            cpu_s = thread_time() - t0
            rows = [[r.case_id, r.verdict, r.chi, r.betti_skipped] for r in summary.reports]
            out[name] = {"cpu_s": cpu_s, "rows": rows}
        except Exception as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [
        threading.Thread(target=one, args=(name, *side)) for name, side in sides.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return out


def run_paired(sides: dict, sections, seconds: float) -> dict:
    """Paired rounds, alternating which side's thread starts first: at least
    one, and no further round once the next would, at the mean round time so
    far, end more than half a round past `seconds`.

    The process is pinned to one processor meanwhile. Otherwise the two
    threads may run on different processors, and the ratio of their times
    follows whatever else loads each processor."""
    pin = hasattr(os, "sched_setaffinity")
    if pin:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
    switch = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_S)
    try:
        names = list(sides)
        rounds = []
        t0 = perf_counter()
        while not rounds or (perf_counter() - t0) * (1 + 0.5 / len(rounds)) < seconds:
            order = names if len(rounds) % 2 == 0 else names[::-1]
            rounds.append(paired_round({n: sides[n] for n in order}, sections))
        return {"rounds": rounds}
    finally:
        sys.setswitchinterval(switch)
        if pin:
            os.sched_setaffinity(0, allowed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--paired", type=float, metavar="SECONDS")
    mode.add_argument("--v0", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    if args.v0:
        from indcert_v0 import verify
    else:
        from indcert import verify

    workload = workloads.get(args.workload, args.tiny)
    config = verify.SuiteConfig(**workload.fields)
    if args.paired is not None:
        from indcert_v0 import verify as verify_v0

        sides = {
            "program": (verify, config),
            "v0": (verify_v0, verify_v0.SuiteConfig(**workload.fields)),
        }
        print("ready", flush=True)
        print(json.dumps(run_paired(sides, workload.sections, args.paired)))
        return 0
    print("ready", flush=True)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    record = run_pass(verify, config, workload.sections, tracer)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
