"""Pinned workload configurations for the indcert benchmark.

Every `SuiteConfig` field is written out here, so a later change to the
suite's defaults (family bounds, `appendix_max`, primes, face budget, seed)
cannot silently change what a workload measures. This module does not import
indcert: run.py uses it before anything from the program is loaded.

Every workload is deterministic: `selftest` runs its randomized sections at
the pinned suite seed, so every pass builds the same random hosts and does the
same work.
"""

from __future__ import annotations

from dataclasses import dataclass

FACE_BUDGET = 200_000
PRIMES = (2, 3)
# The suite's DEFAULT_SEED, written out; the seed of selftest's random hosts.
FIXED_SEED = 20240801

# Every SuiteConfig field. Fields a workload's sections do not read are pinned
# all the same, so that the full configuration is on record.
_BASE = {
    "c1_max": 16, "c2_max": 16, "c3_max": 12,
    "m2_max": 16, "m3_max": 12, "ch1_max": 10,
    "appendix_max": 14,
    "primes": PRIMES,
    "budget": FACE_BUDGET,
    "seed": FIXED_SEED,
    "random_hosts": 20,
    "oracle_instances": 200,
    "join_pairs": 100,
    "edge_identities": 100,
    "agreement": 200,
    "checks": "betti",
}


@dataclass(frozen=True)
class Workload:
    sections: tuple[str, ...]
    fields: dict


WORKLOADS = {
    # The paper's headline table with Betti evidence over GF(2) and GF(3):
    # face enumeration, collapse_core and elimination do the work.
    "corollaries": Workload(("corollaries",), dict(_BASE)),
    # chi~-only checks on larger members plus the four-row-grid appendix:
    # the chi~ recursion and certificate replay do the work; no face is built.
    "chi-sweep": Workload(
        ("corollaries", "appendix"),
        {**_BASE, "c1_max": 28, "c2_max": 28, "c3_max": 20, "m2_max": 28,
         "m3_max": 20, "ch1_max": 24, "checks": "chi"},
    ),
    # Builtin replays, the collapse oracle and the randomized property suites
    # on small dense random hosts rather than grids, as `indcert selftest`
    # runs them by default: twenty hosts per rule at the pinned seed, where
    # collapse_core does most of the work. The host set is fixed because a
    # host's cost is heavy-tailed: at other seeds a pass took 3.8-10.3 s.
    "selftest": Workload(("replays", "properties"), dict(_BASE)),
}

# Small versions of each workload for the benchmark's own tests. The tiny
# corollaries budget is low on purpose, so that some cases skip Betti.
TINY = {
    "corollaries": Workload(
        ("corollaries",),
        {**_BASE, "c1_max": 4, "c2_max": 3, "c3_max": 2, "m2_max": 3,
         "m3_max": 2, "ch1_max": 2, "budget": 40},
    ),
    "chi-sweep": Workload(
        ("corollaries", "appendix"),
        {**_BASE, "c1_max": 5, "c2_max": 4, "c3_max": 3, "m2_max": 4,
         "m3_max": 3, "ch1_max": 3, "appendix_max": 5, "checks": "chi"},
    ),
    "selftest": Workload(
        ("replays", "properties"),
        {**_BASE, "random_hosts": 0, "oracle_instances": 3, "join_pairs": 3,
         "edge_identities": 3, "agreement": 3},
    ),
}


def get(name: str, tiny: bool = False) -> Workload:
    return (TINY if tiny else WORKLOADS)[name]

