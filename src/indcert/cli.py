"""Command-line front end.

Exit codes: 0 pass, 1 verification failure, 2 precondition violation,
3 input error. Graph arguments are JSON file paths (or ``-`` for stdin);
the file may hold either a graph document or a family reference like
``{"family": "C", "m": 3, "n": 4}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import certificates, complexes, euler, homology, moves, verify
from .graphs import (
    FAMILY_TAGS,
    FamilySpec,
    Graph,
    GraphError,
    generate_family,
    graph_from_json,
)
from .moves import PreconditionError

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_INPUT = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    return graph_from_json(_read_text(path))


def _cmd_gen(args) -> int:
    family = args.family
    if family in ("P", "C", "M", "CH"):
        if args.n is None:
            raise GraphError(f"family {family} needs two numbers: m n")
        spec = FamilySpec(family, args.m, args.n)
    else:
        if args.n is not None:
            raise GraphError(f"family {family} takes a single number: n")
        spec = FamilySpec(family, None, args.m)
    print(generate_family(spec).to_json())
    return EXIT_PASS


def _cmd_chi(args) -> int:
    g = _load_graph(args.graph)
    print(euler.chi_reduced(g, method=args.method, budget=args.budget))
    return EXIT_PASS


def _cmd_betti(args) -> int:
    g = _load_graph(args.graph)
    profiles = homology.graph_betti(g, (args.p,), budget=args.budget)
    if profiles is None:
        raise euler.FaceBudgetExceeded(args.budget)
    for dim, val in profiles[args.p]:
        print(f"{dim}:{val}")
    return EXIT_PASS


def _cmd_complex(args) -> int:
    g = _load_graph(args.graph)
    k = complexes.independence_complex(g, budget=args.budget)
    for line in k.dump_lines():
        print(line)
    return EXIT_PASS


def _cmd_replay(args) -> int:
    cert = moves.certificate_from_json(_read_text(args.certificate))
    report = moves.replay(cert, checks=args.check, budget=args.budget)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for s in report.steps:
            chi = "" if s.chi_after is None else f" chi={s.chi_after}"
            ok = "ok" if s.precondition_ok else f"FAIL ({s.reason})"
            print(f"step {s.index}: {s.step.describe()} [{s.direction}] {ok}{chi}")
        print(f"{report.certificate}: {'PASS' if report.passed else 'FAIL'}"
              + (" betti=skipped" if report.betti_skipped else "")
              + ("" if report.passed else f" ({report.failure}: {report.failure_detail})"))
    if report.passed:
        return EXIT_PASS
    if report.failure == "precondition":
        return EXIT_PRECONDITION
    return EXIT_VERIFY_FAIL


def _cmd_make_cert(args) -> int:
    g = _load_graph(args.graph)
    role = certificates.ROLE_FOR_RULE[args.rule]
    patch = certificates.MarkedPatch(role, tuple(args.patch), relaxed=args.relaxed)
    try:
        h, cert = certificates.make_replacement(g, patch)
    except certificates.PatchError as exc:
        print(f"patch validation failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    doc = {"graph": h.to_json_dict(), "certificate": cert.to_json_dict()}
    print(json.dumps(doc, indent=2))
    return EXIT_PASS


_SUITE_SECTIONS = {
    "corollaries": ("corollaries",),
    "appendix": ("appendix",),
    "all": ("corollaries", "appendix", "replays", "properties"),
    "selftest": ("replays", "properties"),
}


def _cmd_verify(args) -> int:
    """`verify WHAT` and `selftest` (which runs with no config file)."""
    if args.config:
        config = verify.parse_config(_read_text(args.config))
    else:
        config = verify.SuiteConfig()
    if args.budget is not None:
        config = replace(config, budget=args.budget)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    summary = verify.run_suite(config, sections=_SUITE_SECTIONS[args.what])
    if args.json:
        print(summary.to_json())
    else:
        for line in summary.lines():
            print(line)
    return EXIT_PASS if summary.passed else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indcert",
        description=(
            "Mechanically verify homotopy-preserving reductions of "
            "independence complexes of grid-like graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a family graph as JSON")
    p.add_argument("family", choices=FAMILY_TAGS)
    p.add_argument("m", type=int, help="m (or n for single-parameter families)")
    p.add_argument("n", type=int, nargs="?", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("chi", help="reduced Euler characteristic of I(G)")
    p.add_argument("graph")
    p.add_argument(
        "--method", choices=("enumerate", "recursive"), default="recursive",
        help="recursive: the production frontier DP (the name is historical); "
             "enumerate: the signed sum over all independent sets, within --budget",
    )
    p.add_argument("--budget", type=int, default=euler.DEFAULT_FACE_BUDGET)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("betti", help="reduced Betti numbers of I(G) over GF(p)")
    p.add_argument("graph")
    p.add_argument("--p", type=int, default=2, help="a prime")
    p.add_argument("--budget", type=int, default=euler.DEFAULT_FACE_BUDGET,
                   help="refuse (exit 3) when I(G) has more faces than this, "
                        "the empty face counted; the faces are counted, not built")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("complex", help="dump the faces of I(G)")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=euler.DEFAULT_FACE_BUDGET)
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("replay", help="replay a certificate file")
    p.add_argument("certificate")
    p.add_argument("--check", choices=moves.CHECK_LEVELS, default="chi",
                   help="betti: also the GF(2) Betti profile, where --budget allows")
    p.add_argument("--budget", type=int, default=euler.DEFAULT_FACE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "make-cert",
        help="build a patch replacement and its reduction certificate",
    )
    p.add_argument("rule", choices=("thm1", "thm2", "thm3"))
    p.add_argument("graph")
    p.add_argument("--patch", nargs="+", required=True,
                   help="patch labels (2 for thm1, 4 for thm2, 6 for thm3)")
    p.add_argument("--relaxed", action="store_true",
                   help="thm2 only: allow the a-side vertical to be absent")
    p.set_defaults(func=_cmd_make_cert)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("what", choices=("corollaries", "appendix", "all"))
    p.add_argument("--config", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify, what="selftest", config=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (GraphError, euler.FaceBudgetExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: the input is too deeply nested", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
