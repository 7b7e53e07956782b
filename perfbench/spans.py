"""Layer spans for the traced run, installed from outside the program.

`Tracer.install` replaces module attributes of `indcert` with wrappers that
time each call and count its work; `uninstall` puts the originals back. A
wrapper sits on the attribute the caller actually looks up: `homology`
imports `collapse_core` by name, so `homology.collapse_core` is wrapped, not
`complexes.collapse_core`. A traced pass fails, rather than report zeros, when
an attribute to wrap is missing or a hook no longer fits the program.
`moves.check_step` is deliberately not wrapped: `verify._valid_steps` calls it
far too often for a span per call.

A span's self time is its duration minus the durations of the spans it
directly contains; a layer's time is the sum of its spans' self times.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

GRAPH_BUILDERS = (
    "grid", "cylinder", "moebius", "hex_cylinder", "moebius_hex_strip",
    "four_row_with_chord", "four_row_minus_corners", "generate_family",
    "make_graph",
)

# Per-layer metrics in the order they are reported, with their units.
LAYER_METRICS = {
    "graphs.build_s": "s",
    "graphs.build_calls": "count",
    "euler.chi_s": "s",
    "euler.chi_calls": "count",
    "euler.chi_vertices": "count",
    "complexes.enumerate_s": "s",
    "complexes.faces": "count",
    "complexes.enumerate_over_budget": "count",
    "complexes.enumerate_wasted_s": "s",
    "complexes.enumerate_useful_frac": "ratio",
    "complexes.collapse_s": "s",
    "complexes.collapse_in_faces": "count",
    "complexes.collapse_out_faces": "count",
    "complexes.collapse_keep_frac": "ratio",
    "homology.eliminate_s": "s",
    "homology.columns": "count",
    "homology.budget_refusals": "count",
    "moves.replay_s": "s",
    "moves.replay_steps": "count",
    "moves.replay_failures": "count",
    "complexes.oracle_s": "s",
    "complexes.oracle_pairs": "count",
    "certificates.replace_s": "s",
    "certificates.replace_calls": "count",
    "verify.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Layer name -> the metric that carries its summed self time.
LAYER_TIME = {
    "graphs": "graphs.build_s",
    "euler": "euler.chi_s",
    "enumerate": "complexes.enumerate_s",
    "collapse": "complexes.collapse_s",
    "homology": "homology.eliminate_s",
    "moves": "moves.replay_s",
    "oracle": "complexes.oracle_s",
    "certificates": "certificates.replace_s",
}


class _Frame:
    __slots__ = ("layer", "child_s", "reached")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_s = 0.0
        self.reached = None     # faces a nested collapse handed on


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.wasted_s = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from indcert import certificates, complexes, euler, graphs, homology, moves, verify

        # A builder is looked up in graphs and, where imported by name, in the
        # modules that import it.
        for name in GRAPH_BUILDERS:
            builder = getattr(graphs, name)
            for module in (graphs, verify, certificates, moves):
                if getattr(module, name, None) is builder:
                    self._wrap(module, name, "graphs", _on_graph)
        self._wrap(euler, "chi_reduced_recursive", "euler", _on_chi)
        self._wrap(euler, "chi_reduced_enumerate", "euler", _on_chi)
        self._wrap(complexes, "independence_complex", "enumerate", _on_enumerate)
        self._wrap(homology, "collapse_core", "collapse", _on_collapse)
        self._wrap(homology, "betti_profiles", "homology", _on_betti)
        self._wrap(moves, "replay", "moves", _on_replay)
        self._wrap(complexes, "collapse_oracle", "oracle", _on_oracle)
        self._wrap(certificates, "make_replacement", "certificates", _on_replace)

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def _wrap(self, module, name: str, layer: str, on_exit) -> None:
        fn = getattr(module, name)
        self._patched.append((module, name, fn))
        setattr(module, name, self._span(fn, layer, on_exit))

    def _span(self, fn, layer: str, on_exit):
        stack = self.stack
        self_s = self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            nested = bool(stack) and stack[-1].layer == layer
            frame = _Frame(layer)
            stack.append(frame)
            t0 = perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame.child_s
                if stack:
                    stack[-1].child_s += dt
                on_exit(self, frame, nested, args, kwargs, result, error, dt)

        return span

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything traced since construction, for a
        traced pass of `wall_s` seconds (overhead is filled in by the caller)."""
        c = self.counts
        out = {name: c.get(name, 0) for name, unit in LAYER_METRICS.items() if unit == "count"}
        for layer, metric in LAYER_TIME.items():
            out[metric] = self.self_s.get(layer, 0.0)
        out["complexes.enumerate_wasted_s"] = self.wasted_s
        out["verify.self_s"] = wall_s - sum(self.self_s.values())
        out["trace.overhead_frac"] = 0.0
        # An empty ratio reads 1: nothing was built in vain, nothing removed.
        built = c.get("complexes.faces_built", 0)
        out["complexes.enumerate_useful_frac"] = c.get("complexes.faces", 0) / built if built else 1.0
        fed = c.get("complexes.collapse_in_faces", 0)
        out["complexes.collapse_keep_frac"] = c.get("complexes.collapse_out_faces", 0) / fed if fed else 1.0
        return out


# -- per-layer hooks: (tracer, frame, nested, args, kwargs, result, error, dt)


def _on_graph(t, frame, nested, args, kwargs, result, error, dt):
    if not nested:
        t.counts["graphs.build_calls"] += 1


def _on_chi(t, frame, nested, args, kwargs, result, error, dt):
    t.counts["euler.chi_calls"] += 1
    t.counts["euler.chi_vertices"] += args[0].n_vertices()


def _on_enumerate(t, frame, nested, args, kwargs, result, error, dt):
    from indcert.euler import FaceBudgetExceeded

    if isinstance(error, FaceBudgetExceeded):
        t.counts["complexes.enumerate_over_budget"] += 1
        t.wasted_s += dt
        t.counts["complexes.faces_built"] += error.budget + 1
    elif result is not None:
        t.counts["complexes.faces"] += result.n_faces()
        t.counts["complexes.faces_built"] += result.n_faces()


def _on_collapse(t, frame, nested, args, kwargs, result, error, dt):
    if result is None:
        return
    t.counts["complexes.collapse_in_faces"] += len(args[0])
    t.counts["complexes.collapse_out_faces"] += len(result)
    if t.stack:
        t.stack[-1].reached = len(result)


def _on_betti(t, frame, nested, args, kwargs, result, error, dt):
    from indcert.homology import HomologyBudgetError

    if isinstance(error, HomologyBudgetError):
        t.counts["homology.budget_refusals"] += 1
    elif result is not None:
        k = args[0] if args else kwargs["k"]
        reached = frame.reached if frame.reached is not None else k.n_faces()
        t.counts["homology.columns"] += reached * len(result)


def _on_replay(t, frame, nested, args, kwargs, result, error, dt):
    if result is not None:
        t.counts["moves.replay_steps"] += len(result.steps)
        t.counts["moves.replay_failures"] += not result.passed


def _on_oracle(t, frame, nested, args, kwargs, result, error, dt):
    if result is not None:
        t.counts["complexes.oracle_pairs"] += result[1].matched_pairs


def _on_replace(t, frame, nested, args, kwargs, result, error, dt):
    t.counts["certificates.replace_calls"] += 1
