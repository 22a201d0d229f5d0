"""Spans around the public entry points of each ergolab layer.

The tracer wraps the named functions from outside the library: every
``ergolab`` module namespace that holds a named function gets the wrapper in
its place, and for a class the wrapper replaces ``__post_init__``, so
construction through any path is counted.  Spans are kept in memory as
``(span index, start, end, parent)`` tuples and written out when the run
ends.  A span's self time is its duration minus the part of its interval
that its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable, Iterable

# Layer -> public entry points.  A class name stands for its constructor.
SPANS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "serialize": ("system_from_json", "law_from_json", "coupling_to_json", "canonical_dumps"),
    "systems": ("FiniteZdSystem", "invariant_factor"),
    "measure": (
        "Coupling",
        "relative_independence",
        "common_refinement",
        "support_pullback_partition",
        "relatively_independent_product",
    ),
    "averages": (
        "furstenberg_self_joining",
        "recurrence_certificate",
        "nonconventional_average",
        "van_der_corput_inequality",
        "self_joining_structure_report",
        "oblique_copy",
    ),
    "removal": ("search_counterexample", "check_hypotheses", "check_conclusion", "RemovalInstance"),
    "hales_jewett": (
        "max_line_free",
        "enumerate_subspaces",
        "strong_stationarity_check",
        "marginals",
        "build_correspondence",
        "subspace_forcing_check",
    ),
    "upsets": ("enumerate_upsets",),
}

SPAN_NAMES: tuple[str, ...] = tuple(f"{m}.{n}" for m, names in SPANS.items() for n in names)


def _tautology(args: tuple, kwargs: dict, result: Any) -> bool:
    """Some factor equals its subfactor, so the identity holds by the tower
    property."""
    factors = kwargs.get("factors", args[0] if args else ())
    subfactors = kwargs.get("subfactors", args[1] if len(args) > 1 else ())
    return any(f == s for f, s in zip(factors, subfactors))


# Ratio metric -> (span, predicate on one call).  The span's call count is
# the ratio's base.
RATIOS: dict[str, tuple[str, Callable[[tuple, dict, Any], bool]]] = {
    "measure.relative_independence.tautology_frac": ("measure.relative_independence", _tautology),
    "removal.check_hypotheses.pass_frac": (
        "removal.check_hypotheses",
        lambda a, k, r: bool(r.all_hold),
    ),
    "hales_jewett.max_line_free.exhaustive_frac": (
        "hales_jewett.max_line_free",
        lambda a, k, r: bool(r.exhaustive),
    ),
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int]] = []
        self.hits: dict[str, int] = {name: 0 for name in RATIOS}
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, span: int, ratios: list[tuple[str, Callable]]) -> Callable:
        spans, stack, hits = self.spans, self._stack, self.hits
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((span, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span, start, end, spans[idx][3])
            for name, pred in ratios:
                if pred(args, kwargs, result):
                    hits[name] += 1
            return result

        return traced

    def install(self, modules: dict[str, Any]) -> None:
        """Wrap every named entry point.  ``modules`` maps a layer name to its
        imported module; all loaded ``ergolab`` modules are rebound."""
        loaded = [m for name, m in sys.modules.items() if name == "ergolab" or name.startswith("ergolab.")]
        for span, qual in enumerate(SPAN_NAMES):
            layer, name = qual.split(".", 1)
            target = getattr(modules[layer], name)
            ratios = [(r, pred) for r, (s, pred) in RATIOS.items() if s == qual]
            if inspect.isclass(target):
                self._set(target, "__post_init__", self._wrap(target.__post_init__, span, ratios))
                continue
            wrapper = self._wrap(target, span, ratios)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._set(mod, attr, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        for name in self.hits:
            self.hits[name] = 0

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, self.hits)


def self_times(spans: Iterable[tuple[int, float, float, int]]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span itself."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(
    spans: list[tuple[int, float, float, int]], hits: dict[str, int]
) -> dict[str, float]:
    """Calls and self time per span and per layer, plus the ratio metrics
    (0 when their base count is 0)."""
    calls = [0] * len(SPAN_NAMES)
    self_s = [0.0] * len(SPAN_NAMES)
    for (span, _, _, _), own in zip(spans, self_times(spans)):
        calls[span] += 1
        self_s[span] += own
    out: dict[str, float] = {}
    layer_self: dict[str, float] = {layer: 0.0 for layer in SPANS}
    for i, qual in enumerate(SPAN_NAMES):
        out[f"{qual}.calls"] = calls[i]
        out[f"{qual}.self_s"] = self_s[i]
        layer_self[qual.split(".", 1)[0]] += self_s[i]
    for layer, total in layer_self.items():
        out[f"{layer}.self_s"] = total
    for name, (span, _) in RATIOS.items():
        base = calls[SPAN_NAMES.index(span)]
        out[name] = hits[name] / base if base else 0.0
    return out
