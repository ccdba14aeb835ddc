"""Span tracer for the traced run: times calls into each layer's public functions.

The program under test carries no spans of its own yet, so the benchmark
wraps each layer's public functions from the outside.  A wrapper replaces
the function at *every* binding a ``repro`` module holds -- the defining
module and each module that imported it by name (``from repro.cache import
disk_get`` leaves a second binding in the importer, and the importer calls
that one).  Function-local imports read the defining module at call time,
so they see the wrapper too.

Spans live in memory until the run ends.  Each span records the request
it belongs to, its own id, its parent span's id, its layer, the function
name and its start and end (``perf_counter_ns``).  A layer's self time is
the duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: layer name (the module it lives in) -> (module, function names) pairs.
LAYERS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "engine.homomorphism": (
        ("repro.engine.homomorphism",
         ("find_homomorphism", "has_homomorphism", "homomorphically_equivalent")),
    ),
    "core.implication": (
        ("repro.core.implication", ("implies", "equivalent", "implies_tgd", "cached_chase")),
    ),
    "core.glav_equivalence": (
        ("repro.core.glav_equivalence", ("is_equivalent_to_glav",)),
    ),
    "core.canonical": (
        ("repro.core.canonical",
         ("canonical_instances", "canonical_extension", "legal_canonical_instances")),
    ),
    "engine.chase": (
        ("repro.engine.chase",
         ("chase", "chase_st_tgds", "chase_so_tgd", "compile_clause_program",
          "run_clause_program", "run_clause_program_delta")),
    ),
    "export.sql": (
        ("repro.export.sql", ("execute_exchange",)),
    ),
    "engine.dispatch": (
        ("repro.engine.dispatch", ("choose_backend", "choose_core_backend")),
    ),
    "engine.columnar": (
        ("repro.engine.columnar",
         ("columnar_execute_exchange", "columnar_fixpoint_rounds")),
    ),
    "engine.sql_backend": (
        ("repro.engine.sql_backend",
         ("sql_execute_exchange", "sql_fixpoint_chase", "sql_chase_egds",
          "sql_core", "sql_core_supported")),
    ),
    "engine.core_instance": (
        ("repro.engine.core_instance", ("core", "is_core")),
    ),
    "core.fblock_analysis": (
        ("repro.core.fblock_analysis",
         ("decide_bounded_fblock_size", "fblock_threshold", "bounded_anchor_witness")),
    ),
    "engine.egd_chase": (
        ("repro.engine.egd_chase", ("chase_egds", "satisfies_egds")),
    ),
    "analysis.containment": (
        ("repro.analysis.containment", ("check_containment",)),
    ),
    "analysis": (
        ("repro.analysis.frontier", ("frontier_report",)),
        ("repro.analysis.cost", ("sweep_cost", "chase_budget")),
        ("repro.analysis.subsumption", ("trivially_implied",)),
    ),
    "logic.parser": (
        ("repro.logic.parser",
         ("parse_atom", "parse_tgd", "parse_nested_tgd", "parse_so_tgd",
          "parse_egd", "parse_instance")),
    ),
    "cache": (
        ("repro.cache", ("disk_get", "disk_put")),
    ),
}

#: The root span the benchmark opens around each request.
REQUEST = "request"


class Tracer:
    """Collects spans and per-request decisions while a request is open."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, str, int, int]] = []
        self.request: int | None = None
        self.stack: list[tuple[int, str]] = []
        self.next_id = 0
        self.events: Counter[str] = Counter()
        self.decisions: dict[int, list[dict[str, Any]]] = defaultdict(list)
        self._patched: list[tuple[object, str, object]] = []

    # -- request scope ---------------------------------------------------

    def begin(self, request_id: int) -> None:
        self.request = request_id
        self.next_id += 1
        self.stack = [(self.next_id, REQUEST)]
        self._root_start = time.perf_counter_ns()

    def end(self) -> None:
        end = time.perf_counter_ns()
        root, __ = self.stack[0]
        self.spans.append(
            (self.request, root, 0, REQUEST, REQUEST, self._root_start, end)
        )
        self.request = None
        self.stack = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        name = fn.__name__
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.request is None:
                return fn(*args, **kwargs)
            parent, parent_layer = tracer.stack[-1]
            tracer.next_id += 1
            span = tracer.next_id
            tracer.stack.append((span, layer))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append(
                    (tracer.request, span, parent, layer, name, start, end)
                )
            if observe is not None and parent_layer != layer:
                observe(tracer, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every ``repro`` binding of each layer function by a wrapper."""
        for layer, groups in LAYERS.items():
            for module_name, names in groups:
                module = importlib.import_module(module_name)
                for name in names:
                    original = getattr(module, name)
                    wrapper = self._wrap(layer, original)
                    for holder in _repro_modules():
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                setattr(holder, attr, wrapper)
                                self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    # -- aggregation -----------------------------------------------------

    def self_times_ns(self, requests: set[int]) -> dict[str, int]:
        """Self time per layer (``request`` is the benchmark's own glue)."""
        covered: Counter[int] = Counter()
        for request, __, parent, __, __, start, end in self.spans:
            if request in requests and parent:
                covered[parent] += end - start
        totals: Counter[str] = Counter()
        for request, span, __, layer, __, start, end in self.spans:
            if request in requests:
                totals[layer] += end - start - covered[span]
        return dict(totals)

    def total_ns(self, requests: set[int], name: str) -> int:
        """Summed duration of the spans of one function (no self-time split)."""
        return sum(
            end - start
            for request, __, __, __, fname, start, end in self.spans
            if request in requests and fname == name
        )


def _repro_modules() -> list[object]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _observe_hom(tracer: Tracer, result: Any) -> None:
    tracer.events["hom.calls"] += 1
    if result is not None and result is not False:
        tracer.events["hom.found"] += 1


def _observe_chase(tracer: Tracer, result: Any) -> None:
    tracer.events["chase.facts"] += len(result)


def _observe_parse(tracer: Tracer, result: Any) -> None:
    tracer.events["parse.calls"] += 1


def _decision(kind: str) -> Callable[[Tracer, Any], None]:
    def observe(tracer: Tracer, choice: Any) -> None:
        tracer.events[f"dispatch.{kind}.{choice.backend}"] += 1
        tier = choice.tier.value if choice.tier is not None else None
        tracer.decisions[tracer.request].append({
            "layer": kind, "backend": choice.backend, "reason": choice.reason,
            "tier": tier, "forced_budget": choice.forced_budget,
        })
    return observe


_OBSERVERS: dict[str, Callable[[Tracer, Any], None]] = {
    "find_homomorphism": _observe_hom,
    "has_homomorphism": _observe_hom,
    "homomorphically_equivalent": _observe_hom,
    "chase": _observe_chase,
    "chase_st_tgds": _observe_chase,
    "chase_so_tgd": _observe_chase,
    "run_clause_program": _observe_chase,
    "run_clause_program_delta": _observe_chase,
    **{name: _observe_parse for __, names in LAYERS["logic.parser"] for name in names},
    "choose_backend": _decision("chase"),
    "choose_core_backend": _decision("core"),
}
