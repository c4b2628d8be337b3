"""Spans around calls into mahlerzeta's layers, recorded from outside the package.

The benchmark does not change the package.  ``Tracer.install`` replaces each
traced function with a wrapper, both on the module that defines it and on
every ``mahlerzeta`` module (or class) that bound the same object with
``from ... import``, so calls through any name are recorded.  Spans stay in
memory and are written as JSON lines by ``Tracer.write``.

``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional

# (module, attribute, span name, how to annotate the result)
_FUNCTIONS = (
    ("mahlerzeta.formulas", "mahler_measure", "exact.mahler_measure", None),
    ("mahlerzeta.exact", "elementary_symmetric", "exact.elementary_symmetric", None),
    ("mahlerzeta.exact", "bernoulli", "exact.bernoulli", None),
    ("mahlerzeta.values", "combination_value", "constants.combination_value", None),
    ("mahlerzeta.values", "l3_ii_value", "constants.l3_ii", None),
    ("mahlerzeta.values", "multiple_polylog", "constants.multiple_polylog", None),
    ("mahlerzeta.values", "zeta", "constants.zeta", None),
    ("mahlerzeta.values", "dirichlet_l_chi4", "constants.lchi4", None),
    ("mahlerzeta.oracle", "torus_qmc", "oracle.torus_qmc", "evaluations"),
    ("mahlerzeta.oracle", "reduced_integral", "oracle.reduced_integral", "evaluations"),
)

# ConstantStore methods: (attribute, span name, how to annotate the result)
_STORE_METHODS = (
    ("__init__", "store.load", None),
    ("get", "store.get", "hit"),
    ("save", "store.save", None),
)


def _annotate(kind: Optional[str], result) -> Optional[dict]:
    if kind == "evaluations":
        return {"evaluations": int(result.evaluations)}
    if kind == "hit":
        return {"hit": result is not None}
    return None


class Tracer:
    """Collects ``[id, name, start, end, parent, request, attrs]`` records."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request = 0
        self._stack: List[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured by the caller."""
        self.spans.append([len(self.spans), name, start, end, None, self.request, None])

    def call(self, name: str, fn: Callable, *args, annotate: Optional[str] = None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self.request, None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[3] = time.perf_counter()
        span[6] = _annotate(annotate, result)
        return result

    def _wrap(self, name: str, fn: Callable, annotate: Optional[str]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, annotate=annotate, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced function under each name it is bound to."""
        import mahlerzeta.store

        packages = [m for name, m in sys.modules.items()
                    if m is not None and (name == "mahlerzeta" or name.startswith("mahlerzeta."))]
        for module_name, attribute, span_name, annotate in _FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            wrapped = self._wrap(span_name, original, annotate)
            for module in packages:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound_name, wrapped)
        store_class = mahlerzeta.store.ConstantStore
        for attribute, span_name, annotate in _STORE_METHODS:
            setattr(store_class, attribute,
                    self._wrap(span_name, getattr(store_class, attribute), annotate))

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request", "attrs")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def read_spans(path) -> List[dict]:
    with open(path) as lines:
        return [json.loads(line) for line in lines if line.strip()]


def _layer(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return "constants" if prefix == "store" else prefix


LAYERS = ("process", "exact", "constants", "oracle")


def layer_metrics(spans: Iterable[dict]) -> Dict[str, float]:
    """Per-layer totals over the spans of one traced pass.

    Times are inclusive sums over spans of one name; ``<layer>.self_s`` is
    the time spans of the layer spent outside their child spans.  Spans of
    different requests (and processes) never nest, so ids are unique per
    ``(request, id)``.
    """
    spans = list(spans)
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    child_time: Dict[tuple, float] = {}
    hits = misses = qmc_samples = quad_evaluations = 0
    for span in spans:
        duration = span["end"] - span["start"]
        total[span["name"]] = total.get(span["name"], 0.0) + duration
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        if span["parent"] is not None:
            key = (span["request"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + duration
        attrs = span["attrs"] or {}
        if span["name"] == "store.get":
            hits += attrs["hit"]
            misses += not attrs["hit"]
        elif span["name"] == "oracle.torus_qmc":
            qmc_samples += attrs["evaluations"]
        elif span["name"] == "oracle.reduced_integral":
            quad_evaluations += attrs["evaluations"]
    self_time = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        duration = span["end"] - span["start"]
        self_time[_layer(span["name"])] += duration - child_time.get((span["request"], span["id"]), 0.0)
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    n = lambda name: calls.get(name, 0)  # noqa: E731
    lookups = hits + misses
    metrics = {
        "process.import_s": t("process.import"),
        "process.cli_main_s": t("process.cli_main"),
        "exact.mahler_measure_s": t("exact.mahler_measure"),
        "exact.elementary_symmetric_s": t("exact.elementary_symmetric"),
        "exact.elementary_symmetric_calls": n("exact.elementary_symmetric"),
        "exact.elementary_symmetric_share": (t("exact.elementary_symmetric") / t("exact.mahler_measure")
                                             if calls.get("exact.mahler_measure") else 0.0),
        "exact.bernoulli_s": t("exact.bernoulli"),
        "constants.combination_value_s": t("constants.combination_value"),
        "constants.l3_ii_s": t("constants.l3_ii"),
        "constants.l3_ii_calls": n("constants.l3_ii"),
        "constants.multiple_polylog_s": t("constants.multiple_polylog"),
        "constants.multiple_polylog_calls": n("constants.multiple_polylog"),
        "constants.zeta_lchi4_s": t("constants.zeta") + t("constants.lchi4"),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "store.save_calls": n("store.save"),
        "store.save_s": t("store.save"),
        "store.load_s": t("store.load"),
        "oracle.torus_qmc_s": t("oracle.torus_qmc"),
        "oracle.qmc_samples_per_s": qmc_samples / t("oracle.torus_qmc") if qmc_samples else 0.0,
        "oracle.reduced_integral_s": t("oracle.reduced_integral"),
        "oracle.quad_evaluations": quad_evaluations,
    }
    for layer in LAYERS:
        metrics["%s.self_s" % layer] = self_time[layer]
    return metrics
