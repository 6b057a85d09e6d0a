"""In-process spans around the public functions of each seifinv layer.

``Tracer.installed()`` replaces every public function of the layer
modules by a wrapper that records a span, in every seifinv module that
looks the name up (``hurwitz_zeta`` in both numkernel and eta,
``froyshov_F`` in both swfloer and eta, and so on), and puts the
originals back on exit.  Spans stay in memory; ``layer_metrics`` derives
per-layer self time and work counts from them, and ``write`` writes them
out.

A span is [layer, name, parent index, start, end, work].  ``work`` is
read from the arguments or the result of the few functions whose size
the per-layer metrics need; it is None elsewhere.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence

LAYERS = ("numkernel", "dedekind", "eta", "swfloer", "lattice", "cli")


def _triple_if_table_built(args, result):
    # poincare_polynomial builds no level table when Delta is empty
    return None if getattr(result, "is_zero", lambda: False)() else tuple(args[-3:])


# (layer, name) -> work(args, result)
WORK: Dict[tuple, Callable] = {
    ("dedekind", "dr_sum_direct"): lambda args, result: args[1],
    ("dedekind", "corner_sum"): lambda args, result: args[0],
    ("eta", "eta_zero_flat"): lambda args, result: sum(args[0].fibration.alphas) if args[0].rho else 0,
    ("eta", "eta_series"): lambda args, result: result,
    ("swfloer", "poincare_polynomial"): _triple_if_table_built,
    ("swfloer", "grading_plus"): _triple_if_table_built,
    ("swfloer", "enumerate_delta"): lambda args, result: len(result),
    ("lattice", "theta_invariant"): lambda args, result: args[0].rank,
    ("lattice", "hnk_split_diagonalize"): lambda args, result: result[0],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack, work = self.spans, self._stack, WORK.get((layer, name))

        def traced(*args, **kwargs):
            rec = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"seifinv.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
        patched = []
        for mod in [m for n, m in sys.modules.items() if n == "seifinv" or n.startswith("seifinv.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])
                    patched.append((mod, attr, obj))
        try:
            yield
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def write(self, fh) -> None:
        """One JSON line per span."""
        for layer, name, parent, t0, t1, work in self.spans:
            if not isinstance(work, (int, tuple, type(None))):
                work = str(work)
            fh.write(json.dumps([layer, name, parent, t0, t1, work]) + "\n")


UNITS = {
    "dedekind.self_s": "s", "dedekind.calls": "count", "dedekind.fast_calls": "count",
    "dedekind.linear_terms": "count",
    "eta.self_s": "s", "eta.calls": "count", "eta.linear_terms_per_alpha": "ratio",
    "eta.eta_zero_per_command": "ratio",
    "numkernel.self_s": "s", "numkernel.hurwitz_calls": "count",
    "numkernel.hurwitz_per_series": "ratio",
    "swfloer.self_s": "s", "swfloer.box_points": "count", "swfloer.delta_points": "count",
    "swfloer.level_tables_per_triple": "ratio",
    "lattice.self_s": "s", "lattice.theta_s": "s", "lattice.split_s": "s",
    "lattice.rank_sum": "count", "lattice.splits": "count",
    "cli.self_s": "s", "trace.overhead_s": "s", "trace.pass_s": "s",
}


def layer_metrics(spans: Sequence[list], commands: int, alpha_sum: int) -> Dict[str, float]:
    """Per-layer metrics of one pass from its spans.

    Self time is a span's duration minus the durations of its direct
    children; summed over a layer it is the time spent in that layer's
    own code.  ``commands`` and ``alpha_sum`` are the pass's number of
    CLI commands and the sum of the moduli they name.
    """
    child = [0.0] * len(spans)
    for layer, name, parent, t0, t1, work in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name: Dict[str, List[list]] = {}
    for i, span in enumerate(spans):
        layer, name, _, t0, t1, _ = span
        self_s[layer] += (t1 - t0) - child[i]
        calls[layer] += 1
        by_name.setdefault(name, []).append(span)

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def work(name: str) -> int:
        # a call that raised recorded no work
        return sum(s[5] for s in by_name.get(name, ()) if s[5] is not None)

    def duration(name: str) -> float:
        return sum(s[4] - s[3] for s in by_name.get(name, ()))

    linear_terms = work("dr_sum_direct") + work("corner_sum")
    tables = [s for n in ("poincare_polynomial", "grading_plus") for s in by_name.get(n, ()) if s[5]]
    triples = {s[5] for s in tables}
    return {
        "dedekind.self_s": self_s["dedekind"],
        "dedekind.calls": calls["dedekind"],
        "dedekind.fast_calls": count("dr_sum_fast"),
        "dedekind.linear_terms": linear_terms,
        "eta.self_s": self_s["eta"],
        "eta.calls": calls["eta"],
        "eta.linear_terms_per_alpha": (linear_terms + work("eta_zero_flat")) / alpha_sum,
        "eta.eta_zero_per_command": (count("eta_zero_flat") + count("eta_zero_pullback")) / commands,
        "numkernel.self_s": self_s["numkernel"],
        "numkernel.hurwitz_calls": count("hurwitz_zeta"),
        "numkernel.hurwitz_per_series": count("hurwitz_zeta") / max(1, count("eta_series")),
        "swfloer.self_s": self_s["swfloer"],
        "swfloer.box_points": sum(a * b * c for a, b, c in (s[5] for s in tables)),
        "swfloer.delta_points": work("enumerate_delta"),
        "swfloer.level_tables_per_triple": len(tables) / max(1, len(triples)),
        "lattice.self_s": self_s["lattice"],
        "lattice.theta_s": duration("theta_invariant"),
        "lattice.split_s": duration("hnk_split_diagonalize"),
        "lattice.rank_sum": work("theta_invariant"),
        "lattice.splits": work("hnk_split_diagonalize"),
        "cli.self_s": self_s["cli"],
    }


def series_results(spans: Sequence[list], start: int) -> Optional[tuple]:
    """(value, eps) of the last eta_series span at or after index start."""
    for layer, name, _, _, _, work in reversed(spans[start:]):
        if name == "eta_series":
            return work.value, work.eps
    return None
