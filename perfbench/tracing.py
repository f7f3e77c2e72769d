"""Outside-in tracing of trispin's public functions.

Each traced function is wrapped by rebinding every attribute, in every
loaded ``trispin`` module, that *is* the original function object.  Calls
made between modules (``cli`` -> ``localizable``) and inside one module
(``optimize_plan`` -> ``branch_average``) therefore both go through the
wrapper, wherever the calling code lives.  Spans are kept in memory and
reduced to per-function statistics when the pass ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

#: Functions wrapped in a traced pass, as ``<module>.<function>``.
TRACED = (
    "spin_core.ground_state",
    "spin_core.lowest_eigenvalues",
    "spin_core.dense_spectrum",
    "spin_core.spectral_gap",
    "spin_core.expectation",
    "localizable.branch_average",
    "localizable.optimize_plan",
    "localizable.entanglement_length",
    "free_fermion.czz_analytic",
    "free_fermion.correlation_length",
    "correlations.survey",
    "correlations.two_point_connected",
    "bose_hubbard.validate_perturbation",
)
#: Span the benchmark opens around ``cli.main(["figure2", ...])``.
FIGURE2_SPAN = "cli.figure2"
MODULES = ("spin_core", "localizable", "free_fermion", "correlations", "bose_hubbard", "cli")
STATS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "errors": "count"}


def _branch_counts(args, kwargs, result) -> dict:
    state = args[0] if args else kwargs["state"]
    return {"branches_kept": result.branch_count, "branches_total": 2 ** (state.n_sites - 2)}


#: Per-function counters read from arguments and results.
OBSERVERS = {"localizable.branch_average": _branch_counts}


class Tracer:
    """Collects spans (name, start, end, parent index, raised) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, False])
        self._stack.append(idx)
        try:
            yield
        except BaseException:
            self.spans[idx][4] = True
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                for key, val in observe(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + val
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every traced function wherever a trispin module holds it."""
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"trispin.{module}"), attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "trispin" and not mod_name.startswith("trispin."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._rebound):
            setattr(mod, key, original)
        self._rebound.clear()

    def stats(self) -> dict[str, dict[str, float]]:
        """calls, busy_s, self_s, p50_ms and errors per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls are serial, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_name: dict[str, dict] = {}
        for idx, (name, start, end, _, raised) in enumerate(self.spans):
            rec = per_name.setdefault(name, {"durations": [], "self_s": 0.0, "errors": 0})
            rec["durations"].append(end - start)
            rec["self_s"] += end - start - child_time[idx]
            rec["errors"] += int(raised)
        return {
            name: {
                "calls": len(rec["durations"]),
                "busy_s": sum(rec["durations"]),
                "self_s": rec["self_s"],
                "p50_ms": 1e3 * statistics.median(rec["durations"]),
                "errors": rec["errors"],
            }
            for name, rec in per_name.items()
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, raised in self.spans:
                fh.write(json.dumps([name, start, end, parent, raised]) + "\n")
