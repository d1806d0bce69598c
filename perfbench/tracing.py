"""In-memory span tracer for the traced benchmark pass.

The tracer replaces public functions at the module attributes the
package looks them up through, records one span per call (name, start,
end, parent, array elements, whether the call raised) and restores the
originals afterwards.  Nothing in the package is edited: the wrappers
live only in the benchmark process and do not cross into pool workers.
"""
from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time

import numpy as np

# (module, attribute, span name, counts array elements)
WRAPPED = (
    ("scipy.special", "jv", "amos.jv", True),
    ("scipy.special", "hankel1", "amos.hankel1", True),
    ("qsabine.disk", "jv", "amos.jv", True),
    ("qsabine.disk", "hankel1", "amos.hankel1", True),
    ("qsabine.disk", "bessel_quad", "specfun.bessel_quad", False),
    ("qsabine.disk", "newton_refine", "disk.newton_refine", False),
    ("qsabine.cli", "scan", "disk.scan", False),
    ("qsabine.billiards", "billiard_step", "billiards.billiard_step", False),
    ("qsabine.sabine", "orbit", "sabine.orbit", False),
    ("qsabine.sabine", "log_reflectivity", "reflectivity.log_reflectivity", False),
)

# Span fields, kept as flat lists for a small per-call cost.
NAME, START, END, PARENT, ELEMS, RAISED = range(6)


class Tracer:
    """Collects spans; ``installed()`` swaps the wrappers in and out."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.last_scan = None  # return value of the last wrapped scan call

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, e.g. one band or one CLI call."""
        record = self._open(name)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count_elems: bool):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            record[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = time.perf_counter()
                self._stack.pop()
            if count_elems:
                record[ELEMS] = int(np.size(out))
            elif name == "disk.scan":
                self.last_scan = out
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, count_elems in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count_elems))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- reductions ---------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def raised(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name and s[RAISED])

    def total_s(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def elems(self, name: str) -> int:
        return sum(s[ELEMS] for s in self.spans if s[NAME] == name)

    def excluding(self, outer: set, inner: set) -> float:
        """Time in ``outer`` spans not covered by their nearest ``inner`` spans.

        An inner span is subtracted from the outer span it belongs to
        only when no other inner span lies between them, so nested inner
        spans are not subtracted twice.
        """
        total = sum(s[END] - s[START] for s in self.spans if s[NAME] in outer)
        stop = outer | inner
        for s in self.spans:
            if s[NAME] not in inner:
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] not in stop:
                p = self.spans[p][PARENT]
            if p >= 0 and self.spans[p][NAME] in outer:
                total -= s[END] - s[START]
        return total

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0,
                    "end": s[END] - t0, "parent": s[PARENT],
                    "elems": s[ELEMS], "raised": s[RAISED],
                }) + "\n")


def _per_call_us(total_s: float, calls: int) -> float:
    return 1e6 * total_s / calls if calls else 0.0


def layer_metrics(tracer: Tracer, outcome) -> dict:
    """Per-layer figures of one traced pass: counts first, then times.

    ``disk.pool.efficiency`` and ``trace.overhead_s`` need untraced
    passes too, so the caller adds them.
    """
    amos = [s for s in tracer.spans if s[NAME] in ("amos.jv", "amos.hankel1")]
    roots = outcome.roots if outcome.roots is not None else tracer.last_scan
    bands = [d for d in outcome.detail.values() if isinstance(d, dict) and "grid_points" in d]
    newton_calls = tracer.calls("disk.newton_refine")
    disk_roots = outcome.results if "csv_sha256" in outcome.detail else 0
    step_calls = tracer.calls("billiards.billiard_step")
    step_s = tracer.total_s("billiards.billiard_step")
    quad_calls = tracer.calls("specfun.bessel_quad")
    return {
        "specfun.bessel_quad.calls": quad_calls,
        "amos.jv.elems": tracer.elems("amos.jv"),
        "amos.hankel1.elems": tracer.elems("amos.hankel1"),
        "amos.scalar_elems": sum(s[ELEMS] for s in amos if s[ELEMS] == 1),
        "amos.array_elems": sum(s[ELEMS] for s in amos if s[ELEMS] > 1),
        "disk.newton_refine.calls": newton_calls,
        "disk.newton_refine.failed": tracer.raised("disk.newton_refine"),
        "disk.roots": disk_roots,
        "disk.unguarded": sum(1 for r in roots if not r.guarded) if roots else 0,
        "billiards.billiard_step.calls": step_calls,
        "reflectivity.log_reflectivity.calls": tracer.calls("reflectivity.log_reflectivity"),
        "sabine.orbit.calls": tracer.calls("sabine.orbit"),
        "sabine.grid_points": sum(b["grid_points"] for b in bands),
        "sabine.refinements": sum(b["refinements"] for b in bands),
        "disk.newton.useful_ratio": disk_roots / newton_calls if newton_calls else 0.0,
        "specfun.bessel_quad.us_per_call": _per_call_us(
            tracer.total_s("specfun.bessel_quad"), quad_calls),
        "amos.s": sum(s[END] - s[START] for s in amos),
        "disk.newton_refine.s": tracer.total_s("disk.newton_refine"),
        "disk.scan.self_s": tracer.excluding({"disk.scan"}, {"disk.newton_refine"}),
        "billiards.billiard_step.us_per_call": _per_call_us(step_s, step_calls),
        "billiards.billiard_step.s": step_s,
        "reflectivity.log_reflectivity.s": tracer.total_s("reflectivity.log_reflectivity"),
        "sabine.band_s.disk": tracer.total_s("sabine.band.disk"),
        "sabine.band_s.ellipse": tracer.total_s("sabine.band.ellipse"),
        "sabine.self_s": tracer.excluding(
            {"sabine.band.disk", "sabine.band.ellipse"},
            {"sabine.orbit", "reflectivity.log_reflectivity"}),
        "cli.overhead_s": tracer.excluding({"cli.run"}, {"disk.scan"}),
    }
