"""Workload inputs, one measured pass, and the output checks.

Workloads (why each was chosen is recorded in BENCHMARK.json):

  bands              sabine_bounds on the disk and on a 1.5 x 1 ellipse,
                     transparent obstacle c=2, alpha=1: billiards, reflectivity
                     and sabine layers, no Bessel calls.
  scan-transparent   ``qsabine resonances`` on its default configuration
                     through qsabine.cli.run: cli, disk and specfun layers,
                     serial.
  scan-damping-pool  scan(DampingDisk(2.0), ...) with a process pool: the disk
                     layer on a J-only secular function, and the only pool path.

Seed 0 runs exactly these configurations and checks them against
references.json, recorded at the commit that added the benchmark.  Any
other seed shifts the Re window by an offset in [0, pi) and scales the
ellipse's long semi-axis by a factor in [0.99, 1.01]; those runs are
checked by the certificates alone (no incomplete cell, lower <= upper < 0)
and report the CSV hash so two commits can be compared.

An operation is one band or one scan mode.  It fails when it raises,
misses its reference, or carries an IncompleteScanWarning.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import resource
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from qsabine import (
    ConvexDomain,
    DampingDisk,
    IncompleteScanWarning,
    TransparentObstacle,
    sabine_bounds,
    scan,
    write_resonance_csv,
)
from qsabine import cli

DEFAULT_SEED = 0
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
RESULTS = HERE / "results"
BAND_TOL = 1e-12

RE_WINDOW = (200.0, 300.0)
IM_FLOOR = -3.0
N_MAX = 360
TINY_N_MAX = 20


@dataclass(frozen=True)
class Inputs:
    """Everything a pass needs, derived from (workload, seed, workers, tiny)."""

    workload: str
    seed: int
    workers: int
    tiny: bool
    re_offset: float
    ellipse_a: float

    @classmethod
    def make(cls, workload: str, seed: int, workers: int, tiny: bool) -> "Inputs":
        if workload not in BODIES:
            raise ValueError(f"unknown workload {workload!r}")
        if seed == DEFAULT_SEED:
            offset, a = 0.0, 1.5
        else:
            rng = random.Random(seed)
            offset = math.pi * rng.random()
            a = 1.5 * (0.99 + 0.02 * rng.random())
        return cls(workload, seed, workers, tiny, offset, a)

    @property
    def referenced(self) -> bool:
        return self.seed == DEFAULT_SEED and not self.tiny

    @property
    def re_window(self):
        return (RE_WINDOW[0] + self.re_offset, RE_WINDOW[1] + self.re_offset)

    @property
    def n_max(self) -> int:
        return TINY_N_MAX if self.tiny else N_MAX

    def pool_workers(self, serial: bool) -> int:
        """Workers the pass hands to scan: only the pool workload uses any."""
        if self.workload != "scan-damping-pool" or serial:
            return 0
        return self.workers


def build(inp: Inputs):
    """The workload's domains and problems (part of the set-up time)."""
    if inp.workload == "bands":
        model = TransparentObstacle(2.0, 1.0)
        if inp.tiny:
            return [("disk", ConvexDomain.disk(), model, {"n_max": 2, "xi_points": 5})]
        return [
            ("disk", ConvexDomain.disk(), model, {}),
            ("ellipse", ConvexDomain.ellipse(inp.ellipse_a, 1.0), model, {}),
        ]
    if inp.workload == "scan-transparent":
        return cli.RunConfig(
            command="resonances", re_window=inp.re_window, im_floor=IM_FLOOR,
            n_range=(0, inp.n_max),
        )
    return DampingDisk(2.0)


# ---------------------------------------------------------------------------
# one pass


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    results: int
    ops: dict          # op id -> failure reason, or None when it passed
    detail: dict       # bands: endpoints; scans: hashes and counts
    roots: list = None  # Resonance objects when the pass has them


def _usage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def run_pass(inp: Inputs, built, refs, *, serial: bool = False, tracer=None) -> Outcome:
    """One timed pass over the workload, then its check against ``refs``.

    ``refs`` is the workload's entry of references.json, or None to check
    the certificates alone.
    """
    span = tracer.span if tracer is not None else _no_span
    cpu0, _ = _usage()
    t0 = time.perf_counter()
    raw = BODIES[inp.workload](inp, built, serial, span)
    wall = time.perf_counter() - t0
    cpu1, rss = _usage()
    results, ops, detail = _check(inp, raw, refs)
    return Outcome(wall, cpu1 - cpu0, rss, results, ops, detail, raw.get("roots"))


def _no_span(name):
    return contextlib.nullcontext()


def _bands(inp, built, serial, span):
    out = {}
    for name, domain, model, kwargs in built:
        try:
            with span(f"sabine.band.{name}"):
                out[name] = sabine_bounds(domain, model, **kwargs)
        except Exception as err:  # a failed band is counted, not fatal
            out[name] = err
    return out


def _scan_cli(inp, built, serial, span):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"scan-{os.getpid()}.csv"
    config = dataclasses.replace(built, out=str(path))
    err = io.StringIO()
    try:
        with span("cli.run"), contextlib.redirect_stderr(err):
            status = cli.run(config)
        text = path.read_text(encoding="utf-8") if path.exists() else ""
    except Exception as exc:  # counted against every mode of the pass
        return {"csv": "", "incomplete": set(), "error": repr(exc), "roots": None}
    finally:
        for p in (path, Path(str(path) + ".manifest.json")):
            p.unlink(missing_ok=True)
    incomplete = {int(n) for n in re.findall(r"incomplete: mode n=(\d+)", err.getvalue())}
    error = None if status in (0, 3) else f"exit status {status}: {err.getvalue().strip()}"
    return {"csv": text, "incomplete": incomplete, "error": error, "roots": None}


def _scan_direct(inp, built, serial, span):
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IncompleteScanWarning)
            with span("disk.scan"):
                roots = scan(built, inp.re_window, IM_FLOOR, range(0, inp.n_max + 1),
                             workers=inp.pool_workers(serial))
    except Exception as err:  # counted against every mode of the pass
        return {"csv": "", "incomplete": set(), "error": repr(err), "roots": None}
    buf = io.StringIO()
    write_resonance_csv(roots, buf)
    incomplete = {w.message.n for w in caught if isinstance(w.message, IncompleteScanWarning)}
    return {"csv": buf.getvalue(), "incomplete": incomplete, "error": None, "roots": roots}


BODIES = {"bands": _bands, "scan-transparent": _scan_cli, "scan-damping-pool": _scan_direct}


# ---------------------------------------------------------------------------
# checks


def references(inp: Inputs):
    """The workload's recorded references, or None off the default configuration."""
    if not inp.referenced:
        return None
    return json.loads(REFERENCES.read_text(encoding="utf-8"))[inp.workload]


def mode_digests(csv_text: str) -> dict:
    """Per-mode digest of the CSV rows, in file order."""
    rows: dict = {}
    for line in csv_text.splitlines()[1:]:
        rows.setdefault(int(line.split(",", 2)[1]), []).append(line)
    return {str(n): hashlib.sha256("\n".join(r).encode()).hexdigest()[:16]
            for n, r in sorted(rows.items())}


def _check(inp: Inputs, raw, ref):
    """(results, {op: failure or None}, detail) of one pass's output."""
    if inp.workload == "bands":
        ops, detail = {}, {}
        for name, band in raw.items():
            if isinstance(band, Exception):
                ops[name] = repr(band)
                continue
            detail[name] = {"lower": band.lower, "upper": band.upper,
                            "grid_points": band.xi_points * band.s_points,
                            "refinements": band.refinements}
            if not band.lower <= band.upper < 0.0:
                ops[name] = f"certificate: need lower <= upper < 0, got {band.lower}, {band.upper}"
            elif ref is not None and (abs(band.lower - ref[name]["lower"]) > BAND_TOL
                                      or abs(band.upper - ref[name]["upper"]) > BAND_TOL):
                ops[name] = f"endpoints {band.lower!r}, {band.upper!r} miss the reference"
            else:
                ops[name] = None
        return sum(why is None for why in ops.values()), ops, detail

    modes = [str(n) for n in range(inp.n_max + 1)]
    if raw["error"] is not None:
        return 0, dict.fromkeys(modes, raw["error"]), {"error": raw["error"]}
    csv_text = raw["csv"]
    digests = mode_digests(csv_text)
    ops = {}
    for n in modes:
        if int(n) in raw["incomplete"]:
            ops[n] = "IncompleteScanWarning"
        elif ref is not None and digests.get(n) != ref["mode_digests"].get(n):
            ops[n] = "rows differ from the reference"
        else:
            ops[n] = None
    roots = csv_text.count("\n") - 1
    detail = {"csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(), "roots": roots}
    if ref is not None:
        detail["reference_match"] = (detail["csv_sha256"] == ref["csv_sha256"]
                                     and roots == ref["roots"])
    return roots, ops, detail

