"""Command-line front end for the disk resonance laboratory.

Five commands share one flag surface:

  bounds      Sabine band of the configured reflectivity model (JSON)
  bands       near-glancing band predictions for the delta problem (JSON)
  resonances  scan the configured disk problem and dump the table (CSV)
  plot        scan (or load a dumped table) and render an SVG figure
  verify      run the acceptance suite and report per-criterion results

Every run writes deterministic artifacts for a fixed configuration:
CSV/JSON bytes depend only on the configuration, never on the worker
count, and each file is accompanied by a manifest recording the package
version, a hash of the resolved configuration, and the wall time.  SVG
output differs between runs only in its timestamp comment.

Exit codes: 0 success, 1 failed verification, 2 invalid configuration,
3 numerical trouble (no convergence or an incomplete scan cell),
4 I/O failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
import warnings
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import __version__, svg
from .billiards import ConvexDomain, PhasePoint
from .disk import (
    DampingDisk,
    DeltaDisk,
    IncompleteScanWarning,
    NoConvergenceError,
    RESONANCE_CSV_HEADER,
    TransparentDisk,
    scan,
    write_resonance_csv,
)
from .reflectivity import BoundaryDamping, DeltaPotential, TransparentObstacle
from .sabine import band_report, glancing_bands, sabine_bounds, sabine_quotient, wave_speed

__all__ = ["ConfigError", "RunConfig", "FigureSpec", "emit_figure", "run", "main"]

_COMMANDS = ("bounds", "resonances", "bands", "verify", "plot")
_FIGURES = ("circle", "bands")


@dataclasses.dataclass(frozen=True)
class _ProblemEntry:
    """Parameter fields of one problem, its disk class and its reflectivity
    model built from (params, Re window or None)."""

    fields: Tuple[str, ...]
    disk: type
    model: Callable


_PROBLEM_TABLE = {
    "transparent": _ProblemEntry(
        ("c", "alpha"), TransparentDisk,
        lambda p, window: TransparentObstacle(p["c"], p["alpha"])),
    # the semiclassical parameter is the inverse mid-window frequency
    "delta": _ProblemEntry(
        ("v0", "v_exponent"), DeltaDisk,
        lambda p, window: DeltaPotential(p["v0"], -p["v_exponent"],
                                         2.0 / sum(window) if window else 1.0)),
    "damping": _ProblemEntry(
        ("a",), DampingDisk,
        lambda p, window: BoundaryDamping(p["a"])),
}
_PROBLEMS = tuple(_PROBLEM_TABLE)


class ConfigError(ValueError):
    """Configuration rejected before any computation started."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, problem parameters, windows, outputs.

    Field defaults are the package defaults; a config file overrides
    them and explicit flags override the file.  ``validate`` constructs
    the target module's objects eagerly so that an invalid parameter is
    rejected here, naming the violated invariant, rather than mid-scan.
    """

    command: str
    problem: str = "transparent"
    c: float = 2.0
    alpha: float = 1.0
    a: float = 2.0
    v0: float = 1.0
    v_exponent: float = 0.0
    re_window: Tuple[float, float] = (200.0, 300.0)
    im_floor: float = -3.0
    n_range: Optional[Tuple[int, ...]] = None
    grid: int = 33
    nmax: int = 8
    fig: str = "circle"
    data: Optional[str] = None
    out: Optional[str] = None
    workers: int = 0

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.problem not in _PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r} (choose from {_PROBLEMS})")
        if self.fig not in _FIGURES:
            raise ConfigError(f"unknown figure layout {self.fig!r} (choose from {_FIGURES})")
        lo, hi = self.re_window
        if not (lo < hi):
            raise ConfigError("re window must satisfy A < B")
        if self.grid < 3:
            raise ConfigError("grid must be at least 3 points")
        if self.nmax < 1:
            raise ConfigError("nmax must be a positive orbit length")
        if self.workers < 0:
            raise ConfigError("workers must be nonnegative")
        if self.command == "plot" and self.fig == "bands" and self.problem != "delta":
            raise ConfigError("figure layout 'bands' needs --problem delta")
        if self.n_range is not None:
            lo_n, hi_n = self.n_range[0], self.n_range[1]
            step = self.n_range[2] if len(self.n_range) > 2 else 1
            if lo_n < 0 or hi_n < lo_n or step < 1:
                raise ConfigError("mode range must be 0 <= A <= B with positive step")
        try:
            self.disk_problem()
            self.reflectivity_model()
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def disk_problem(self):
        return _PROBLEM_TABLE[self.problem].disk(**self.params())

    def reflectivity_model(self):
        return _model_from_params(self.problem, self.params(), self.re_window)

    def modes(self) -> range:
        if self.n_range is not None:
            step = self.n_range[2] if len(self.n_range) > 2 else 1
            return range(self.n_range[0], self.n_range[1] + 1, step)
        cap = min(20000, int(math.ceil(1.2 * self.re_window[1])))
        return range(0, cap + 1)

    def params(self) -> dict:
        return {name: getattr(self, name) for name in _PROBLEM_TABLE[self.problem].fields}

    def config_hash(self) -> str:
        # Only computation-relevant fields: output path and worker count
        # never change the produced bytes.
        d = dataclasses.asdict(self)
        d.pop("out")
        d.pop("workers")
        d["n_range"] = list(self.modes()) if self.n_range is not None else None
        blob = json.dumps(d, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class FigureSpec:
    """One panel: axes, overlays, and the parameters behind the overlays.

    ``x_axis`` is "re", "tangent", or "log_re"; ``y_axis`` is "im" or
    "log_neg_im"; ``overlays`` draw analytic curves ("sabine_band",
    "decay_curve", "glancing_bands") computed from ``params`` -- the
    same resolved configuration that produced the scatter data, so a
    figure can never mix parameter sets.
    """

    x_axis: str
    y_axis: str
    overlays: Tuple[str, ...]
    problem: str
    params: dict

    _X = {"re": "Re lambda", "tangent": "n / Re lambda", "log_re": "Re lambda"}
    _Y = {"im": "Im lambda", "log_neg_im": "-Im lambda"}

    def __post_init__(self):
        if self.x_axis not in self._X:
            raise ValueError(f"unknown x axis {self.x_axis!r}")
        if self.y_axis not in self._Y:
            raise ValueError(f"unknown y axis {self.y_axis!r}")


def figure_specs(config: RunConfig) -> Tuple[FigureSpec, ...]:
    """Panel stack for the configured layout, one parameter set throughout."""
    prob, params = config.problem, config.params()
    if config.fig == "circle":
        top = FigureSpec("tangent", "im", ("decay_curve",), prob, params)
        bottom = FigureSpec("re", "im", ("sabine_band",), prob, params)
        return (top, bottom)
    return (FigureSpec("log_re", "log_neg_im", ("glancing_bands",), prob, params),)


def _model_from_params(problem: str, params: dict, re_window=None):
    return _PROBLEM_TABLE[problem].model(params, re_window)


def _decay_curve(problem: str, params: dict, tf_max: float):
    """(tangent frequency, quotient) samples of the one-bounce decay law."""
    domain = ConvexDomain.disk()
    model = _model_from_params(problem, params)
    speed = wave_speed(model)
    hi = min(tf_max, 0.999 / speed)
    tfs = np.linspace(0.0, hi, 160)
    ys = []
    for tf in tfs:
        q = sabine_quotient(domain, model, PhasePoint(0.0, speed * tf), 1)
        ys.append(q)
    keep = [(t, y) for t, y in zip(tfs, ys) if math.isfinite(y)]
    return [t for t, _ in keep], [y for _, y in keep]


def emit_figure(table: Sequence, specs) -> str:
    """Render a resonance table to a stacked-panel SVG document.

    ``table`` rows need ``n`` and ``lam`` attributes (scan results or
    rows loaded back from a dumped CSV).  ``specs`` is one FigureSpec or
    a sequence of them, one panel each, top to bottom.
    """
    rows = list(table)
    if not rows:
        raise ValueError("empty resonance table: nothing to plot")
    if isinstance(specs, FigureSpec):
        specs = (specs,)
    panels = []
    for spec in specs:
        re_vals = [r.lam.real for r in rows]
        if spec.x_axis == "tangent":
            xs = [r.n / r.lam.real for r in rows]
        else:
            xs = re_vals
        if spec.y_axis == "im":
            ys = [r.lam.imag for r in rows]
        else:
            ys = [-r.lam.imag for r in rows]
        log_x = spec.x_axis == "log_re"
        log_y = spec.y_axis == "log_neg_im"
        panel = svg.Panel(spec._X[spec.x_axis], spec._Y[spec.y_axis],
                          "log" if log_x else "linear",
                          "log" if log_y else "linear")
        panel.scatter(xs, ys)
        window = (min(re_vals), max(re_vals))
        for overlay in spec.overlays:
            if overlay == "sabine_band":
                band = sabine_bounds(ConvexDomain.disk(),
                                     _model_from_params(spec.problem, spec.params, window))
                for edge in (band.lower, band.upper):
                    if not math.isfinite(edge):
                        continue
                    y = -edge if log_y else edge
                    if log_y and y <= 0.0:
                        continue
                    panel.hline(y, color="#c53030")
            elif overlay == "decay_curve":
                cx, cy = _decay_curve(spec.problem, spec.params, max(xs) * 1.02)
                if log_y:
                    cx, cy = zip(*[(a, -b) for a, b in zip(cx, cy) if b < 0.0])
                panel.line(cx, cy, color="#c53030")
            elif overlay == "glancing_bands":
                if spec.problem != "delta":
                    raise ValueError("glancing band overlay needs the delta problem")
                model = DeltaPotential(spec.params["v0"], -spec.params["v_exponent"])
                gx = np.geomspace(window[0], window[1], 64)
                for b in glancing_bands(model, m_bands=3):
                    gy = np.array([-b.predicted_im_lambda(1.0 / x) for x in gx])
                    if log_y:
                        panel.line(gx, gy, color="#c53030", dash="5,4")
                    else:
                        panel.line(gx, -gy, color="#c53030", dash="5,4")
            else:
                raise ValueError(f"unknown overlay {overlay!r}")
        panels.append(panel)
    return svg.render(panels)


# ---------------------------------------------------------------------------
# argument and config-file parsing


def _parse_window(text: str) -> Tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _parse_mode_range(text: str) -> Tuple[int, ...]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expected A:B or A:B:S, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


_CONVERTERS = {
    "problem": str,
    "c": float,
    "alpha": float,
    "a": float,
    "v0": float,
    "v_exponent": float,
    "re_window": _parse_window,
    "im_floor": float,
    "n_range": _parse_mode_range,
    "grid": int,
    "nmax": int,
    "fig": str,
    "data": str,
    "out": str,
    "workers": int,
}


def _load_config_file(path: str) -> dict:
    """Flat KEY=VALUE lines; '#' starts a comment; keys match the flags."""
    values = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key == "re":
                key = "re_window"
            elif key == "n":
                key = "n_range"
            if key not in _CONVERTERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONVERTERS[key](value.strip())
            except (argparse.ArgumentTypeError, ValueError) as err:
                raise ConfigError(f"{path}:{lineno}: {err}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", choices=_PROBLEMS, default=None)
    common.add_argument("--c", type=float, default=None, help="interior wave speed")
    common.add_argument("--alpha", type=float, default=None, help="transmission coupling")
    common.add_argument("--a", type=float, default=None, help="damping strength")
    common.add_argument("--v0", type=float, default=None, help="delta amplitude")
    common.add_argument("--v-exponent", dest="v_exponent", type=float, default=None,
                        help="delta strength grows like v0 (Re lambda)^exponent")
    common.add_argument("--re", dest="re_window", type=_parse_window, default=None,
                        metavar="A:B", help="Re lambda window")
    common.add_argument("--im-floor", dest="im_floor", type=float, default=None)
    common.add_argument("--n", dest="n_range", type=_parse_mode_range, default=None,
                        metavar="A:B[:S]", help="mode range, inclusive")
    common.add_argument("--grid", type=int, default=None, help="band extremizer xi points")
    common.add_argument("--nmax", type=int, default=None, help="band extremizer orbit length")
    common.add_argument("--fig", choices=_FIGURES, default=None, help="figure layout")
    common.add_argument("--data", default=None, help="render a previously dumped CSV")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--workers", type=int, default=None)
    common.add_argument("--config", default=None, help="flat KEY=VALUE file; flags win")

    parser = argparse.ArgumentParser(
        prog="qsabine",
        description="Sabine-law bands and exact disk scattering resonances.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bounds", parents=[common],
                   help="Sabine band of the configured model (JSON)")
    sub.add_parser("bands", parents=[common],
                   help="glancing band predictions, delta problem (JSON)")
    sub.add_parser("resonances", parents=[common],
                   help="scan the disk problem and dump resonances (CSV)")
    sub.add_parser("plot", parents=[common], help="render an SVG figure")
    sub.add_parser("verify", parents=[common], help="run the acceptance suite")
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    """argv -> resolved RunConfig (defaults < config file < flags)."""
    ns = _build_parser().parse_args(argv)
    values = {}
    if ns.config:
        values.update(_load_config_file(ns.config))
    for key in _CONVERTERS:
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return RunConfig(command=ns.command, **values)


# ---------------------------------------------------------------------------
# command bodies


class _Row:
    __slots__ = ("n", "lam")

    def __init__(self, n: int, lam: complex):
        self.n = n
        self.lam = lam


def _read_resonance_csv(path: str):
    import csv

    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(RESONANCE_CSV_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ConfigError(f"{path}: missing columns {sorted(missing)}")
        for rec in reader:
            rows.append(_Row(int(rec["n"]),
                             complex(float(rec["re_lambda"]), float(rec["im_lambda"]))))
    return rows


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_manifest(config: RunConfig, elapsed: float) -> None:
    manifest = {
        "version": __version__,
        "config_hash": config.config_hash(),
        "wall_time_s": round(elapsed, 3),
    }
    line = json.dumps(manifest, sort_keys=True)
    if config.out is None:
        print(line, file=sys.stderr)
    else:
        with open(config.out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _scan_with_completeness(config: RunConfig):
    problem = config.disk_problem()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IncompleteScanWarning)
        results = scan(problem, config.re_window, config.im_floor, config.modes(),
                       workers=config.workers)
    incomplete = [w.message for w in caught
                  if isinstance(w.message, IncompleteScanWarning)]
    return results, incomplete


def _cmd_bounds(config: RunConfig) -> int:
    band = sabine_bounds(ConvexDomain.disk(), config.reflectivity_model(),
                         n_max=config.nmax, xi_points=config.grid)
    report = band_report(config.problem, config.params(), band)
    _write_text(config.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_bands(config: RunConfig) -> int:
    if config.problem != "delta":
        raise ConfigError("glancing band prediction needs --problem delta")
    model = config.reflectivity_model()
    glancing = glancing_bands(model, m_bands=3)
    band = sabine_bounds(ConvexDomain.disk(), model,
                         n_max=config.nmax, xi_points=config.grid)
    report = band_report(config.problem, config.params(), band, glancing)
    _write_text(config.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_resonances(config: RunConfig) -> int:
    results, incomplete = _scan_with_completeness(config)
    import io

    buf = io.StringIO()
    write_resonance_csv(results, buf)
    _write_text(config.out, buf.getvalue())
    for warning in incomplete:
        print(f"incomplete: {warning}", file=sys.stderr)
    return 3 if incomplete else 0


def _cmd_plot(config: RunConfig) -> int:
    if config.data is not None:
        rows, incomplete = _read_resonance_csv(config.data), []
    else:
        rows, incomplete = _scan_with_completeness(config)
    text = emit_figure(rows, figure_specs(config))
    _write_text(config.out, text)
    for warning in incomplete:
        print(f"incomplete: {warning}", file=sys.stderr)
    return 3 if incomplete else 0


def _cmd_verify(config: RunConfig) -> int:
    from .verify import run_all

    results = run_all(workers=config.workers)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name}: {r.measured}  ({r.elapsed:.1f}s)")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if config.out is not None:
        payload = [dataclasses.asdict(r) for r in results]
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0 if all(r.passed for r in results) else 1


def run(config: RunConfig) -> int:
    """Execute one resolved configuration and return the exit status."""
    start = time.monotonic()
    try:
        config.validate()
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    body = {
        "bounds": _cmd_bounds,
        "bands": _cmd_bands,
        "resonances": _cmd_resonances,
        "plot": _cmd_plot,
        "verify": _cmd_verify,
    }[config.command]
    try:
        status = body(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NoConvergenceError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    if config.command != "verify":
        try:
            _write_manifest(config, time.monotonic() - start)
        except OSError as err:
            print(f"i/o error: {err}", file=sys.stderr)
            return 4
    return status


def main(argv: Optional[Sequence[str]] = None) -> None:
    try:
        config = parse_config(sys.argv[1:] if argv is None else list(argv))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(run(config))
