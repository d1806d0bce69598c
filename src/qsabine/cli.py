"""Command-line front end for the disk resonance laboratory.

Five commands share one flag surface:

  bounds      Sabine band of the configured boundary law (JSON)
  bands       near-glancing band predictions for the delta law (JSON)
  resonances  scan the configured law on the disk and dump the table (CSV)
  plot        scan (or load a dumped table) and render an SVG figure
  verify      run the acceptance suite and report per-criterion results

Each setting is declared once, as a ``RunConfig`` field, and is both a
flag and a key of the flat KEY=VALUE file named by ``--config``.  A
file key is the setting's field name or its flag name, with '-' read as
'_' (``re_window`` or ``re``, ``im_floor`` or ``im-floor``); the file
overrides the defaults and explicit flags override the file.

Scans run on every CPU the process may use unless ``--workers`` says
otherwise; ``--workers 0`` (or 1) scans serially.

Every run writes deterministic artifacts for a fixed configuration:
CSV/JSON bytes depend only on the configuration, never on the worker
count, and each file is accompanied by a manifest recording the package
version, a hash of the resolved configuration, and the wall time, plus
for a scan the pool size it used (0 when serial) and the law's
parameters, which ``plot --data`` checks when the CSV's manifest is
there.  SVG output differs between runs only in its timestamp comment.

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
import os
import sys
import time
import warnings
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import __version__, svg
from .billiards import ConvexDomain
from .disk import (
    IncompleteScanWarning,
    NoConvergenceError,
    RESONANCE_CSV_HEADER,
    Resonance,
    TANGENT_CAP,
    check_scan_box,
    pool_size,
    scan,
    write_resonance_csv,
)
from .reflectivity import BoundaryDamping, DeltaPotential, TransparentObstacle
from .sabine import band_report, glancing_bands, one_bounce_quotients, sabine_bounds
from .specfun import BESSEL_ORDER_MAX

__all__ = ["ConfigError", "RunConfig", "emit_figure", "run", "main"]


# Each problem's boundary law, by its tag; the law's fields that are
# settings are its parameters.
_PROBLEM_TABLE = {law.tag: law for law in (TransparentObstacle, DeltaPotential, BoundaryDamping)}


class ConfigError(ValueError):
    """Configuration rejected before any computation started."""


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# figure layouts


def _decay_curve(model, tf_max: float):
    """(tangent frequency, quotient) samples of the one-bounce decay law."""
    tfs = np.linspace(0.0, min(tf_max, 0.999 / model.c), 160)
    quotients = one_bounce_quotients(model, tfs)
    keep = np.isfinite(quotients)
    return tfs[keep], quotients[keep]


def _circle_panels(rows, config) -> list:
    """Im lambda against n / Re lambda with the one-bounce decay curve,
    above Im lambda against Re lambda with the Sabine band edges, both
    from the law of the rows' Re lambda window."""
    tangent = [r.tangent_freq for r in rows]
    re_vals = [r.lam.real for r in rows]
    im_vals = [r.lam.imag for r in rows]
    law = config.law((min(re_vals), max(re_vals)))
    top = svg.Panel("n / Re lambda", "Im lambda")
    top.scatter(tangent, im_vals)
    top.line(*_decay_curve(law, max(tangent) * 1.02))
    bottom = svg.Panel("Re lambda", "Im lambda")
    bottom.scatter(re_vals, im_vals)
    band = sabine_bounds(ConvexDomain.disk(), law)
    for edge in (band.lower, band.upper):
        if math.isfinite(edge):
            bottom.hline(edge)
    return [top, bottom]


def _bands_panels(rows, config) -> list:
    """-Im lambda against Re lambda on log axes with the first three
    glancing bands of the delta problem, predicted at h = 1 / Re lambda."""
    re_vals = [r.lam.real for r in rows]
    window = (min(re_vals), max(re_vals))
    panel = svg.Panel("Re lambda", "-Im lambda", "log", "log")
    panel.scatter(re_vals, [-r.lam.imag for r in rows])
    model = config.law(window)
    gx = np.geomspace(window[0], window[1], 64)
    for b in glancing_bands(model, m_bands=3):
        panel.line(gx, [-b.predicted_im_lambda(1.0 / x) for x in gx], dash="5,4")
    return [panel]


_LAYOUTS = {"circle": _circle_panels, "bands": _bands_panels}


def emit_figure(table: Sequence, config: RunConfig) -> str:
    """Render a resonance table to a stacked-panel SVG document.

    ``table`` holds Resonance rows of the problem ``config.problem``
    (scan results or rows loaded back from a dumped CSV).  The panels
    are those of the layout ``config.fig``; their overlays are computed
    from the same resolved configuration.
    """
    rows = list(table)
    if not rows:
        raise ConfigError("empty resonance table: nothing to plot")
    return svg.render(_LAYOUTS[config.fig](rows, config))


# ---------------------------------------------------------------------------
# settings: one declaration feeds the flags, the config file and RunConfig


def _colon_parser(convert: Callable, counts: Tuple[int, ...], form: str) -> Callable:
    """A flag converter of colon-separated values, ``form`` naming the
    accepted shapes; each value goes through ``convert``."""
    def parse(text: str) -> tuple:
        parts = text.split(":")
        if len(parts) not in counts:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        try:
            return tuple(convert(p) for p in parts)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return parse


_parse_window = _colon_parser(float, (2,), "A:B")
_parse_mode_range = _colon_parser(int, (2, 3), "A:B or A:B:S")


def _setting(default, convert: Callable, help=None, flag=None, metavar=None, choices=None):
    """A RunConfig field that is also a flag and a config-file key.

    ``flag`` defaults to the field name with '_' written as '-'.
    """
    return dataclasses.field(default=default, metadata={
        "convert": convert, "help": help, "flag": flag, "metavar": metavar,
        "choices": choices})


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, problem parameters, windows, outputs.

    Every field after ``command`` is a setting declared once, with its
    default, converter, flag and help line.  Field defaults are the
    package defaults; a config file overrides them and explicit flags
    override the file.  ``validate`` constructs the boundary law eagerly,
    and checks a scan's box, so that an invalid parameter is rejected
    here, naming the violated invariant, rather than mid-scan.
    """

    command: str
    problem: str = _setting("transparent", str, "boundary law", choices=tuple(_PROBLEM_TABLE))
    c: float = _setting(2.0, float, "interior wave speed")
    alpha: float = _setting(1.0, float, "transmission coupling")
    a: float = _setting(2.0, float, "damping strength")
    v0: float = _setting(1.0, float, "delta amplitude")
    v_exponent: float = _setting(0.0, float,
                                 "delta strength grows like v0 (Re lambda)^exponent")
    re_window: Tuple[float, float] = _setting((200.0, 300.0), _parse_window,
                                              "Re lambda window", flag="re", metavar="A:B")
    im_floor: float = _setting(-3.0, float, "Im lambda of the scan rectangle's floor")
    n_range: Optional[Tuple[int, ...]] = _setting(None, _parse_mode_range,
                                                  "mode range, inclusive", flag="n",
                                                  metavar="A:B[:S]")
    grid: int = _setting(33, int, "band extremizer xi points")
    nmax: int = _setting(8, int, "band extremizer orbit length")
    fig: str = _setting("circle", str, "figure layout", choices=tuple(_LAYOUTS))
    data: Optional[str] = _setting(None, str, "render a previously dumped CSV")
    out: Optional[str] = _setting(None, str, "output path (default stdout)")
    workers: int = _setting(_usable_cpus(), int,
                            "scan processes, at most one per mode; 0 or 1 scans "
                            "serially (default: the usable CPUs)")

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.problem not in _PROBLEM_TABLE:
            raise ConfigError(f"unknown problem {self.problem!r} "
                              f"(choose from {tuple(_PROBLEM_TABLE)})")
        if self.fig not in _LAYOUTS:
            raise ConfigError(f"unknown figure layout {self.fig!r} "
                              f"(choose from {tuple(_LAYOUTS)})")
        lo, hi = self.re_window
        if not (lo < hi):
            raise ConfigError("re window must satisfy A < B")
        if self.grid < 3:
            raise ConfigError("grid must be at least 3 points")
        if self.nmax < 1:
            raise ConfigError("nmax must be a positive orbit length")
        if self.workers < 0:
            raise ConfigError("workers must be nonnegative")
        if self.problem != "delta":
            if self.command == "bands":
                raise ConfigError("glancing band prediction needs --problem delta")
            if self.command == "plot" and self.fig == "bands":
                raise ConfigError("figure layout 'bands' needs --problem delta")
        if self.n_range is not None:
            lo_n, hi_n = self.n_range[0], self.n_range[1]
            step = self.n_range[2] if len(self.n_range) > 2 else 1
            if lo_n < 0 or hi_n < lo_n or step < 1:
                raise ConfigError("mode range must be 0 <= A <= B with positive step")
        try:
            law = self.law(self.re_window)
            if self.scans():
                check_scan_box(law, self.re_window, self.im_floor, self.modes())
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def law(self, window: Tuple[float, float]):
        """The configured boundary law.  The delta law's semiclassical
        parameter h is the inverse mid-window frequency of ``window``; a
        scan does not read it."""
        cls = _PROBLEM_TABLE[self.problem]
        if self.problem == "delta":
            if not sum(window) > 0.0:
                raise ValueError("the delta law's h = 2 / (A + B) needs a re window "
                                 "A:B with A + B > 0")
            return cls(**self.params(), h=2.0 / sum(window))
        return cls(**self.params())

    def scans(self) -> bool:
        """Whether the command runs a resonance scan."""
        return self.command == "resonances" or (self.command == "plot" and self.data is None)

    def modes(self) -> range:
        if self.n_range is not None:
            step = self.n_range[2] if len(self.n_range) > 2 else 1
            return range(self.n_range[0], self.n_range[1] + 1, step)
        cap = min(BESSEL_ORDER_MAX, int(math.ceil(TANGENT_CAP * self.re_window[1])))
        return range(0, cap + 1)

    def params(self) -> dict:
        fields = dataclasses.fields(_PROBLEM_TABLE[self.problem])
        return {f.name: getattr(self, f.name) for f in fields if f.name in _SETTING_NAMES}

    def config_hash(self) -> str:
        # Only computation-relevant fields: output path and worker count
        # never change the produced bytes.
        d = dataclasses.asdict(self)
        d.pop("out")
        d.pop("workers")
        d["n_range"] = list(self.modes()) if self.n_range is not None else None
        blob = json.dumps(d, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _flag(setting: dataclasses.Field) -> str:
    return setting.metadata["flag"] or setting.name.replace("_", "-")


_SETTINGS = tuple(f for f in dataclasses.fields(RunConfig) if f.metadata)
_SETTING_NAMES = {f.name for f in _SETTINGS}
# a config-file key is a setting's field or flag name, '-' read as '_'
_FILE_KEYS = {key: f for f in _SETTINGS for key in (f.name, _flag(f).replace("-", "_"))}


def _text_lines(path: str, newline=None) -> list:
    """The lines of the UTF-8 text file path; ConfigError names the
    file if its bytes are not UTF-8."""
    with open(path, newline=newline, encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text: {err}") from None


def _load_config_file(path: str) -> dict:
    """Flat KEY=VALUE lines; '#' starts a comment; see _FILE_KEYS."""
    values = {}
    try:
        lines = _text_lines(path)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        setting = _FILE_KEYS[key]
        try:
            values[setting.name] = setting.metadata["convert"](value.strip())
        except (argparse.ArgumentTypeError, ValueError) as err:
            raise ConfigError(f"{path}:{lineno}: {err}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for setting in _SETTINGS:
        meta = setting.metadata
        common.add_argument("--" + _flag(setting), dest=setting.name, type=meta["convert"],
                            default=None, choices=meta["choices"], metavar=meta["metavar"],
                            help=meta["help"])
    common.add_argument("--config", default=None, help="flat KEY=VALUE file; flags win")

    parser = argparse.ArgumentParser(
        prog="qsabine",
        description="Sabine-law bands and exact disk scattering resonances.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    """argv -> resolved RunConfig (defaults < config file < flags)."""
    ns = _build_parser().parse_args(argv)
    values = {}
    if ns.config:
        values.update(_load_config_file(ns.config))
    for setting in _SETTINGS:
        flag_value = getattr(ns, setting.name)
        if flag_value is not None:
            values[setting.name] = flag_value
    return RunConfig(command=ns.command, **values)


# ---------------------------------------------------------------------------
# command bodies


def _read_resonance_csv(config: RunConfig) -> list:
    """The rows of the CSV ``config.data`` as Resonance, each of the
    problem ``config.problem``; ConfigError names the first line that
    is not, the law's parameters when the CSV's manifest records
    others, or the file that is not UTF-8 text or, for the manifest,
    not a JSON object."""
    import csv

    path, rows = config.data, []
    manifest = path + ".manifest.json"
    if os.path.exists(manifest):
        try:
            recorded = json.loads("".join(_text_lines(manifest)))
        except json.JSONDecodeError as err:
            raise ConfigError(f"{manifest}: {err}") from None
        if not isinstance(recorded, dict):
            raise ConfigError(f"{manifest}: not a JSON object")
        scanned = recorded.get("params")
        if scanned is not None and scanned != config.params():
            raise ConfigError(f"{path}: scanned with {scanned}, not {config.params()}")
    reader = csv.DictReader(_text_lines(path, newline=""))
    missing = set(RESONANCE_CSV_HEADER) - set(reader.fieldnames or ())
    if missing:
        raise ConfigError(f"{path}: missing columns {sorted(missing)}")
    for rec in reader:
        try:
            row = Resonance(complex(float(rec["re_lambda"]), float(rec["im_lambda"])),
                            int(rec["n"]), float(rec["residual"]), rec["seed"],
                            rec["problem"])
            if row.problem != config.problem:
                raise ValueError(f"a {row.problem!r} row, but --problem is "
                                 f"{config.problem!r}")
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{path}:{reader.line_num}: {err}") from None
        rows.append(row)
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
    if config.scans():
        manifest["workers"] = pool_size(config.workers, len(config.modes()))
        manifest["params"] = config.params()
    line = json.dumps(manifest, sort_keys=True)
    if config.out is None:
        print(line, file=sys.stderr)
    else:
        with open(config.out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _scan(config: RunConfig):
    """Scan the configured law, print each incomplete cell to stderr, and
    return the roots with the exit status: 3 if a cell is incomplete."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IncompleteScanWarning)
        roots = scan(config.law(config.re_window), config.re_window, config.im_floor,
                     config.modes(), workers=config.workers)
    incomplete = [w.message for w in caught if isinstance(w.message, IncompleteScanWarning)]
    for warning in incomplete:
        print(f"incomplete: {warning}", file=sys.stderr)
    return roots, 3 if incomplete else 0


def _cmd_bounds(config: RunConfig) -> int:
    """`bounds` and `bands`: the Sabine band, and for `bands` the glancing bands."""
    model = config.law(config.re_window)
    glancing = glancing_bands(model, m_bands=3) if config.command == "bands" else ()
    band = sabine_bounds(ConvexDomain.disk(), model,
                         n_max=config.nmax, xi_points=config.grid)
    report = band_report(config.problem, config.params(), band, glancing)
    _write_text(config.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_resonances(config: RunConfig) -> int:
    roots, status = _scan(config)
    import io

    buf = io.StringIO()
    write_resonance_csv(roots, buf)
    _write_text(config.out, buf.getvalue())
    return status


def _cmd_plot(config: RunConfig) -> int:
    rows, status = (_read_resonance_csv(config), 0) if config.data is not None else _scan(config)
    _write_text(config.out, emit_figure(rows, config))
    return status


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
        _write_text(config.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "bounds": (_cmd_bounds, "Sabine band of the configured model (JSON)"),
    "bands": (_cmd_bounds, "glancing band predictions, delta problem (JSON)"),
    "resonances": (_cmd_resonances, "scan the disk problem and dump resonances (CSV)"),
    "plot": (_cmd_plot, "render an SVG figure"),
    "verify": (_cmd_verify, "run the acceptance suite"),
}


def run(config: RunConfig) -> int:
    """Execute one resolved configuration and return the exit status."""
    start = time.monotonic()
    try:
        config.validate()
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    body, _ = _COMMANDS[config.command]
    try:
        status = body(config)
    except ValueError as err:
        # ConfigError, or a law the computation finds degenerate (say a
        # reflectivity that vanishes on the whole band grid)
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


if __name__ == "__main__":
    main()
