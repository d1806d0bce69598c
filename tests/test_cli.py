"""Command-line layer: config resolution, artifacts, exit codes.

Heavy scans are avoided; the commands are exercised on tiny windows and
the failure paths with stubbed scan results, so the whole file stays in
the seconds range.  Determinism claims (byte-identical CSV/JSON for one
configuration, SVG differing only in its timestamp comment) are checked
literally on the produced files.
"""
import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qsabine import cli, svg
from qsabine.cli import ConfigError, RunConfig, emit_figure, parse_config, run
from qsabine.disk import (RESONANCE_CSV_HEADER, IncompleteScanWarning, NoConvergenceError,
                          Resonance, scan, write_resonance_csv)
from qsabine.sabine import sabine_bounds
from qsabine.billiards import ConvexDomain
from qsabine.reflectivity import TransparentObstacle

TINY = ["--re", "200:215", "--n", "0:2"]

COMMANDS = ("bounds", "bands", "resonances", "plot", "verify")

# flag -> (field, flag argument, resolved value, every config-file key)
SETTINGS = {
    "--problem": ("problem", "damping", "damping", ("problem",)),
    "--c": ("c", "0.5", 0.5, ("c",)),
    "--alpha": ("alpha", "3", 3.0, ("alpha",)),
    "--a": ("a", "0.7", 0.7, ("a",)),
    "--v0": ("v0", "2", 2.0, ("v0",)),
    "--v-exponent": ("v_exponent", "0.5", 0.5, ("v_exponent", "v-exponent")),
    "--re": ("re_window", "10:20", (10.0, 20.0), ("re", "re_window", "re-window")),
    "--im-floor": ("im_floor", "-1.5", -1.5, ("im_floor", "im-floor")),
    "--n": ("n_range", "0:6:2", (0, 6, 2), ("n", "n_range", "n-range")),
    "--grid": ("grid", "9", 9, ("grid",)),
    "--nmax": ("nmax", "3", 3, ("nmax",)),
    "--fig": ("fig", "bands", "bands", ("fig",)),
    "--data": ("data", "d.csv", "d.csv", ("data",)),
    "--out": ("out", "o.json", "o.json", ("out",)),
    "--workers": ("workers", "0", 0, ("workers",)),
}


def run_argv(argv, capsys):
    status = run(parse_config(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


class TestConfigResolution:
    def test_defaults(self):
        cfg = parse_config(["bounds"])
        assert cfg.command == "bounds"
        assert cfg.problem == "transparent"
        assert cfg.c == 2.0 and cfg.alpha == 1.0
        assert cfg.re_window == (200.0, 300.0)
        assert cfg.im_floor == -3.0
        # scans use every CPU the process may run on unless told otherwise
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count())
        assert cfg.workers == usable >= 1

    def test_flags_parse(self):
        cfg = parse_config(["resonances", "--problem", "damping", "--a", "3.5",
                            "--re", "10:20", "--n", "0:6:2", "--im-floor", "-1.5"])
        assert cfg.problem == "damping" and cfg.a == 3.5
        assert cfg.re_window == (10.0, 20.0)
        assert list(cfg.modes()) == [0, 2, 4, 6]
        assert cfg.im_floor == -1.5

    def test_config_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "problem = transparent\n"
            "c = 0.5   # inline comment\n"
            "alpha = 4\n"
            "re = 100:150\n"
            "n = 0:3\n"
        )
        cfg = parse_config(["resonances", "--config", str(path)])
        assert cfg.c == 0.5 and cfg.alpha == 4.0
        assert cfg.re_window == (100.0, 150.0)
        assert cfg.n_range == (0, 3)
        # explicit flag wins over the file
        cfg2 = parse_config(["resonances", "--config", str(path), "--c", "2"])
        assert cfg2.c == 2.0
        assert cfg2.re_window == (100.0, 150.0)

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # the bytes fail to decode while the lines are read, after the
        # file opened; the refusal names the file
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"c = 2\n\xff\xfe = 1\n")
        with pytest.raises(SystemExit) as exit_:
            cli.main(["bounds", "--config", str(path)])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: not UTF-8 text: ")

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("speed = 2\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(["bounds", "--config", str(path)])

    def test_config_file_rejects_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("re = fast\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            parse_config(["bounds", "--config", str(path)])

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(["bounds", "--config", "/nonexistent/run.cfg"])

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys):
        # a directory cannot be read as a config file
        with pytest.raises(SystemExit) as done:
            cli.main(["bounds", "--config", str(tmp_path)])
        assert done.value.code == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config file")

    @pytest.mark.parametrize("line, message", [
        ("problem = bogus", "unknown problem 'bogus'"),
        ("fig = bogus", "unknown figure layout 'bogus'"),
        ("grid = 2", "grid must be at least 3 points"),
        ("nmax = 0", "nmax must be a positive orbit length"),
        ("workers = -1", "workers must be nonnegative"),
        ("n = 5:3", "mode range must be 0 <= A <= B"),
    ])
    def test_config_file_value_refused_exits_2(self, tmp_path, capsys, line, message):
        # a file value skips the flag's choices; validation still refuses it
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(SystemExit) as done:
            cli.main(["bounds", "--config", str(path)])
        assert done.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"config error: {message}")

    def test_config_line_without_equals_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("c = 2\nalpha 3\n")
        with pytest.raises(SystemExit) as done:
            cli.main(["bounds", "--config", str(path)])
        assert done.value.code == 2
        assert f"{path}:2: expected KEY=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--re", "1:x"], ["--n", "1"], ["--n", "1:2:x"]],
                             ids=" ".join)
    def test_unparsable_flag_exits_2(self, capsys, flags):
        with pytest.raises(SystemExit) as done:
            cli.main(["resonances"] + flags)
        assert done.value.code == 2
        assert f"argument {flags[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("problem, want", [
        ("transparent", [("c", 0.5), ("alpha", 3.0)]),
        ("delta", [("v0", 2.0), ("v_exponent", 0.5)]),
        ("damping", [("a", 0.7)]),
    ])
    def test_params_are_the_law_parameters(self, problem, want):
        # the settings that are the law's parameters, in its field order;
        # the delta law's h is no setting
        config = RunConfig("bounds", problem=problem, c=0.5, alpha=3.0, a=0.7, v0=2.0,
                           v_exponent=0.5)
        assert list(config.params().items()) == want

    def test_window_validation(self, capsys):
        status, _, err = run_argv(["bounds", "--re", "300:200"], capsys)
        assert status == 2
        assert "A < B" in err

    def test_model_validation_propagates(self, capsys):
        # a nonpositive wave speed is rejected by the problem constructor
        status, _, err = run_argv(["bounds", "--c", "-1"], capsys)
        assert status == 2
        assert "config error" in err

    def test_bands_layout_needs_delta(self, capsys):
        status, _, err = run_argv(["plot", "--fig", "bands"] + TINY, capsys)
        assert status == 2
        assert "delta" in err

    def test_every_setting_from_flag_and_file(self, tmp_path):
        default = parse_config(["bounds"])
        for flag, (field, text, value, keys) in SETTINGS.items():
            from_flag = parse_config(["bounds", flag, text])
            assert getattr(from_flag, field) == value, flag
            assert getattr(default, field) != value, flag
            for key in keys:
                path = tmp_path / "run.cfg"
                path.write_text(f"{key} = {text}\n")
                assert parse_config(["bounds", "--config", str(path)]) == from_flag, key

    def test_hash_ignores_output_and_workers(self):
        base = parse_config(["resonances"] + TINY)
        moved = parse_config(["resonances", "--out", "/tmp/x.csv", "--workers", "4"] + TINY)
        other = parse_config(["resonances", "--re", "200:216", "--n", "0:2"])
        assert base.config_hash() == moved.config_hash()
        assert base.config_hash() != other.config_hash()


class TestCommandLineSurface:
    def subparsers(self):
        parser = cli._build_parser()
        (action,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_commands(self):
        assert tuple(self.subparsers()) == COMMANDS

    def test_each_command_takes_exactly_the_setting_flags(self):
        expected = set(SETTINGS) | {"--config", "-h", "--help"}
        for name, sub in self.subparsers().items():
            assert set(sub._option_string_actions) == expected, name

    def test_main_exit_status(self, capsys):
        with pytest.raises(SystemExit) as bad:
            cli.main(["bounds", "--c", "-1"])
        assert bad.value.code == 2
        assert "config error" in capsys.readouterr().err
        with pytest.raises(SystemExit) as ok:
            cli.main(["bounds", "--grid", "9", "--nmax", "2"])
        assert ok.value.code == 0
        json.loads(capsys.readouterr().out)

    def test_unknown_command_exits_2(self, capsys):
        assert run(RunConfig(command="bogus")) == 2
        assert "unknown command 'bogus'" in capsys.readouterr().err

    def test_every_setting_has_a_help_line(self, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main(["resonances", "--help"])
        assert done.value.code == 0
        printed = " ".join(capsys.readouterr().out.split())
        actions = self.subparsers()["resonances"]._option_string_actions
        for flag in SETTINGS:
            help_text = actions[flag].help
            assert help_text and " ".join(help_text.split()) in printed, flag

    @staticmethod
    def python(*args):
        """A fresh interpreter that imports this package, run on args."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, check=True)

    def test_import_leaves_scipy_optimize_out(self):
        # Every run pays for what the package imports; scipy.optimize
        # alone added ~0.2 s and ~20 MB.  A fresh interpreter is needed,
        # since the test suite itself imports it.
        probe = ("import sys, qsabine, qsabine.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        assert self.python("-c", probe).stdout.strip() == "[]"

    def test_python_m_runs_the_cli(self, capsys):
        # with no console script installed, `python -m qsabine.cli` is the CLI
        argv = ["bounds", "--grid", "9", "--nmax", "2"]
        done = self.python("-m", "qsabine.cli", *argv)
        assert done.stdout == run_argv(argv, capsys)[1]
        assert json.loads(done.stdout)["problem"] == "transparent"


class TestBoundsCommand:
    def test_report_values_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "band.json"
        status, _, err = run_argv(["bounds", "--out", str(out)], capsys)
        assert status == 0
        report = json.loads(out.read_text())
        assert report["problem"] == "transparent"
        assert report["lower"] == pytest.approx(-2.0 / np.sqrt(3.0), abs=1e-3)
        assert report["upper"] == pytest.approx(-np.log(3.0), abs=1e-9)
        manifest = json.loads((tmp_path / "band.json.manifest.json").read_text())
        assert set(manifest) == {"version", "config_hash", "wall_time_s"}
        assert manifest["config_hash"] == parse_config(["bounds"]).config_hash()

    def test_stdout_and_stderr_manifest(self, capsys):
        status, out, err = run_argv(["bounds", "--grid", "9", "--nmax", "2"], capsys)
        assert status == 0
        json.loads(out)
        manifest = json.loads(err)
        assert manifest["version"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_argv(["bounds", "--grid", "9", "--nmax", "2", "--out", str(a)], capsys)
        run_argv(["bounds", "--grid", "9", "--nmax", "2", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_manifest_exits_4(self, tmp_path, capsys):
        out = tmp_path / "band.json"
        (tmp_path / "band.json.manifest.json").mkdir()
        status, _, err = run_argv(["bounds", "--grid", "9", "--nmax", "2", "--out", str(out)],
                                  capsys)
        assert status == 4
        assert err.startswith("i/o error: ")
        json.loads(out.read_text())


class TestBandsCommand:
    def test_delta_report(self, capsys):
        status, out, _ = run_argv(
            ["bands", "--problem", "delta", "--v0", "1", "--v-exponent", "0.8333333333333334"],
            capsys)
        assert status == 0
        report = json.loads(out)
        bands = report["bands"]
        assert [b["j"] for b in bands] == [1, 2, 3]
        # deeper bands sit strictly lower
        tops = [b["im_lambda_max"] for b in bands]
        assert tops[0] > tops[1] > tops[2]
        assert all(b["im_lambda_max"] < 0.0 for b in bands)

    def test_rejects_other_problems(self, capsys):
        status, _, err = run_argv(["bands", "--problem", "damping"], capsys)
        assert status == 2
        assert "delta" in err


class TestResonancesCommand:
    def test_matches_direct_scan(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        status, _, _ = run_argv(["resonances", "--out", str(out)] + TINY, capsys)
        assert status == 0
        buf = io.StringIO()
        write_resonance_csv(scan(TransparentObstacle(2.0, 1.0), (200.0, 215.0), -3.0, range(0, 3)),
                            buf)
        assert out.read_text() == buf.getvalue()

    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys):
        # serial, an explicit pool, and the default (every usable CPU)
        paths = [tmp_path / f"{k}.csv" for k in range(3)]
        for path, flags in zip(paths, (["--workers", "0"], ["--workers", "2"], [])):
            assert run_argv(["resonances", "--out", str(path)] + flags + TINY, capsys)[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    @pytest.mark.parametrize("flags, pool", [
        ([], min(parse_config(["resonances"]).workers, 3)),
        (["--workers", "0"], 0),
        (["--workers", "8"], 3),
    ])
    def test_manifest_records_pool_size(self, tmp_path, capsys, flags, pool):
        # TINY scans 3 modes; a pool of at most one process is no pool (0)
        out = tmp_path / "res.csv"
        status, _, _ = run_argv(["resonances", "--out", str(out)] + flags + TINY, capsys)
        assert status == 0
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["workers"] == (pool if pool > 1 else 0)
        assert manifest["params"] == {"c": 2.0, "alpha": 1.0}
        assert manifest["config_hash"] == parse_config(["resonances"] + TINY).config_hash()

    def test_incomplete_cell_exits_3(self, tmp_path, capsys, monkeypatch):
        def stub_scan(problem, re_window, im_floor, modes, **kw):
            import warnings

            warnings.warn(IncompleteScanWarning(7, (200.0, 215.0, -3.0, 0.0), 2, 1),
                          stacklevel=2)
            return [Resonance(205.0 - 1.0j, 0, 0.0, "normal", "transparent")]

        monkeypatch.setattr(cli, "scan", stub_scan)
        out = tmp_path / "res.csv"
        status, _, err = run_argv(["resonances", "--out", str(out)] + TINY, capsys)
        assert status == 3
        assert "mode n=7" in err
        # the partial table is still written for inspection
        assert out.read_text().startswith("problem,")
        assert "205.0" in out.read_text()

    def test_unwritable_output_exits_4(self, capsys):
        status, _, err = run_argv(
            ["resonances", "--out", "/nonexistent-dir/res.csv"] + TINY, capsys)
        assert status == 4
        assert "i/o error" in err

    def test_no_convergence_exits_3(self, tmp_path, capsys, monkeypatch):
        def stub_scan(problem, re_window, im_floor, modes, **kw):
            raise NoConvergenceError("stub refinement diverged", [205.0 - 1.0j])

        monkeypatch.setattr(cli, "scan", stub_scan)
        out = tmp_path / "res.csv"
        status, _, err = run_argv(["resonances", "--out", str(out)] + TINY, capsys)
        assert status == 3
        assert err == "numerical error: stub refinement diverged\n"
        assert not out.exists()


# Settings that pass every flag check but leave the scan's guarded box.
OUT_OF_BOX = (
    ["resonances", "--im-floor", "0", "--n", "0:1"],
    ["resonances", "--im-floor", "-60", "--n", "0:1"],
    ["resonances", "--re", "0.5:10", "--n", "0:1"],
    ["resonances", "--re", "200:30000", "--n", "0:1"],
    ["resonances", "--c", "500", "--n", "0:1"],
    ["resonances", "--n", "0:30000", "--re", "200:201"],
    ["resonances", "--c", "0.5", "--alpha", "1.3", "--re", "15000:15010", "--n", "0:2"],
    ["plot", "--im-floor", "0", "--n", "0:1"],
)


# Boundary-law parameters that both the band and the scan commands refuse.
BAD_LAWS = (
    ["--problem", "delta", "--v0", "0"],
    ["--problem", "delta", "--v0", "inf"],
    ["--problem", "delta", "--v-exponent", "2"],
    ["--problem", "delta", "--v-exponent", "-0.5"],
    ["--problem", "damping", "--a", "0"],
    ["--problem", "delta", "--re=-1:1"],
)


class TestLawRefusals:
    @pytest.mark.parametrize("command", ["bounds", "resonances"])
    @pytest.mark.parametrize("flags", BAD_LAWS, ids=" ".join)
    def test_bad_law_exits_2(self, command, flags, capsys):
        status, out, err = run_argv(
            [command, "--grid", "9", "--nmax", "2"] + TINY + flags, capsys)
        assert status == 2
        assert err.startswith("config error: ") and out == ""
        if "--v-exponent" in flags:
            assert err == "config error: v_exponent must lie in [0, 1]\n"

    def test_unit_speed(self, tmp_path, capsys):
        # c = 1 is a valid law: a scan of free space (alpha = 1) finds no
        # resonance, and at alpha = 2 the reflectivity is the constant -1/3.
        # Free space reflects nothing, so its band is refused.
        out = tmp_path / "free.csv"
        status, _, _ = run_argv(["resonances", "--c", "1", "--out", str(out)] + TINY, capsys)
        assert status == 0 and out.read_text() == ",".join(RESONANCE_CSV_HEADER) + "\n"
        status, out, _ = run_argv(["bounds", "--c", "1", "--alpha", "2", "--grid", "9",
                                   "--nmax", "2"], capsys)
        assert status == 0 and json.loads(out)["upper"] == pytest.approx(np.log(1.0 / 3.0) / 2.0)
        status, out, err = run_argv(["bounds", "--c", "1", "--grid", "9", "--nmax", "2"], capsys)
        assert status == 2 and out == ""
        assert err.startswith("config error: reflectivity vanishes on the whole sample grid")


class TestScanBox:
    @pytest.mark.parametrize("argv", OUT_OF_BOX, ids=" ".join)
    def test_out_of_box_exits_2(self, argv, capsys):
        status, out, err = run_argv(argv, capsys)
        assert status == 2
        assert err.startswith("config error: ") and out == ""

    def test_slow_obstacle_window_admitted(self):
        parse_config(["resonances", "--c", "0.5", "--alpha", "1.3", "--re", "200:210"]).validate()

    def test_plot_from_data_ignores_scan_box(self, tmp_path, capsys):
        data, fig = tmp_path / "res.csv", tmp_path / "fig.svg"
        run_argv(["resonances", "--out", str(data)] + TINY, capsys)
        status, _, _ = run_argv(["plot", "--data", str(data), "--im-floor", "0",
                                 "--out", str(fig)] + TINY, capsys)
        assert status == 0 and fig.exists()

    def test_default_modes_end_at_the_tangent_cap(self):
        assert cli.RunConfig("resonances").modes() == range(0, 361)
        assert cli.RunConfig("resonances", re_window=(200.0, 19000.0)).modes() == range(0, 20001)


class TestPlotCommand:
    def make_csv(self, tmp_path, capsys):
        path = tmp_path / "res.csv"
        run_argv(["resonances", "--out", str(path)] + TINY, capsys)
        return path

    def test_circle_figure_from_data(self, tmp_path, capsys):
        data = self.make_csv(tmp_path, capsys)
        out = tmp_path / "fig.svg"
        status, _, _ = run_argv(["plot", "--fig", "circle", "--data", str(data),
                                 "--out", str(out)] + TINY, capsys)
        assert status == 0
        text = out.read_text()
        ET.fromstring(text)
        assert len(text.encode()) <= svg.MAX_BYTES
        # two stacked panels with labeled axes
        assert text.count("Im lambda") == 2
        assert "n / Re lambda" in text and "Re lambda" in text

    @pytest.mark.parametrize("flags, manifest, status", [
        (["--c", "0.5", "--alpha", "1.3"], True, 2),
        ([], True, 0),
        (["--c", "0.5", "--alpha", "1.3"], False, 0),
    ], ids=["other-law", "same-law", "no-manifest"])
    def test_law_recorded_in_the_manifest(self, tmp_path, capsys, flags, manifest, status):
        # A CSV names its problem but not the law's parameters; its manifest
        # does, and overlays of another law are refused.  A CSV without a
        # manifest is plotted under the configured law.
        data = self.make_csv(tmp_path, capsys)
        if not manifest:
            (tmp_path / "res.csv.manifest.json").unlink()
        got, out, err = run_argv(["plot", "--data", str(data)] + flags + TINY, capsys)
        assert got == status
        if status:
            assert out == "" and err == (f"config error: {data}: scanned with "
                                         "{'alpha': 1.0, 'c': 2.0}, not {'c': 0.5, 'alpha': 1.3}\n")
        else:
            ET.fromstring(out)

    @pytest.mark.parametrize("text", [
        b"[1, 2]", b'"x"', b"null", b"{params", b'{"params": "\xff"}',
    ], ids=["list", "string", "null", "unparsable", "not-utf8"])
    def test_manifest_that_is_no_json_object_exits_2(self, tmp_path, capsys, text):
        # the manifest must be UTF-8 text holding a JSON object; the
        # refusal names the manifest file
        data = self.make_csv(tmp_path, capsys)
        manifest = tmp_path / "res.csv.manifest.json"
        manifest.write_bytes(text)
        status, out, err = run_argv(["plot", "--data", str(data)] + TINY, capsys)
        assert status == 2 and out == ""
        assert err.startswith(f"config error: {manifest}: ")

    def test_manifest_without_params_plots(self, tmp_path, capsys):
        data = self.make_csv(tmp_path, capsys)
        (tmp_path / "res.csv.manifest.json").write_text('{"version": "0"}')
        status, out, _ = run_argv(["plot", "--data", str(data)] + TINY, capsys)
        assert status == 0
        ET.fromstring(out)

    def test_data_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        data = self.make_csv(tmp_path, capsys)
        data.write_bytes(data.read_bytes() + b"\xff\xfe\n")
        status, out, err = run_argv(["plot", "--data", str(data)] + TINY, capsys)
        assert status == 2 and out == ""
        assert err.startswith(f"config error: {data}: not UTF-8 text: ")

    def test_svg_differs_only_in_timestamp(self, tmp_path, capsys):
        data = self.make_csv(tmp_path, capsys)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            run_argv(["plot", "--fig", "circle", "--data", str(data),
                      "--out", str(path)] + TINY, capsys)
        strip = lambda s: re.sub(r"<!-- generated [^>]*-->", "", s)
        ta, tb = a.read_text(), b.read_text()
        assert strip(ta) == strip(tb)
        assert "<!-- generated " in ta

    def test_bands_figure_from_data(self, tmp_path, capsys):
        data = tmp_path / "delta.csv"
        delta = ["--problem", "delta", "--v0", "1", "--v-exponent", "0.5"]
        rows = [Resonance(complex(1010.0 + 10.0 * k, -1.0 - 0.5 * k), 1000, 0.0,
                          "glancing", "delta") for k in range(3)]
        buf = io.StringIO()
        write_resonance_csv(rows, buf)
        data.write_text(buf.getvalue())
        out = tmp_path / "fig.svg"
        status, _, _ = run_argv(["plot", "--fig", "bands", "--data", str(data),
                                 "--out", str(out)] + delta, capsys)
        assert status == 0
        root = ET.fromstring(out.read_text())
        dashed = [el for el in root.iter() if el.get("stroke-dasharray") == "5,4"]
        assert len(dashed) == 3
        assert all(el.get("stroke") == "#c53030" for el in dashed)

    def test_missing_data_file_exits_4(self, tmp_path, capsys):
        status, _, err = run_argv(
            ["plot", "--data", str(tmp_path / "nope.csv")] + TINY, capsys)
        assert status == 4

    def test_malformed_data_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        status, _, err = run_argv(["plot", "--data", str(bad)] + TINY, capsys)
        assert status == 2
        assert "missing columns" in err

    def test_header_only_data_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        buf = io.StringIO()
        write_resonance_csv([], buf)
        empty.write_text(buf.getvalue())
        status, _, err = run_argv(["plot", "--data", str(empty)] + TINY, capsys)
        assert status == 2
        assert "empty resonance table" in err

    def test_unparsable_row_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        rows = [Resonance(205.0 - 1.0j, 1, 0.0, "normal", "transparent")] * 2
        buf = io.StringIO()
        write_resonance_csv(rows, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        lines[2] = lines[2].replace("205.0", "fast", 1)
        bad.write_text("".join(lines))
        status, _, err = run_argv(["plot", "--data", str(bad)] + TINY, capsys)
        assert status == 2
        assert f"{bad}:3:" in err

    @pytest.mark.parametrize("fig, flags, row", [
        ("circle", TINY, Resonance(205.0 - 1.1j, 3, 0.0, "normal", "transparent")),
        ("circle", TINY, Resonance(1e16 - 1.1j, 3, 0.0, "normal", "transparent")),
        ("bands", ["--problem", "delta", "--v0", "1", "--v-exponent", "0.5"],
         Resonance(1010.0 - 1.0j, 1000, 0.0, "glancing", "delta")),
    ], ids=["circle", "circle-1e16", "bands"])
    def test_one_row_figure_from_data(self, tmp_path, capsys, fig, flags, row):
        # a lone root spans no Re lambda range: the circle figure's
        # linear axis and the bands figure's log axis widen it themselves,
        # by more than rounds away at Re lambda = 1e16
        data, out = tmp_path / "one.csv", tmp_path / "fig.svg"
        buf = io.StringIO()
        write_resonance_csv([row], buf)
        data.write_text(buf.getvalue())
        status, _, _ = run_argv(["plot", "--fig", fig, "--data", str(data),
                                 "--out", str(out)] + flags, capsys)
        assert status == 0
        text = out.read_text()
        ET.fromstring(text)
        assert "nan" not in text and "inf" not in text

    @pytest.mark.parametrize("column, value", [
        ("residual", "1e-06"), ("seed", "bogus"), ("problem", "damping"),
    ])
    def test_row_that_is_no_resonance_of_the_problem_exits_2(self, tmp_path, capsys,
                                                              column, value):
        # each row is a Resonance of --problem: a figure of damping roots
        # under the transparent law's decay curve and band is refused
        data = tmp_path / "rows.csv"
        buf = io.StringIO()
        write_resonance_csv([Resonance(205.0 - 1.0j, 1, 0.0, "normal", "transparent")] * 3, buf)
        records = list(csv.DictReader(io.StringIO(buf.getvalue())))
        records[1][column] = value
        with open(data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, RESONANCE_CSV_HEADER, lineterminator="\n")
            writer.writeheader()
            writer.writerows(records)
        status, out, err = run_argv(["plot", "--data", str(data)] + TINY, capsys)
        assert status == 2 and out == ""
        assert err.startswith("config error: ") and f"{data}:3:" in err

    def test_negative_mode_row_exits_2(self, tmp_path, capsys):
        data = tmp_path / "rows.csv"
        buf = io.StringIO()
        write_resonance_csv([Resonance(205.0 - 1.0j, 1, 0.0, "normal", "transparent")] * 2, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        lines[2] = lines[2].replace("transparent,1,", "transparent,-1,", 1)
        data.write_text("".join(lines))
        status, out, err = run_argv(["plot", "--data", str(data)] + TINY, capsys)
        assert status == 2 and out == ""
        assert err == f"config error: {data}:3: mode index must be >= 0\n"


class TestEmitFigure:
    def rows(self):
        return [Resonance(200.0 + 10.0 * k - 1.1j, 2 * k, 0.0, "normal", "transparent")
                for k in range(5)]

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            emit_figure([], parse_config(["plot"]))

    def test_sabine_band_overlay_lines(self):
        text = emit_figure(self.rows(), parse_config(["plot", "--fig", "circle"]))
        overlays = [el.tag.rsplit("}", 1)[-1] for el in ET.fromstring(text).iter()
                    if el.get("stroke") == "#c53030"]
        # the decay curve, then both band edges as horizontal rules
        assert overlays == ["polyline", "line", "line"]
        _, bottom = cli._LAYOUTS["circle"](self.rows(), parse_config(["plot"]))
        band = sabine_bounds(ConvexDomain.disk(), TransparentObstacle(2.0, 1.0))
        assert [s.ys for s in bottom.series[1:]] == [(band.lower,), (band.upper,)]

    def test_delta_decay_curve_follows_the_roots(self):
        # The curve is the one-bounce law at the window's h = 2 / (A + B),
        # where the delta resonances sit (at h = 1 it missed them by ~2x).
        config = parse_config(["plot", "--problem", "delta", "--v0", "1",
                               "--v-exponent", "0.8333333333333334",
                               "--re", "200:215", "--n", "0:40"])
        rows = scan(config.law(config.re_window), config.re_window, config.im_floor,
                    config.modes())
        top, _ = cli._LAYOUTS["circle"](rows, config)
        curve = top.series[1]
        q = np.interp([r.n / r.lam.real for r in rows], curve.xs, curve.ys)
        assert len(rows) > 150
        assert max(abs(r.lam.imag - qi) for r, qi in zip(rows, q)) < 0.01

    def test_layouts(self):
        circle = cli._LAYOUTS["circle"](self.rows(), parse_config(["plot", "--fig", "circle"]))
        assert [(p.x_label, p.y_label) for p in circle] == [
            ("n / Re lambda", "Im lambda"), ("Re lambda", "Im lambda")]
        assert [[s.kind for s in p.series] for p in circle] == [
            ["scatter", "line"], ["scatter", "hline", "hline"]]
        delta = parse_config(["plot", "--fig", "bands", "--problem", "delta"])
        (bands,) = cli._LAYOUTS["bands"](self.rows(), delta)
        assert (bands.x_scale, bands.y_scale) == ("log", "log")
        assert bands.y_label == "-Im lambda"
        assert [s.kind for s in bands.series] == ["scatter", "line", "line", "line"]
        assert all(s.dash == "5,4" for s in bands.series[1:])


class TestVerifyCommand:
    def fake_results(self, flags):
        from qsabine.verify import CriterionResult

        return [CriterionResult(f"check-{i}", ok, f"measured {i}", 0.1)
                for i, ok in enumerate(flags)]

    def test_all_pass_exits_0(self, capsys, monkeypatch):
        import qsabine.verify

        monkeypatch.setattr(qsabine.verify, "run_all",
                            lambda workers=0: self.fake_results([True, True]))
        status, out, _ = run_argv(["verify"], capsys)
        assert status == 0
        assert out.count("PASS") == 2 and "FAIL" not in out

    def test_any_fail_exits_1(self, tmp_path, capsys, monkeypatch):
        import qsabine.verify

        monkeypatch.setattr(qsabine.verify, "run_all",
                            lambda workers=0: self.fake_results([True, False]))
        report = tmp_path / "verify.json"
        status, out, _ = run_argv(["verify", "--out", str(report)], capsys)
        assert status == 1
        assert "FAIL  check-1" in out
        payload = json.loads(report.read_text())
        assert [row["passed"] for row in payload] == [True, False]
        assert all({"name", "passed", "measured", "elapsed"} <= set(row) for row in payload)

    def test_report_bytes(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import qsabine.verify

        results = self.fake_results([True, False])
        monkeypatch.setattr(qsabine.verify, "run_all", lambda workers=0: results)
        report = tmp_path / "verify.json"
        run_argv(["verify", "--out", str(report)], capsys)
        payload = [dataclasses.asdict(r) for r in results]
        assert report.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"
