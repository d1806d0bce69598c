"""Benchmark of the qsabine package, one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--workers W] [--tiny]

Run it from the root of a checkout.  Nothing is built: the package is
imported from ``src/``.  Workload names, metric names, units and bounds
are read from ``BENCHMARK.json``; ``perfbench/workloads.py`` says what
each workload runs and how its output is checked.

Every sample runs in a fresh interpreter (``perfbench/child.py``), so a
pass pays what one command-line run pays and no state survives between
passes.

``--trace 0`` (end-to-end): passes until the next one would end after
``--seconds`` (always at least one), then set-up-only interpreters until
there are five set-up samples; each pass's interpreter gives one too.  ``--trace 1`` (per layer): one untraced pass and
one traced pass.  The pool workload's traced pass runs the same inputs
serially, because the wrappers do not reach pool workers, and it adds an
untraced serial pass for ``disk.pool.efficiency``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with provenance and every sample, goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``; the traced
pass's spans go next to it as gzipped JSON lines.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}") from None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child(spec: dict, deadline: float) -> dict:
    """Run one sample in a fresh interpreter and return its JSON line.

    The sample runs in its own process group, so a pool it starts is
    killed with it when it overruns the run's deadline.
    """
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"sample {spec} overran the {RUN_LIMIT_S} s run limit") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"sample {spec} exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsabine").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "workers": args.workers if args.workload == "scan-damping-pool" else 0,
        "tiny": args.tiny,
    }


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * k / (n - 1), sorted(samples)[k]


def _failures(passes) -> tuple:
    attempted = sum(len(p["ops"]) for p in passes)
    failed = [(op, why) for p in passes for op, why in p["ops"].items() if why is not None]
    return attempted, failed


def end_to_end(args, sample, record: dict) -> tuple:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(sample(mode="pass"))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample(mode="setup")["setup_s"])
    walls = [p["wall_s"] for p in passes]
    record.update(setup_samples=setups, passes=passes)
    return passes, {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "results_per_s": statistics.median(p["results"] / p["wall_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def per_layer(args, sample, record: dict) -> tuple:
    pool = args.workload == "scan-damping-pool"
    untraced = sample(mode="pass")
    serial = sample(mode="pass", serial=True) if pool else untraced
    spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
    traced = sample(mode="pass", serial=pool, traced=True, spans=str(spans))
    layers = dict(traced["layers"])
    layers["disk.pool.efficiency"] = (
        serial["wall_s"] / (args.workers * untraced["wall_s"]) if pool else 0.0)
    layers["trace.overhead_s"] = traced["wall_s"] - serial["wall_s"]
    passes = [untraced, serial, traced] if pool else [untraced, traced]
    record.update(passes=passes, traced_pass="serial (workers=0)" if pool else "as untraced",
                  spans=str(spans.relative_to(ROOT)))
    return passes, layers


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=2,
                        help="pool size of scan-damping-pool (at most nproc)")
    parser.add_argument("--tiny", action="store_true",
                        help="n 0..20 and one short band, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsabine" / "__init__.py").is_file():
        raise BenchError("no src/qsabine package next to perfbench/")
    if args.workload == "scan-damping-pool" and not 1 <= args.workers <= nproc():
        raise BenchError(f"--workers {args.workers} must lie in [1, nproc={nproc()}]")

    RESULTS.mkdir(exist_ok=True)
    record = {"provenance": provenance(args)}
    base = {"workload": args.workload, "seed": args.seed, "workers": args.workers,
            "tiny": args.tiny}
    deadline = time.monotonic() + RUN_LIMIT_S

    def sample(**extra):
        return _child({**base, **extra}, deadline)

    if args.trace:
        passes, values = per_layer(args, sample, record)
        declared = spec["per_layer"]
    else:
        passes, values = end_to_end(args, sample, record)
        declared = spec["end_to_end"]
    attempted, failed = _failures(passes)
    correct = not failed and all(p["detail"].get("reference_match", True) for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"inputs: re offset {passes[0]['inputs']['re_offset']!r}, "
          f"ellipse a {passes[0]['inputs']['ellipse_a']!r}, "
          f"workers {record['provenance']['workers']}")
    for i, p in enumerate(passes):
        print(f"pass {i}: wall {p['wall_s']:.4f} s, {json.dumps(p['detail'], sort_keys=True)}")
    if not args.trace:
        walls = [p["wall_s"] for p in passes]
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                     "no percentile has ten samples beyond it")
        print(f"wall_s over {len(walls)} passes: median {statistics.median(walls):.4f} s, "
              f"{tail_text}; setup_s over {len(record['setup_samples'])} interpreters")
    for op, why in failed[:20]:
        print(f"FAILED {op}: {why}")
    print(f"failed_frac {len(failed)}/{attempted} = {len(failed) / attempted:.6g}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
