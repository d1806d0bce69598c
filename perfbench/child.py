"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py '{"mode": "setup" | "pass", "workload": ...,
                                 "seed": ..., "workers": ..., "tiny": ...,
                                 "serial": ..., "traced": ..., "spans": ...}'

Prints one JSON line.  Both modes time ``import qsabine`` plus building
the workload's domains and problems as ``setup_s``.  ``pass`` then runs
one timed pass; with ``traced`` it wraps the package's layer boundaries,
writes the spans to the file named by ``spans`` and adds the per-layer
figures.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import workloads

    inp = workloads.Inputs.make(spec["workload"], spec["seed"], spec["workers"], spec["tiny"])
    built = workloads.build(inp)
    setup_s = time.perf_counter() - t0
    if spec["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    refs = workloads.references(inp)
    serial = spec.get("serial", False)
    if spec.get("traced"):
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            outcome = workloads.run_pass(inp, built, refs, serial=serial, tracer=tracer)
        layers = tracing.layer_metrics(tracer, outcome)
        tracer.write(spec["spans"])
    else:
        outcome = workloads.run_pass(inp, built, refs, serial=serial)
        layers = None
    print(json.dumps({
        "inputs": dataclasses.asdict(inp),
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "cpu_s": outcome.cpu_s,
        "peak_rss_mb": outcome.peak_rss_mb,
        "results": outcome.results,
        "ops": outcome.ops,
        "detail": outcome.detail,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
