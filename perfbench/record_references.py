"""Record references.json from the default configuration of each workload.

    python3 perfbench/record_references.py

Run once, at the commit that adds the benchmark; later commits are
checked against what it wrote.  It prints the recorded root counts and
band endpoints so they can be compared with the published figures.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def record() -> dict:
    refs = {}
    for name in workloads.BODIES:
        inp = workloads.Inputs.make(name, workloads.DEFAULT_SEED, 2, False)
        raw = workloads.BODIES[name](inp, workloads.build(inp), False, workloads._no_span)
        if name == "bands":
            refs[name] = {k: {"lower": b.lower, "upper": b.upper} for k, b in raw.items()}
            continue
        if raw["error"] is not None or raw["incomplete"]:
            raise SystemExit(f"{name}: {raw['error'] or 'incomplete modes'}")
        csv_text = raw["csv"]
        refs[name] = {
            "roots": csv_text.count("\n") - 1,
            "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
            "mode_digests": workloads.mode_digests(csv_text),
        }
    return refs


if __name__ == "__main__":
    refs = record()
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    for name, ref in refs.items():
        print(name, {k: v for k, v in ref.items() if k != "mode_digests"})
