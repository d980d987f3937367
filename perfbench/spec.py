"""The benchmark's description, read from ``BENCHMARK.json`` at the
repository root: the one list of metrics and the run length that
``run.py`` and ``layers.py`` report against.  The workloads the benchmark
gates are listed there too; ``workloads.WORKLOADS`` holds every
workload ``run.py`` can run."""

from __future__ import annotations

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Seconds one run measures unless ``--seconds`` says otherwise.
RUN_SECONDS: int = SPEC["run_seconds"]
#: (name, unit) of every gated end-to-end metric, in report order.
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
