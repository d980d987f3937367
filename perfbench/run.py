"""End-to-end benchmark of the ``repro`` package, with a traced per-layer
split.  Run from the repository root::

    python3 perfbench/run.py --workload registry --seed 1 --trace 0

``--trace 0`` times the workload with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` times the same units untraced and then
traced, and prints the per-layer metrics (plus ``trace.overhead_frac``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  The exit code is non-zero when any
correctness check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALIBRATION = ROOT / "benchmarks" / "run_benchmarks.py"
WORK = ROOT / ".perfbench_work"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench.spec import END_TO_END, RUN_SECONDS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Setup is taken this many times per invocation; the median is reported.
SETUP_SAMPLES = 5
#: Thread-count variables of the BLAS and OpenMP pools, all set to 1 when
#: ``run.py`` is the program.  On a shared 2-CPU host a two-thread LU
#: (OPT1's 968 factorizations) takes twice as long whenever another
#: process holds a core; a one-thread LU does not notice.
BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def make_workload(name: str, seed: int, workdir: pathlib.Path, smoke: bool):
    """The named workload, at full size or at a tiny smoke size."""
    from perfbench import workloads

    if not smoke:
        return WORKLOADS[name](seed, workdir)
    if name == "registry":
        return workloads.Registry(seed, workdir, ids=("FIG1", "THM1", "FT1"))
    if name == "mc-sweep":
        return workloads.McSweep(
            seed,
            workdir,
            overrides={
                "exact_sizes": (3,),
                "monte_carlo_sizes": (8,),
                "trials": 40,
            },
        )
    if name == "campaign":
        return workloads.Campaign(
            seed, workdir, sizes=(6,), trials=50, shard_trials=25
        )
    return workloads.Served(seed, workdir, per_client=10, trials=20)


def environment() -> dict:
    """Host and library facts stored with every record."""
    import numpy
    import scipy

    spec = importlib.util.spec_from_file_location("run_benchmarks", CALIBRATION)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {
            key: os.environ.get(key) for key in BLAS_THREAD_VARIABLES
        },
        "calibration_seconds": module.measure_calibration(),
    }


def measure_setup(workload, args) -> list[float]:
    """Setup seconds, :data:`SETUP_SAMPLES` times.

    Batch workloads set up in fresh interpreters (interpreter start until
    imports finish and inputs are built), after the timed section so
    that :func:`peak_rss_mb` does not see them; the served workload boots
    and warms a fresh server in-process each time, keeping the last one.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        if workload.setup_in_subprocess:
            command = [
                sys.executable,
                str(pathlib.Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
            ] + (["--smoke"] if args.smoke else [])
            started = time.perf_counter()
            subprocess.run(command, check=True, timeout=120, cwd=ROOT)
            samples.append(time.perf_counter() - started)
        else:
            samples.append(workload.boot())
    return samples


def timed_units(workload, seconds: float, minimum: int) -> list:
    """Units until ``seconds`` have passed and at least ``minimum`` ran."""
    units = []
    started = time.perf_counter()
    while len(units) < minimum or time.perf_counter() - started < seconds:
        units.append(workload.unit())
    return units


def traced_units(workload, count: int, spool: pathlib.Path):
    """``count`` units under the layer wrappers; returns (units, tracer)."""
    from perfbench.layers import install
    from perfbench.trace import Tracer

    tracer = Tracer(spool=spool)
    patcher = install(tracer)
    try:
        units = [workload.unit() for _ in range(count)]
    finally:
        patcher.restore()
    tracer.merge_spool()
    return units, tracer


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def peak_rss_mb() -> float:
    """Peak resident memory so far of this process and of its largest
    waited-for child (forked shard and exploration workers)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def end_to_end_report(units, setup, peak) -> tuple[dict, list[str]]:
    """The gated metrics plus every end-to-end figure, human-readable."""
    from perfbench.stats import TooFewSamples, error_rate, percentile

    seconds = sum(unit.seconds for unit in units)
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(unit.seconds for unit in units),
        "peak_rss_mb": peak,
    }
    lines = [
        f"setup_s          {_fmt(metrics['setup_s'])} s"
        f"  (median of {len(setup)}: "
        + ", ".join(_fmt(s) for s in setup) + ")",
        f"wall_s           {_fmt(metrics['wall_s'])} s"
        f"  (median of {len(units)} units: "
        + ", ".join(_fmt(u.seconds) for u in units) + ")",
    ]
    trials = sum(unit.trials for unit in units)
    if trials:
        lines.append(f"trials_per_s     {_fmt(trials / seconds)} 1/s")
    latencies = [value for unit in units for value in unit.latencies]
    if latencies:
        lines.append(f"requests_per_s   {_fmt(attempted / seconds)} 1/s")
        for q in (50, 95):
            try:
                value = _fmt(1e3 * percentile(latencies, q)) + " ms"
            except TooFewSamples as refusal:
                value = f"n/a ({refusal})"
            lines.append(f"latency_p{q}_ms    {value}  (n={len(latencies)})")
    lines.append(
        f"error_rate       {_fmt(error_rate(attempted, failed))}"
        f"  ({failed}/{attempted})"
    )
    lines.append(f"peak_rss_mb      {_fmt(metrics['peak_rss_mb'])} MB")
    return metrics, lines


def run(args) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, workdir, args.smoke)
    if args.setup_probe:
        workload.build_inputs()
        return 0

    from perfbench.layers import PER_LAYER, layer_metrics

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            workload.prepare()
            # Half the untraced minimum on each side keeps a traced
            # invocation about as long as an untraced one.
            count = max(1, workload.min_units // 2)
            plain = [workload.unit() for _ in range(count)]
            units, tracer = traced_units(workload, count, workdir / "spool")
            extra = workload.layer_extra(units, tracer)
            extra["trace.overhead_frac"] = (
                statistics.median(u.seconds for u in units)
                / statistics.median(u.seconds for u in plain)
                - 1
            )
            values = layer_metrics(tracer, len(units), extra)
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER
            }
            lines = [f"{name:34s} {_fmt(v['value'])} {v['unit']}"
                     for name, v in metrics.items()]
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(tracer.chrome_trace()))
            lines.append(f"chrome trace: {trace_file.relative_to(ROOT)}")
            units = plain + units
        else:
            # Server boots run in this process and the timed section uses
            # the last one; fresh-interpreter set-ups run after the peak
            # memory is read, so that it covers only the timed work.
            fresh = workload.setup_in_subprocess
            setup = [] if fresh else measure_setup(workload, args)
            workload.prepare()
            units = timed_units(workload, args.seconds, workload.min_units)
            peak = peak_rss_mb()
            if fresh:
                setup = measure_setup(workload, args)
            values, lines = end_to_end_report(units, setup, peak)
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END
            }
        env = environment()
        problems = workload.check()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": sum(unit.attempted for unit in units),
        "failed": sum(unit.failed for unit in units),
        "metrics": metrics,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "problems": problems,
        "unit_seconds": [unit.seconds for unit in units],
        "experiment_seconds": [
            unit.notes["experiment_s"]
            for unit in units
            if "experiment_s" in unit.notes
        ],
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=2))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print("  " + line)
    print("  environment: " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    missing = [path for path in (SRC / "repro", CALIBRATION) if not path.exists()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))};"
              " run from a full checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    # Before numpy loads; set-up probes and forked workers inherit it.
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    sys.exit(main())
