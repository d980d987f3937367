"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload is a repeatable *unit* of work (a registry pass, one
``Q1-large`` run, one 64-shard campaign plus its report, one served
session of 50 requests) plus the correctness checks that run outside
the timed region.  ``run.py`` decides how many units to time.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import pathlib
import random
import shutil
import threading
import time
from dataclasses import dataclass, field

from perfbench.layers import cache_hit_frac
from perfbench.stats import percentile


@dataclass
class Unit:
    """What one timed unit did."""

    seconds: float
    attempted: int
    failed: int
    trials: int = 0
    latencies: list[float] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class Workload:
    """Base class: ``prepare`` → ``unit`` × k → ``check``."""

    name = ""
    #: Fewest timed units per invocation (untraced section).
    min_units = 1
    #: Whether setup happens in fresh interpreters (see ``run.py``).
    setup_in_subprocess = True

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []

    def build_inputs(self):
        """Imports plus inputs: what a fresh process does before work."""
        raise NotImplementedError

    def prepare(self) -> None:
        self.inputs = self.build_inputs()

    def unit(self) -> Unit:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Correctness failures found so far (outside timed regions)."""
        return list(self.problems)

    def layer_extra(self, units: list[Unit], tracer) -> dict[str, float]:
        """Per-layer values the workload measured itself or derives
        from the traced section's counters."""
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class Registry(Workload):
    """All registry experiments at default parameters, registry order."""

    name = "registry"
    #: Two passes: one pass is a single 25-35 s sample, and on a shared
    #: host ten such runs spread by a quarter of their median; the mean
    #: of two passes (their median) narrows that.
    min_units = 2

    def __init__(self, seed, workdir, ids=None) -> None:
        super().__init__(seed, workdir)
        self.ids = ids

    def build_inputs(self):
        from repro.experiments.registry import all_ids, get_experiment

        return [get_experiment(eid) for eid in (self.ids or all_ids())]

    def unit(self) -> Unit:
        per_experiment = {}
        failed = 0
        started = time.perf_counter()
        for experiment in self.inputs:
            begun = time.perf_counter()
            result = experiment.run()
            per_experiment[experiment.experiment_id] = (
                time.perf_counter() - begun
            )
            if not result.passed:
                failed += 1
                self.problems.append(f"{experiment.experiment_id} did not PASS")
        return Unit(
            seconds=time.perf_counter() - started,
            attempted=len(self.inputs),
            failed=failed,
            notes={"experiment_s": per_experiment},
        )


# ----------------------------------------------------------------------
class McSweep(Workload):
    """The fused ``Q1-large`` Monte-Carlo sweep (N=20-50, 1000 trials)."""

    name = "mc-sweep"
    min_units = 2
    preset = "Q1-large"

    def __init__(self, seed, workdir, overrides=None):
        super().__init__(seed, workdir)
        self.overrides = overrides or {}
        self.digests: list[str] = []

    def build_inputs(self):
        from repro.experiments.registry import PRESETS, find_preset, get_experiment

        experiment_id, overrides = PRESETS[find_preset(self.preset)]
        params = {**overrides, **self.overrides}
        return get_experiment(experiment_id), params

    def unit(self) -> Unit:
        experiment, params = self.inputs
        started = time.perf_counter()
        result = experiment.run(**params)
        seconds = time.perf_counter() - started
        self.digests.append(_digest(result.rows))
        if not result.passed:
            self.problems.append(f"{self.preset} did not PASS")
        if len(set(self.digests)) > 1:
            self.problems.append(
                f"{self.preset} rows digest differs between repetitions"
            )
        trials = params["trials"] * len(params["monte_carlo_sizes"])
        return Unit(
            seconds=seconds,
            attempted=1,
            failed=int(not result.passed),
            trials=trials,
        )

    def check(self) -> list[str]:
        problems = sorted(set(self.problems))
        if len(self.digests) < 2:
            problems.append("rows digest needs at least two repetitions")
        return problems


# ----------------------------------------------------------------------
def _tree_digest(root: pathlib.Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Campaign(Workload):
    """A fresh 64-shard campaign (Q1+FT1, N=6,8, 400 trials, 25 per
    shard, one worker), then ``store_report``."""

    name = "campaign"
    #: One forked shard worker at a time.  With two, the workers take
    #: both CPUs of a 2-CPU host, and one other busy process made the
    #: campaign 1.5x slower; with one it costs about 5%.
    workers = 1
    #: Three campaigns: the median shrugs off one slowed by the host's
    #: fsync latency or a stolen core.
    min_units = 3

    def __init__(
        self, seed, workdir, sizes=(6, 8), trials=400, shard_trials=25
    ) -> None:
        super().__init__(seed, workdir)
        self.sizes = tuple(sizes)
        self.trials = trials
        self.shard_trials = shard_trials
        self.runs = 0
        self.digests: list[str] = []
        self.reports = []

    def build_inputs(self):
        from repro.campaign import CampaignConfig, CampaignSelection
        from repro.campaign.points import expand_selection

        selection = CampaignSelection(
            families=("Q1", "FT1"),
            sizes=self.sizes,
            trials=self.trials,
            shard_trials=self.shard_trials,
            seed=random.Random(self.seed).randrange(2**31),
        )
        shards = expand_selection(selection)
        return selection, len(shards), CampaignConfig(workers=self.workers)

    def unit(self) -> Unit:
        from repro.campaign import run_campaign, store_report

        selection, shard_count, config = self.inputs
        self.runs += 1
        root = self.workdir / f"campaign-{self.runs}"
        started = time.perf_counter()
        report = run_campaign(root, selection, config)
        rows = store_report(root)
        seconds = time.perf_counter() - started
        unfinished = report.total - report.completed - report.cached
        self.digests.append(_tree_digest(root))
        if report.total != shard_count or not rows:
            self.problems.append(f"campaign run {self.runs}: incomplete")
        shutil.rmtree(root)
        self.reports.append(report)
        return Unit(
            seconds=seconds,
            attempted=report.total,
            failed=unfinished,
            trials=self.trials * len(selection.families) * len(self.sizes),
        )

    def check(self) -> list[str]:
        """Every campaign store equals, file for file, an in-process
        sequential reference of the same selection, taken once here so
        that its memory and time stay out of the measured runs."""
        from repro.campaign import CampaignConfig, run_campaign

        selection, _, _ = self.inputs
        root = self.workdir / "campaign-reference"
        run_campaign(root, selection, CampaignConfig(sequential=True))
        reference = _tree_digest(root)
        shutil.rmtree(root)
        problems = list(self.problems)
        for run, digest in enumerate(self.digests, start=1):
            if digest != reference:
                problems.append(
                    f"campaign run {run}: store bytes differ from the"
                    " sequential reference"
                )
        return problems

    def layer_extra(self, units, tracer):
        reports = self.reports[-len(units):]
        return {
            "campaign.shards_executed": sum(r.executed for r in reports),
            "campaign.retries": sum(r.retries for r in reports),
            "campaign.worker_deaths": sum(r.worker_deaths for r in reports),
            "campaign.in_process": sum(r.in_process for r in reports),
        }


# ----------------------------------------------------------------------
#: The served point mix: (family, n); 60 trials each.
SERVED_MIX = (("Q1", 8), ("Q1", 10), ("Q1", 12), ("FT1", 8), ("Q3", 8))


class Served(Workload):
    """An in-process sweep server driven by 2 closed-loop HTTP clients."""

    name = "served"
    #: Four 50-request sessions: p95 gets its 200 samples, and the
    #: median session time shrugs off one slow session.
    min_units = 4
    setup_in_subprocess = False
    clients = 2

    def __init__(self, seed, workdir, per_client=25, trials=60) -> None:
        super().__init__(seed, workdir)
        self.per_client = per_client
        self.trials = trials
        self.rng = random.Random(seed)
        self.server = None
        self.thread = None
        self.snapshots: list[dict] = []
        self.warm_seed = 0

    def _points(self, count: int) -> list[dict]:
        """Seed-derived request order: shuffled rounds over the mix,
        every point with its own seed."""
        points: list[dict] = []
        while len(points) < count:
            order = list(SERVED_MIX)
            self.rng.shuffle(order)
            for family, n in order:
                points.append(
                    {
                        "family": family,
                        "n": n,
                        "trials": self.trials,
                        "seed": self.rng.randrange(2**31),
                    }
                )
        return points[:count]

    def build_inputs(self):
        return None

    def boot(self) -> float:
        """Start a fresh server and warm it; returns the seconds taken."""
        from repro.serving import ServiceConfig, make_server

        self.close()
        started = time.perf_counter()
        self.server = make_server(port=0, config=ServiceConfig())
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        for family, n in SERVED_MIX:
            self.warm_seed += 1
            status, snapshot = self._post(
                {
                    "family": family,
                    "n": n,
                    "trials": self.trials,
                    "seed": self.warm_seed,
                }
            )
            if status != 200 or snapshot.get("status") != "done":
                raise RuntimeError(f"warm-up request failed: {snapshot}")
        return time.perf_counter() - started

    def prepare(self) -> None:
        if self.server is None:
            self.boot()

    def _post(self, point: dict) -> tuple[int, dict]:
        host, port = self.server.server_address[:2]
        body = json.dumps({"points": [point], "wait": True})
        connection = http.client.HTTPConnection(host, port, timeout=120)
        try:
            connection.request(
                "POST",
                "/api/sweep",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def unit(self) -> Unit:
        """One session: each client sends ``per_client`` requests, each
        only after its previous reply (closed loop)."""
        points = self._points(self.clients * self.per_client)
        results: list[list] = [[] for _ in range(self.clients)]
        dispatcher = self.server.service.dispatcher
        batches_before = dispatcher.batches_run
        points_before = dispatcher.points_run

        def client(index: int) -> None:
            for point in points[index :: self.clients]:
                begun = time.perf_counter()
                try:
                    status, snapshot = self._post(point)
                except (OSError, http.client.HTTPException, ValueError) as error:
                    status, snapshot = 0, {"error": repr(error)}
                results[index].append(
                    (time.perf_counter() - begun, status, snapshot)
                )

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(self.clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started

        latencies, failed, jobs = [], 0, []
        for latency, status, snapshot in (r for rs in results for r in rs):
            latencies.append(latency)
            if not 200 <= status < 300 or snapshot.get("status") != "done":
                failed += 1
                self.problems.append(f"request failed: {status} {snapshot}")
                continue
            jobs.append((latency, snapshot))
            self.snapshots.append(snapshot)
        return Unit(
            seconds=seconds,
            attempted=len(points),
            failed=failed,
            trials=self.trials * len(points),
            latencies=latencies,
            notes={
                "jobs": jobs,
                "batches": dispatcher.batches_run - batches_before,
                "points": dispatcher.points_run - points_before,
            },
        )

    def check(self) -> list[str]:
        """Every job's rows equal a sequential ``SweepRunner`` run of the
        batch it executed in."""
        from repro.markov.sweep_engine import SweepRunner
        from repro.serving import resolve_points, result_payload

        problems = list(self.problems)
        oracle_runner = SweepRunner()
        oracle: dict[str, dict] = {}
        for snapshot in self.snapshots:
            batch = json.dumps(snapshot["batch_payloads"], sort_keys=True)
            if batch not in oracle:
                specs = resolve_points({"points": snapshot["batch_payloads"]})
                rows = {}
                for spec, result in zip(specs, oracle_runner.run(specs)):
                    row = result_payload(result)
                    row["label"] = spec.label
                    rows[spec.label] = json.loads(json.dumps(row))
                oracle[batch] = rows
            for row in snapshot["results"]:
                if row != oracle[batch].get(row["label"]):
                    problems.append(
                        f"{snapshot['job']}: row {row['label']} differs from"
                        " the sequential oracle"
                    )
        return problems

    def layer_extra(self, units, tracer):
        """Admission wait, execute and HTTP overhead as p50 values from
        the public ``Job`` timestamps; points per dispatched batch; the
        runner-cache hit share."""
        jobs_by_id = {
            job.id: job for job in self.server.service.dispatcher.jobs()
        }
        waits, executes, overheads = [], [], []
        for unit in units:
            for latency, snapshot in unit.notes["jobs"]:
                job = jobs_by_id.get(snapshot["job"])
                if job is None or job.finished_at is None:
                    continue
                waits.append(job.started_at - job.submitted_at)
                executes.append(job.finished_at - job.started_at)
                overheads.append(latency - (job.finished_at - job.submitted_at))
        batches = sum(unit.notes["batches"] for unit in units)
        points = sum(unit.notes["points"] for unit in units)
        return {
            "serving.admission_wait_ms": 1e3 * percentile(waits, 50),
            "serving.execute_ms": 1e3 * percentile(executes, 50),
            "serving.http_overhead_ms": 1e3 * percentile(overheads, 50),
            "serving.points_per_batch": points / batches if batches else 0.0,
            "serving.runner_cache_hit_frac": cache_hit_frac(tracer),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.server = None
            self.thread = None


WORKLOADS = {
    cls.name: cls for cls in (Registry, McSweep, Campaign, Served)
}
