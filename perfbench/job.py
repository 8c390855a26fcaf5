"""One benchmark job, run in a fresh interpreter by ``run.py``.

A job sets up (imports, store open, cluster build and prewarm), records
the moment it is ready for its first timed call, runs the workload once
and prints one JSON object as its last line of output: timings, the
digests of its simulated results, and, when traced or profiled, the
per-layer figures.

    python3 perfbench/job.py campaign --seed 7 --store DIR --jobs 2 --reps 3
    python3 perfbench/job.py steady --version TCP-PRESS --seed 7

``--mode timed`` runs the workload between samples of the host's speed
(:mod:`calibrate`) and reports its times in reference seconds as well;
``--mode setup`` stops when the job is ready, with set-up calibrated the
same way; ``--mode trace`` runs the workload under the span tracer of
:mod:`layers`; ``--mode cprofile`` runs it under cProfile.  The program
must be importable (``PYTHONPATH`` pointing at the checkout's ``src``).
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import hashlib
import json
import os
import pstats
import resource
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import layers

#: The steady workloads' cluster: the 64-node scale guard.
STEADY_NODES = 64
STEADY_UTILIZATION = 0.9
#: Simulated seconds per steady job (its results are checked there).
STEADY_HORIZON = 60


def digest(obj) -> str:
    """Short content digest of a JSON-ready object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """High-water RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: Calibration samples taken before the imports and after set-up.
SETUP_SAMPLES = 3


class SetupClock:
    """Calibrates set-up: samples the host's speed before the imports and
    once the job is ready.  ``spent`` is the calibration time inside the
    set-up interval, which ``run.py`` takes out of it."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.speeds: list = []
        self.spent = 0.0
        if enabled:
            begin = time.perf_counter()
            calibrate.warm_up()
            self.speeds += [calibrate.sample() for _ in range(SETUP_SAMPLES)]
            self.spent = time.perf_counter() - begin

    def report(self, ready_at: float) -> dict:
        out = {"ready_at": ready_at}
        if self.enabled:
            self.speeds += [calibrate.sample() for _ in range(SETUP_SAMPLES)]
            out["setup_cal_s"] = self.spent
            out["setup_speed"] = sum(self.speeds) / len(self.speeds)
        return out


def calibrate_cells(log_dir: str) -> None:
    """Time the calibration kernel just before and just after every warm
    segment and cell the runner executes, in whichever process executes
    it, and log one line per call to ``log_dir``.

    The runner hands these functions to its pool by name, and the pool
    forks after this runs, so its workers run the wrapped functions.
    """
    from repro.experiments import runner

    def wrap(original, key_of):
        @functools.wraps(original)
        def calibrated(*args, **kwargs):
            before = calibrate.sample()
            begin = time.perf_counter()
            result = original(*args, **kwargs)
            duration = time.perf_counter() - begin
            after = calibrate.sample()
            path = os.path.join(log_dir, f"{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "key": key_of(args), "duration": duration,
                    "speed": (before + after) / 2,
                }) + "\n")
            return result
        return calibrated

    # (version, fault, seed) as in CellRecord; warm segments have no cell.
    runner._warm_cell = wrap(runner._warm_cell, lambda a: None)
    runner._baseline_cell = wrap(
        runner._baseline_cell, lambda a: [a[0], None, a[2]]
    )
    runner._fault_cell = wrap(runner._fault_cell, lambda a: [a[0], a[1], a[3]])


def cell_speeds(log_dir: str):
    """The calibration log: the speed next to each cell, and the mean
    speed over every logged call, weighted by the call's duration."""
    by_cell, weighted, total = {}, 0.0, 0.0
    for name in os.listdir(log_dir):
        with open(os.path.join(log_dir, name), encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                if row["key"] is not None:
                    by_cell[tuple(row["key"])] = row["speed"]
                weighted += row["speed"] * row["duration"]
                total += row["duration"]
    return by_cell, weighted / total


class Measured:
    """Times a job plainly, traced, or under cProfile.

    ``wall`` is the timed region (the ``with`` block).  ``window`` runs
    from this object's creation, before the program is imported, to the
    end of the timed region: the traced and profiled runs cover it all,
    so per-layer time explains set-up as well as the work.
    """

    def __init__(self, mode: str, spans_path: str = "") -> None:
        self._origin = time.perf_counter()
        self.spans_path = spans_path
        self.tracer = None
        self.profile = None
        self.wall = 0.0
        self.window = 0.0
        self.traced: dict = {}
        if mode == "trace":
            self.tracer = layers.Tracer()
            layers.install(self.tracer)
        elif mode == "cprofile":
            self.profile = cProfile.Profile()
            self.profile.enable()

    def __enter__(self) -> "Measured":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.wall = end - self._start
        self.window = end - self._origin
        if self.profile is not None:
            self.profile.disable()
        if self.tracer is not None:
            # Taken now: the result checks after the timed region also
            # call wrapped entry points.
            self.traced = self.tracer.layer_metrics(self.window)
            if self.spans_path:
                with open(self.spans_path, "w", encoding="utf-8") as fh:
                    for span in self.tracer.spans:
                        fh.write(json.dumps(span) + "\n")

    def report(self) -> dict:
        out = {"wall": self.wall, "window": self.window}
        if self.tracer is not None:
            out["layers"] = self.traced
        if self.profile is not None:
            stats = pstats.Stats(self.profile).stats
            src = Path(layers.__file__).resolve().parents[1] / "src"
            out["cprofile_s"] = layers.cprofile_layers(stats, src)
        return out


def run_campaign_job(args) -> dict:
    setup = SetupClock(args.mode in ("timed", "setup"))
    # Wrap the entry points before this module binds any of them.
    measured = Measured(args.mode, args.spans)
    from repro.core.faultload import MONTH, FaultLoad
    from repro.core.metric import performability_of
    from repro.core.model import evaluate
    from repro.experiments.phase1 import warm_point
    from repro.experiments.runner import run_campaign
    from repro.experiments.settings import CAMPAIGN_FAULTS, Phase1Settings
    from repro.experiments.store import CellKey, DiskStore
    from repro.faults.spec import FaultKind

    store_dir = Path(args.store)
    store = DiskStore(store_dir)
    # The warm-start directory is <store>/warmstart, so this covers both.
    if any(store_dir.iterdir()):
        raise SystemExit(f"store directory {store_dir} is not empty")
    settings = Phase1Settings(seed=args.seed, replications=args.reps)
    if args.cell:
        versions, faults = ["VIA-PRESS-5"], (FaultKind.LINK_DOWN,)
    else:
        versions, faults = ["TCP-PRESS", "VIA-PRESS-5"], CAMPAIGN_FAULTS
    if args.mode == "timed":
        log_dir = tempfile.mkdtemp(prefix="calibration-")
        calibrate_cells(log_dir)
    ready_at = time.monotonic()
    if args.mode == "setup":
        return setup.report(ready_at)

    with measured:
        sets, report = run_campaign(
            settings, versions, faults, jobs=args.jobs, store=store,
            warm_start=True,
        )

    sim_key = settings.sim_key()
    start = warm_point(settings)
    groups = {(c.version, c.seed) for c in report.cells}
    sim_s = len(groups) * start
    cells = {}
    for c in report.cells:
        payload = store.get(
            CellKey(version=c.version, settings_key=sim_key, fault=c.fault,
                    seed=c.seed, rep=c.rep)
        )
        timeline = payload["timeline"]
        sim_s += timeline["series"][-1][0] + timeline["bucket_width"] - start
        result = {"timeline": timeline}
        if c.fault is None:
            result["tn"] = payload["tn"]
        else:
            result["profile"] = payload["profile"]
        cells[f"{c.version}/{c.fault or 'baseline'}/{c.rep}"] = digest(result)

    load = FaultLoad.table3(app_fault_mttf=MONTH)
    version_results = {}
    for version, profiles in sets.items():
        usable = FaultLoad(
            components=tuple(c for c in load if c.key in profiles)
        )
        res = evaluate(profiles, usable)
        version_results[version] = {
            "AT": res.average_throughput,
            "AA": res.availability,
            "P": performability_of(res),
        }

    cell_s = [c.elapsed for c in report.cells]
    timed = {}
    if args.mode == "timed":
        by_cell, speed = cell_speeds(log_dir)
        timed = {
            "ref_wall": measured.wall * speed,
            "ref_cell_s": [
                c.elapsed * by_cell[(c.version, c.fault, c.seed)]
                for c in report.cells
            ],
        }
    return {
        **setup.report(ready_at),
        **timed,
        "cell_s": cell_s,
        "sim_s": sim_s,
        "cells": cells,
        "versions": version_results,
        "pool_idle_frac": 1.0 - report.cell_seconds / (
            report.jobs * report.wall_clock
        ),
        "peak_rss_mb": peak_rss_mb(),
        **measured.report(),
    }


def run_steady_job(args) -> dict:
    setup = SetupClock(args.mode in ("timed", "setup"))
    measured = Measured(args.mode, args.spans)
    from repro.press.cluster import SMOKE_SCALE, PressCluster
    from repro.press.config import ALL_VERSIONS_EXTENDED

    cluster = PressCluster(
        ALL_VERSIONS_EXTENDED[args.version],
        n_nodes=STEADY_NODES,
        scale=SMOKE_SCALE,
        seed=args.seed,
        utilization=STEADY_UTILIZATION,
    )
    cluster.start()
    ready_at = time.monotonic()
    if args.mode == "setup":
        return setup.report(ready_at)

    slices = []
    clock = time.perf_counter
    timed = args.mode == "timed"
    # speeds[i] and speeds[i + 1] are sampled just before and just after
    # slice i.
    speeds = [calibrate.sample()] if timed else []
    with measured:
        for t in range(1, STEADY_HORIZON + 1):
            begin = clock()
            cluster.run_until(float(t))
            slices.append(clock() - begin)
            if timed:
                speeds.append(calibrate.sample())

    outcome = {
        "servers": {
            sid: [s.requests_handled, s.requests_forwarded, s.disk_reads]
            for sid, s in sorted(cluster.servers.items())
        },
        "clients": {
            c.client_id: [c.completed, c.latencies_sum]
            for c in cluster.workload.clients
        },
        "fabric": [cluster.fabric.frames_delivered, cluster.fabric.frames_lost],
    }
    result = {
        **setup.report(ready_at),
        # The run is one cell: its slices are too short to time alone, as
        # a percentile over them follows the host's momentary speed.
        "cell_s": [measured.wall],
        "sim_s": float(STEADY_HORIZON),
        # The job is its own one-worker pool: the share of the timed
        # region it spends outside the simulation.
        "pool_idle_frac": 1.0 - sum(slices) / measured.wall,
        "outcome": outcome,
        "digest": digest(outcome),
        "peak_rss_mb": peak_rss_mb(),
        **measured.report(),
    }
    if timed:
        # The timed region also holds the calibration samples: leave
        # them out of both the raw and the reference time.
        ref_wall = sum(
            s * (speeds[i] + speeds[i + 1]) / 2 for i, s in enumerate(slices)
        )
        result.update(wall=sum(slices), cell_s=[sum(slices)],
                      ref_wall=ref_wall, ref_cell_s=[ref_wall])
        del result["pool_idle_frac"]
    return result


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=["campaign", "steady"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=["plain", "timed", "setup", "trace", "cprofile"],
        default="plain",
    )
    parser.add_argument("--spans", default="",
                        help="file to write the traced run's spans to")
    parser.add_argument("--store", help="campaign: empty store directory")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--cell", action="store_true",
                        help="campaign: one VIA-PRESS-5 link-down cell")
    parser.add_argument("--version", default="TCP-PRESS")
    args = parser.parse_args(argv)
    run = run_campaign_job if args.kind == "campaign" else run_steady_job
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
