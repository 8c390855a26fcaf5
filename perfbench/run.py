"""The repository benchmark: campaign cells/s and 64-node simulation rate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 20 --trace 0

Every job runs in a fresh interpreter (``job.py``) with fresh store and
warm-start directories, so no process-global state carries over from one
measurement to the next.  With ``--trace 0`` the run repeats the
workload's job for about ``--seconds`` and prints the end-to-end
metrics, timed in reference seconds (``calibrate.py``); with
``--trace 1`` it runs the job once untraced, once under the span tracer
and once under cProfile, and prints the per-layer metrics.
Either way the simulated results are checked against ``reference.json``
(see ``record_reference.py``), and the last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"

#: The campaign grid: 2 versions x (baseline + 11 faults) x 3 reps.
CAMPAIGN_VERSIONS = ("TCP-PRESS", "VIA-PRESS-5")
CAMPAIGN_REPS = 3
CAMPAIGN_JOBS = 2
#: The traced campaign runs one replication, serially, so that every
#: span lands in one process.
TRACED_REPS = 1
STEADY_VERSIONS = {"steady-tcp": "TCP-PRESS", "steady-via": "VIA-PRESS-5"}
WORKLOADS = ("campaign",) + tuple(STEADY_VERSIONS)

#: Extra set-up-only interpreters per run, for a steadier set-up median.
SETUP_PROBES = 8
#: Every job of a run must end this many seconds after the run started.
RUN_DEADLINE_S = 170.0
#: Largest allowed |traced share - cProfile share| on the top layers.
XCHECK_TOLERANCE = 0.075
XCHECK_TOP = 4

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("cells_per_s", "cells/s"),
    ("cell_s_p50", "s"),
    ("cell_s_p85", "s"),
    ("sim_s_per_s", "sim-s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (f"{layer}.{name}", unit)
    for layer in LAYERS
    for name, unit in (
        ("self_s", "s"), ("share", "ratio"), ("calls", "count"),
    )
) + (
    ("sim.engine.events", "count"),
    ("sim.engine.cancelled_frac", "ratio"),
    ("net.frames", "count"),
    ("net.reference_frac", "ratio"),
    ("transports.tcp.retransmissions", "count"),
    ("transports.via.shed", "count"),
    ("press.forward_frac", "ratio"),
    ("experiments.warm_hit_frac", "ratio"),
    ("experiments.pool_idle_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("xcheck.max_abs_diff", "ratio"),
)


class Run:
    """One benchmark run: its jobs, deadline and correctness tally."""

    def __init__(self, workload: str, seed: int, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    # -- jobs ------------------------------------------------------------
    def job(self, *args: str, mode: str = "plain") -> Optional[dict]:
        """Run ``job.py`` in a fresh interpreter; its result, or None.

        A campaign job gets a fresh store directory (and with it a fresh
        warm-start directory), removed when the job ends.
        """
        with tempfile.TemporaryDirectory(dir=WORK) as scratch:
            kind = "campaign" if self.workload == "campaign" else "steady"
            cmd = [sys.executable, str(HERE / "job.py"), kind,
                   "--seed", str(self.seed), "--mode", mode, *args]
            if kind == "campaign":
                cmd += ["--store", str(Path(scratch) / "store")]
            else:
                cmd += ["--version", STEADY_VERSIONS[self.workload]]
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                       TMPDIR=scratch)
            spawned = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, start_new_session=True,
            )
            try:
                out, err = proc.communicate(
                    timeout=max(1.0, self.deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                # The job's pool workers share its process group.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                self.notes.append(f"job {mode} {' '.join(args)}: timed out")
                return None
        if proc.returncode != 0:
            self.notes.append(
                f"job {mode} {' '.join(args)} exited {proc.returncode}: "
                + err.strip()[-1500:]
            )
            return None
        result = json.loads(out.strip().splitlines()[-1])
        # Calibration samples taken during set-up are not set-up.
        result["setup_s"] = (
            result["ready_at"] - spawned - result.get("setup_cal_s", 0.0)
        )
        if "setup_speed" in result:
            result["ref_setup_s"] = result["setup_s"] * result["setup_speed"]
        return result

    def campaign(self, jobs: int, reps: int, mode: str = "plain",
                 *extra: str) -> Optional[dict]:
        result = self.job("--jobs", str(jobs), "--reps", str(reps), *extra,
                          mode=mode)
        # A --cell campaign is one version's baseline and link-down cell.
        cells = 2 * reps if "--cell" in extra else (
            len(CAMPAIGN_VERSIONS) * 12 * reps
        )
        self.check(result, cells, full=reps == CAMPAIGN_REPS and not extra)
        return result

    def steady(self, mode: str = "plain", *extra: str) -> Optional[dict]:
        result = self.job(*extra, mode=mode)
        self.check(result, 1)
        return result

    # -- correctness -----------------------------------------------------
    def check(self, result: Optional[dict], units: int, full: bool = False):
        """Count ``units`` attempted; count those whose simulated results
        differ from the reference (or break an invariant) as failed."""
        self.attempted += units
        if result is None:
            self.failed += units
            return
        bad = (
            check_campaign(result, self.reference, self.seed, units, full)
            if self.workload == "campaign"
            else check_steady(result, self.reference, self.workload, self.seed)
        )
        for note in bad:
            self.notes.append(note)
        self.failed += min(units, len(bad))


def check_campaign(result: dict, reference: dict, seed: int, cells: int,
                   full: bool) -> List[str]:
    """Mismatches of one campaign job against the reference."""
    bad = []
    ref = reference.get("campaign", {}).get(str(seed))
    got = result["cells"]
    if len(got) != cells:
        bad.append(f"campaign: {len(got)} cells, expected {cells}")
    if ref is not None:
        for key, value in sorted(got.items()):
            if ref["cells"].get(key) != value:
                bad.append(f"campaign cell {key}: digest {value} differs")
    for version, figures in sorted(result["versions"].items()):
        if not (0 < figures["AA"] <= 1 and figures["AT"] > 0
                and figures["P"] > 0):
            bad.append(f"campaign {version}: AT/AA/P out of range {figures}")
        if ref is None or not full:
            continue
        want = ref["versions"][version]
        for name in ("AT", "AA", "P"):
            if not math.isclose(figures[name], want[name], rel_tol=1e-9):
                bad.append(
                    f"campaign {version} {name}: {figures[name]!r} != "
                    f"{want[name]!r}"
                )
    return bad


def check_steady(result: dict, reference: dict, workload: str,
                 seed: int) -> List[str]:
    """Mismatches of one steady job against the reference."""
    bad = []
    outcome = result["outcome"]
    if not (
        all(c[0] > 0 for c in outcome["clients"].values())
        and all(s[0] > 0 for s in outcome["servers"].values())
        and outcome["fabric"][0] > 0
    ):
        bad.append(f"{workload}: a client, server or the fabric did no work")
    want = reference.get(workload, {}).get(str(seed))
    if want is not None and result["digest"] != want:
        bad.append(f"{workload}: outcome digest {result['digest']} != {want}")
    return bad


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(run: Run, seconds: float) -> Dict[str, float]:
    """Repeat the workload's job for about ``seconds``; the end-to-end
    metrics, in reference seconds (see ``calibrate.py``).  Another job
    starts while at least half of it would still fit, so a run overshoots
    by at most half a job on average."""
    results = []
    started = time.monotonic()
    while True:
        if run.workload == "campaign":
            result = run.campaign(CAMPAIGN_JOBS, CAMPAIGN_REPS, "timed")
        else:
            result = run.steady("timed")
        if result is None:
            break
        results.append(result)
        elapsed = time.monotonic() - started
        if elapsed + 0.5 * elapsed / len(results) > seconds:
            break
    if not results:
        return {}
    setups = list(results)
    for _ in range(SETUP_PROBES):
        probe = run.job(mode="setup")
        if probe is not None:
            setups.append(probe)
    raw = time_metrics(results, setups, "")
    metrics = time_metrics(results, setups, "ref_")
    run.notes.append(
        f"{len(results)} job(s), {sum(len(r['cell_s']) for r in results)} "
        f"cells, {len(setups)} set-ups, "
        f"{sum(r['wall'] for r in results):.2f} s measured"
    )
    run.notes.append(
        "raw wall-clock (host seconds, not calibrated): "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
    )
    metrics["peak_rss_mb"] = statistics.median(
        r["peak_rss_mb"] for r in results
    )
    return metrics


def time_metrics(results: List[dict], setups: List[dict],
                 prefix: str) -> Dict[str, float]:
    """The timed metrics from the jobs' ``wall``/``cell_s``/``setup_s``
    (``prefix`` "") or their reference-second twins (``prefix`` "ref_")."""
    cell_s = [s for r in results for s in r[prefix + "cell_s"]]
    wall = sum(r[prefix + "wall"] for r in results)
    return {
        "cells_per_s": len(cell_s) / wall,
        "cell_s_p50": statistics.median(cell_s),
        "cell_s_p85": percentile(cell_s, 0.85),
        "sim_s_per_s": sum(r["sim_s"] for r in results) / wall,
        "setup_s": statistics.median(r[prefix + "setup_s"] for r in setups),
    }


def share_diffs(traced: dict, profiled: dict) -> Dict[str, float]:
    """Per-layer traced share minus cProfile share, both taken over the
    time the layers account for."""
    spans = {layer: traced["layers"][f"{layer}.self_s"] for layer in LAYERS}
    prof = profiled["cprofile_s"]
    span_total = sum(spans.values()) or 1.0
    prof_total = sum(prof.values()) or 1.0
    return {
        layer: spans[layer] / span_total - prof.get(layer, 0.0) / prof_total
        for layer in LAYERS
    }


def traced_run(run: Run) -> Dict[str, float]:
    """Untraced, traced and cProfiled jobs; the per-layer metrics."""
    spans = str(WORK / f"spans-{run.workload}.jsonl")
    if run.workload == "campaign":
        plain = run.campaign(1, TRACED_REPS)
        traced = run.campaign(1, TRACED_REPS, "trace", "--spans", spans)
        xtraced = run.campaign(1, 1, "trace", "--cell")
        profiled = run.campaign(1, 1, "cprofile", "--cell")
        pooled = run.campaign(CAMPAIGN_JOBS, TRACED_REPS)
    else:
        plain = run.steady()
        traced = run.steady("trace", "--spans", spans)
        xtraced = traced
        profiled = run.steady("cprofile")
        # The steady job is its own (one-worker) pool.
        pooled = plain
    if None in (plain, traced, xtraced, profiled, pooled):
        return {}
    metrics = dict(traced["layers"])
    diffs = share_diffs(xtraced, profiled)
    top = sorted(LAYERS, key=lambda l: -profiled["cprofile_s"][l])[:XCHECK_TOP]
    metrics["xcheck.max_abs_diff"] = max(abs(diffs[l]) for l in top)
    covered = sum(traced["layers"][f"{layer}.self_s"] for layer in LAYERS)
    metrics["experiments.pool_idle_frac"] = pooled["pool_idle_frac"]
    metrics["trace.wall_s"] = traced["window"]
    metrics["trace.untraced_wall_s"] = plain["window"]
    metrics["trace.overhead_s"] = traced["window"] - plain["window"]
    metrics["trace.coverage"] = covered / traced["window"]
    within = metrics["xcheck.max_abs_diff"] <= XCHECK_TOLERANCE
    run.notes.append(
        "cProfile cross-check, traced - cProfile share: "
        + ", ".join(f"{l} {diffs[l]:+.3f}" for l in top)
        + f"; max |diff| {metrics['xcheck.max_abs_diff']:.3f}, "
        + ("within" if within else "OUTSIDE")
        + f" tolerance {XCHECK_TOLERANCE}"
    )
    if not within:
        # The tracer no longer agrees with cProfile: its layer figures
        # cannot be trusted, so the cross-checked job counts as failed.
        run.failed += 1
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    WORK.mkdir(exist_ok=True)

    run = Run(args.workload, args.seed, reference)
    if args.trace:
        values, wanted = traced_run(run), PER_LAYER
    else:
        values, wanted = timed_run(run, args.seconds), END_TO_END
    for note in run.notes:
        print(f"# {note}")
    if run.failed or not values:
        print(f"# {run.failed} of {run.attempted} failed")
    metrics = {}
    for name, unit in wanted:
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:34s} {values[name]:>14.6g} {unit}")
    correct = run.failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
