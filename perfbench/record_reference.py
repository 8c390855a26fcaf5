"""Record the reference digests that ``run.py`` checks results against.

Run from the root of a checkout whose results are known to be right:

    python3 perfbench/record_reference.py --seeds 0-19

For each seed it runs the campaign job and both steady jobs and writes
``perfbench/reference.json``: per campaign cell, keyed by
``version/fault/rep``, a digest of the cell's timeline plus its Tn or
fitted profile; per campaign version, AT, AA and P; per steady
workload, a digest of the 64-node cluster's outcome (per-server requests
handled, forwarded and disk reads, per-client completions and latency
sum, fabric frames delivered and lost).  Telemetry, observatory output
and store keys are left out on purpose, so that a new probe or a store
schema change does not count as a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as bench


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-19 or 1,7")
    args = parser.parse_args(argv)
    path = bench.HERE / "reference.json"
    reference = {"campaign": {}, **{w: {} for w in bench.STEADY_VERSIONS}}
    if path.exists():
        reference.update(json.loads(path.read_text(encoding="utf-8")))
    bench.WORK.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        run = bench.Run("campaign", seed, {})
        result = run.campaign(bench.CAMPAIGN_JOBS, bench.CAMPAIGN_REPS)
        if result is None or run.failed:
            sys.exit(f"campaign seed {seed} failed: {run.notes}")
        reference["campaign"][str(seed)] = {
            "cells": result["cells"], "versions": result["versions"],
        }
        for workload in bench.STEADY_VERSIONS:
            run = bench.Run(workload, seed, {})
            result = run.steady()
            if result is None or run.failed:
                sys.exit(f"{workload} seed {seed} failed: {run.notes}")
            reference[workload][str(seed)] = result["digest"]
        print(f"seed {seed} recorded", flush=True)
    path.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
