"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402


def repro_modules():
    import repro

    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield info.name


def test_every_module_maps_to_exactly_one_named_layer():
    for module in repro_modules():
        matches = [
            prefix for prefix in layers.PREFIXES
            if module == prefix or module.startswith(prefix + ".")
        ]
        longest = max(matches, key=len)
        assert [m for m in matches if len(m) == len(longest)] == [longest]
        assert layers.layer_of(module) in layers.LAYERS, module


def test_every_layer_prefix_names_a_module():
    modules = set(repro_modules())
    for prefix in layers.PREFIXES:
        assert prefix in modules, prefix


@pytest.mark.parametrize("module,qualname", layers.ENTRY_POINTS)
def test_wrapped_entry_point_still_exists(module, qualname):
    _owner, _name, fn = layers.resolve(module, qualname)
    assert callable(fn)
    if qualname in layers.CALLBACK_ARGS:
        params = list(inspect.signature(fn).parameters)
        index = layers.CALLBACK_ARGS[qualname]
        assert params[index] in ("fn", "handler", "done"), params


def test_callback_entry_points_are_wrapped():
    wrapped = {q for _m, q in layers.ENTRY_POINTS}
    assert set(layers.CALLBACK_ARGS) <= wrapped


def test_a_renamed_entry_point_fails_loudly():
    with pytest.raises(AttributeError):
        layers.resolve("repro.sim.engine", "Engine.no_such_method")


def test_benchmark_json_matches_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        n for n, _u in run.END_TO_END
    ]
    assert [m["name"] for m in spec["per_layer"]] == [
        n for n, _u in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def bench():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "steady-tcp",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_reference_digest_matches():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert "7" in reference["steady-tcp"]
    result = bench()
    assert result["correct"] and result["failed"] == 0


def test_corrupted_reference_digest_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "WORK", tmp_path)
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["steady-tcp"]["7"] = "0" * 16
    r = run.Run("steady-tcp", 7, reference)
    assert r.steady() is not None
    assert r.failed == 1
    assert "outcome digest" in r.notes[-1]


def test_calibration_kernel_runs_no_program_code():
    import calibrate

    before = set(sys.modules)
    calibrate.warm_up()
    assert calibrate.sample() > 0
    assert not any(m.startswith("repro") for m in set(sys.modules) - before)


def test_calibrated_cells_stay_picklable_by_name(tmp_path, monkeypatch):
    import pickle

    import job
    from repro.experiments import runner

    for name in ("_warm_cell", "_baseline_cell", "_fault_cell"):
        monkeypatch.setattr(runner, name, getattr(runner, name))
    job.calibrate_cells(str(tmp_path))
    for fn in (runner._warm_cell, runner._baseline_cell, runner._fault_cell):
        assert pickle.loads(pickle.dumps(fn)) is fn


def test_cell_speeds_weighs_calls_by_duration(tmp_path):
    import job

    rows = [
        {"key": None, "duration": 3.0, "speed": 1.0},
        {"key": ["TCP-PRESS", None, 5], "duration": 1.0, "speed": 0.5},
    ]
    (tmp_path / "1.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in rows)
    )
    by_cell, speed = job.cell_speeds(str(tmp_path))
    assert by_cell == {("TCP-PRESS", None, 5): 0.5}
    assert speed == pytest.approx(0.875)


def test_check_campaign_counts_a_corrupted_cell():
    result = {
        "cells": {"TCP-PRESS/baseline/0": "a" * 16},
        "versions": {"TCP-PRESS": {"AT": 1.0, "AA": 0.99, "P": 5.0}},
    }
    good = {"campaign": {"7": {"cells": dict(result["cells"]),
                               "versions": result["versions"]}}}
    assert run.check_campaign(result, good, 7, 1, full=True) == []
    bad = {"campaign": {"7": {"cells": {"TCP-PRESS/baseline/0": "b" * 16},
                              "versions": result["versions"]}}}
    assert len(run.check_campaign(result, bad, 7, 1, full=True)) == 1


def test_bench_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "steady-tcp",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _CannedRun(run.Run):
    """A steady run whose jobs return fixed results."""

    def __init__(self, traced_net_s: float) -> None:
        super().__init__("steady-via", 7, {})
        self.traced_net_s = traced_net_s

    def steady(self, mode="plain", *extra):
        self.attempted += 1
        spans = dict.fromkeys(layers.LAYERS, 0.5)
        spans["net"] = self.traced_net_s
        prof = dict.fromkeys(layers.LAYERS, 0.5)
        prof["net"] = 2.0
        return {
            "window": 10.0,
            "pool_idle_frac": 0.001,
            "cprofile_s": prof,
            "layers": {f"{l}.self_s": s for l, s in spans.items()},
        }


def test_cross_check_outside_tolerance_fails_the_run():
    agreeing = _CannedRun(traced_net_s=2.0)
    metrics = run.traced_run(agreeing)
    assert metrics["xcheck.max_abs_diff"] < run.XCHECK_TOLERANCE
    assert agreeing.failed == 0

    drifting = _CannedRun(traced_net_s=6.0)
    metrics = run.traced_run(drifting)
    assert metrics["xcheck.max_abs_diff"] > run.XCHECK_TOLERANCE
    assert drifting.failed == 1
    assert "OUTSIDE" in drifting.notes[-1]


def _pstats_row(tt, callers):
    """A ``pstats`` row: (cc, nc, tt, ct, callers), callers' rows alike."""
    calls = sum(c[0] for c in callers.values()) or 1
    return (calls, calls, tt, tt, callers)


def test_cprofile_keeps_the_time_of_recursive_library_functions(tmp_path):
    src = tmp_path / "src"
    net = (str(src / "repro" / "net" / "fabric.py"), 1, "transmit")
    press = (str(src / "repro" / "press" / "server.py"), 1, "handle")
    # A self-recursive standard-library function called from net, and a
    # pair of mutually recursive ones called from net and press.
    deep = ("/usr/lib/python3/copy.py", 1, "deepcopy")
    ping = ("/usr/lib/python3/json.py", 1, "ping")
    pong = ("/usr/lib/python3/json.py", 2, "pong")
    stats = {
        net: _pstats_row(1.0, {}),
        press: _pstats_row(1.0, {}),
        deep: _pstats_row(2.0, {net: (1, 1, 0.5, 2.0),
                                deep: (3, 3, 1.5, 1.5)}),
        ping: _pstats_row(1.0, {net: (1, 1, 0.5, 1.0),
                                pong: (1, 1, 0.5, 0.5)}),
        pong: _pstats_row(1.0, {press: (1, 1, 0.5, 1.0),
                                ping: (1, 1, 0.5, 0.5)}),
    }
    out = layers.cprofile_layers(stats, src)
    assert sum(out.values()) == pytest.approx(6.0)
    assert out["net"] == pytest.approx(4.0)
    assert out["press"] == pytest.approx(2.0)
