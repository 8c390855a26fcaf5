"""Dashboard and perf views over empty, partial, and stale stores.

Operators point ``dashboard`` / ``perf-report`` / ``perf-compare`` at
whatever cache dir they have — half-filled by an interrupted campaign,
written by an older schema, or never profiled at all.  Every renderer
must degrade to a visible notice, never a KeyError/TypeError.
"""

import dataclasses
import json

import pytest

from repro.analysis.dashboard import dashboard_from_store, render_dashboard
from repro.analysis.perf import (
    LEDGER_NAME,
    LEDGER_VERSION,
    load_ledger,
    perf_compare,
    perf_report_from_store,
)
from repro.experiments.store import SCHEMA_VERSION, CellKey, DiskStore


def _sampled(execute_s):
    """A sampler profile: every sample in one layer."""
    return {
        "samples": 10,
        "interval_s": 0.004,
        "self_s": execute_s,
        "layers": {"net": {"samples": 10, "self_s": execute_s}},
    }


def test_dashboard_from_store_rejects_non_directories(tmp_path):
    with pytest.raises(ValueError, match="not a directory"):
        dashboard_from_store(tmp_path / "nope")


def test_dashboard_from_store_rejects_empty_stores(tmp_path):
    with pytest.raises(ValueError, match="no campaign cells"):
        dashboard_from_store(tmp_path)


def test_render_dashboard_with_no_cells_shows_notices():
    html = render_dashboard([])
    for note in (
        "no complete version in the store",
        "no fault cells in the store",
        "no divergence reports stored",
        "no health telemetry stored",
        "no flight-recorder data stored",
    ):
        assert note in html, note


def test_render_dashboard_with_bare_minimum_payloads():
    """Keys and payloads missing every optional field still render."""
    rows = [
        ({"version": "TCP-PRESS", "fault": None, "seed": 1}, {}),
        ({"version": "TCP-PRESS", "fault": "link-down", "seed": 1}, {}),
        ({}, {}),  # a row with no identity at all
    ]
    html = render_dashboard(rows)
    assert "TCP-PRESS" in html
    assert "link-down" in html


def test_render_dashboard_flags_stale_schema_generations():
    rows = [
        (
            {"version": "V", "fault": "f", "seed": 1, "schema": 1},
            {"timeline": {"availability": 0.5}},
        ),
        (
            {"version": "V", "fault": "g", "seed": 1, "schema": 2},
            {"timeline": {"availability": 0.9}},
        ),
    ]
    html = render_dashboard(rows)
    assert "older store schema" in html


def test_render_dashboard_with_malformed_perf_rows():
    """Perf rows that are stale, empty, or garbage degrade gracefully."""
    perf = [
        ({"version": "V", "fault": "f"}, {}),
        ({}, {"execute_s": "0.5"}),  # stringly-typed stale record
        ({"version": "V"}, None),  # unreadable record half
        # Written by the removed logical-process engine: "lp" is ignored.
        (
            {"version": "V", "fault": "g"},
            {
                "execute_s": 0.5,
                "profile": {
                    "events": 4,
                    "lp": {
                        "shards": 2,
                        "backend": "threads",
                        "lp_events": [1, 3],
                        "worker_exec_s": [0.1, 0.3],
                    },
                },
            },
        ),
    ]
    perf.append(
        (
            {"version": "V", "fault": "h"},
            {"execute_s": 0.5, "profile": _sampled(0.5)},
        )
    )
    html = render_dashboard([], perf=perf)
    assert "<h2>performance (flight recorder)</h2>" in html
    assert "V/h" in html
    # Records without a sampler profile are not counted.
    assert "V/f" not in html and "V/g" not in html
    assert "LP shards" not in html and "LP workers" not in html


def test_render_dashboard_from_ledger_only():
    """A ledger without perf/ rows (pruned store) still fills the panel."""
    ledger = {
        "wall_clock_s": 2.0,
        "jobs": 2,
        "timing": {
            "execute_s": 1.5,
            "restore_s": 0.25,
            "speedup": 0.9,
            "parallelism": 0.8,
        },
        "profile": {
            "events": 10,
            "samples": 250,
            "sampled_s": 1.0,
            "self_s": 1.0,
            "layers": {
                "net": {"samples": 150, "self_s": 0.6},
                "sim.engine": {"samples": 100, "self_s": 0.4},
            },
            "engine": {"events_processed": 10},
            "lp": {"shards": 2, "lp_events": [6, 4], "imbalance": 1.2},
        },
        "top_cells": [{"cell": "V/f#r0", "execute_s": 1.5, "events": 10}],
    }
    html = render_dashboard([], ledger=ledger)
    assert "<td class='label'>net</td>" in html
    assert "<td class='label'>sim.engine</td>" in html
    assert "250 stack samples" in html
    assert "V/f#r0" in html
    assert "LP shards" not in html


def test_perf_report_on_unprofiled_store_prints_a_notice(tmp_path):
    text = perf_report_from_store(tmp_path)
    assert "no flight-recorder data found" in text
    assert "--profile" in text


def test_perf_report_rejects_non_directories(tmp_path):
    with pytest.raises(ValueError, match="not a directory"):
        perf_report_from_store(tmp_path / "nope")


def test_perf_report_survives_a_corrupt_ledger_and_records(tmp_path):
    (tmp_path / "BENCH_campaign.json").write_text("{not json", "utf-8")
    perf_dir = tmp_path / "perf"
    perf_dir.mkdir()
    (perf_dir / "deadbeef.json").write_text("also not json", "utf-8")
    (perf_dir / "cafe.json").write_text(
        json.dumps(
            {
                "key": {"version": "V"},
                "perf": {"execute_s": 0.5, "profile": _sampled(0.5)},
            }
        ),
        "utf-8",
    )
    text = perf_report_from_store(tmp_path)
    assert "1 cell record(s)" in text


def test_perf_compare_of_two_empty_dirs_is_not_comparable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    text, comparable = perf_compare(a, b)
    assert not comparable
    assert "no flight-recorder data" in text


def _same_cell_under_two_schemas(store):
    """One cell's perf record under the previous and the current schema,
    plus one in the per-callback recorder's format (inclusive layer
    times, no ``interval_s``/``samples``) under the current schema."""
    key = CellKey(version="V", settings_key=(), fault="f", seed=1, rep=0)
    store.put_perf(
        dataclasses.replace(key, schema=SCHEMA_VERSION - 1),
        {"execute_s": 9.0, "profile": _sampled(9.0)},
    )
    store.put_perf(key, {"execute_s": 1.0, "profile": _sampled(1.0)})
    store.put_perf(
        dataclasses.replace(key, fault="g"),
        {
            "execute_s": 7.0,
            "profile": {
                "events": 5,
                "self_s": 7.0,
                "layers": {"osim": {"events": 5, "self_s": 7.0}},
            },
        },
    )


def test_stale_schema_perf_records_are_not_counted(tmp_path):
    """A record left by an older store schema or by the per-callback
    recorder never doubles its cell or mixes into the sampled rows."""
    store = DiskStore(tmp_path)
    _same_cell_under_two_schemas(store)
    text = perf_report_from_store(tmp_path)
    assert "profiled: 1 cell record(s)" in text
    assert text.count("V/f#r0") == 1
    assert "V/g" not in text and "osim" not in text
    html = render_dashboard([], perf=list(store.iter_perf()))
    assert html.count("V/f#r0") == 1
    assert "9.000" not in html and "V/g" not in html


def test_clear_removes_the_campaign_ledger(tmp_path):
    """--clear-cache must not leave the previous campaign's ledger for
    perf-report to present as current."""
    store = DiskStore(tmp_path)
    _same_cell_under_two_schemas(store)
    (tmp_path / LEDGER_NAME).write_text(
        json.dumps(
            {"ledger_version": LEDGER_VERSION, "wall_clock_s": 5.0, "jobs": 1}
        ),
        "utf-8",
    )
    store.clear()
    assert not (tmp_path / LEDGER_NAME).exists()
    assert "no flight-recorder data found" in perf_report_from_store(tmp_path)


def test_ledger_of_another_version_is_ignored(tmp_path):
    """A ledger written before the sampler (inclusive layer times) is
    not presented beside sampled records."""
    (tmp_path / LEDGER_NAME).write_text(
        json.dumps({"ledger_version": 1, "wall_clock_s": 5.0, "jobs": 1}),
        "utf-8",
    )
    assert load_ledger(tmp_path) is None
    assert "no flight-recorder data found" in perf_report_from_store(tmp_path)
