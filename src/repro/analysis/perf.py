"""Campaign perf ledger + the ``perf-report`` / ``perf-compare`` views.

The flight recorder (``--profile``, :mod:`repro.obs.profiler`) leaves
two artifacts behind a campaign:

* one JSON record per executed cell in the store's volatile ``perf/``
  namespace — the wall-clock breakdown (execute / warm-restore /
  serialize / snapshot) plus the stack-sample digest (samples and
  exclusive self-time by layer, engine heap churn);
* one consolidated ``BENCH_campaign.json`` **ledger** in the cache dir —
  the campaign-level rollup of those records joined with the report's
  wall-clock, warm-start traffic, and replication budget.

This module builds the ledger (:func:`campaign_ledger`), renders the
human view over a cache dir (:func:`perf_report_from_store` → the
``python -m repro perf-report`` command), and diffs two cache dirs
(:func:`perf_compare` → ``perf-compare``).  Each text view renders the
dict its ``--json`` form serializes, so every figure is computed in one
place.  Everything here reads wall-clock data only; nothing feeds back
into cache keys or payloads.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: File name of the consolidated ledger inside a campaign cache dir.
LEDGER_NAME = "BENCH_campaign.json"

#: Schema tag of the ledger payload (bump on incompatible layout).
#: v2: layer rows carry sampled ``samples`` + exclusive ``self_s``
#: (share × execute wall-clock) instead of per-callback ``events`` +
#: inclusive time, and the fabric fastpath counters are gone.
LEDGER_VERSION = 2


# ----------------------------------------------------------------------
# Aggregation over per-cell perf records
# ----------------------------------------------------------------------


def _cell_label(row: dict) -> str:
    version = row.get("version", "?")
    fault = row.get("fault") or "baseline"
    rep = row.get("rep")
    label = f"{version}/{fault}"
    if rep is not None:
        label += f"#r{rep}"
    return label


#: Per-cell wall-clock fields, summed into the totals.
_TIMES = ("execute_s", "restore_s", "serialize_s", "snapshot_s")
#: Profile totals the ledger carries (and its fallback restores).
_PROFILE_TOTALS = ("events", "samples", "sampled_s", "self_s")
#: Engine heap-churn counters summed over cells.
_ENGINE = (
    "events_processed", "scheduled", "timer_allocs", "freelist_reuse",
    "compactions",
)


def aggregate_perf(rows: Iterable[dict]) -> dict:
    """Campaign-wide rollup of per-cell perf records.

    ``rows`` are the dicts the runner appends to ``report.perf`` (or the
    output of :func:`perf_rows`).  Missing keys degrade to zero — a
    stale or partial record never raises.  ``sampled_s`` is samples ×
    sampling interval: the CPU time the samples cover.
    """
    totals = {"cells": 0, **dict.fromkeys(_TIMES, 0.0)}
    totals.update(events=0, samples=0, sampled_s=0.0, self_s=0.0)
    layers: Dict[str, Dict[str, float]] = {}
    engine = dict.fromkeys(_ENGINE, 0)
    cells: List[dict] = []
    for row in rows:
        if not isinstance(row, dict):
            continue
        times = {key: float(row.get(key) or 0.0) for key in _TIMES}
        profile = row.get("profile") or {}
        samples = int(profile.get("samples") or 0)
        events = int(profile.get("events") or 0)
        totals["cells"] += 1
        for key, t in times.items():
            totals[key] += t
        totals["events"] += events
        totals["samples"] += samples
        totals["sampled_s"] += samples * float(profile.get("interval_s") or 0)
        totals["self_s"] += float(profile.get("self_s") or 0.0)
        for layer, stats in (profile.get("layers") or {}).items():
            dst = layers.setdefault(layer, {"samples": 0, "self_s": 0.0})
            dst["samples"] += int(stats.get("samples") or 0)
            dst["self_s"] += float(stats.get("self_s") or 0.0)
        eng = profile.get("engine") or {}
        for key in engine:
            engine[key] += int(eng.get(key) or 0)
        cells.append(
            {"cell": _cell_label(row), **times, "events": events,
             "warm_status": row.get("warm_status")}
        )
    # Stable label order (not wall-clock order) so the aggregate — and
    # the ledger rows built from it — byte-diffs cleanly across runs
    # with identical structure; display views re-sort by cost locally.
    cells.sort(key=lambda c: c["cell"])
    return {
        "totals": totals,
        "layers": {k: layers[k] for k in sorted(layers)},
        "engine": engine,
        "cells": cells,
    }


def perf_view(rows: Iterable[dict], ledger: Optional[dict] = None) -> dict:
    """:func:`aggregate_perf` of ``rows``, or the ledger's own rollup.

    The fallback serves stores whose ``perf/`` records are gone (pruned):
    the ledger's profile totals, layers, engine counters and top cells
    stand in for the per-cell aggregate.
    """
    agg = aggregate_perf(rows)
    if agg["totals"]["cells"] or not ledger:
        return agg
    profile = ledger.get("profile") or {}
    return {
        "totals": dict(
            agg["totals"],
            **{key: profile.get(key) or 0 for key in _PROFILE_TOTALS},
        ),
        "layers": profile.get("layers") or {},
        "engine": profile.get("engine") or {},
        "cells": ledger.get("top_cells") or [],
    }


# ----------------------------------------------------------------------
# The consolidated ledger (BENCH_campaign.json)
# ----------------------------------------------------------------------


def campaign_ledger(report, settings=None) -> dict:
    """JSON-ready campaign perf ledger from a ``CampaignReport``.

    Joins the per-cell perf records with the report's
    campaign-level accounting (wall clock, cache hits, warm-start
    traffic, replication budget).  Written to :data:`LEDGER_NAME` by a
    profiled campaign; read back by ``perf-report`` / ``perf-compare``.
    """
    agg = aggregate_perf(report.perf)
    ledger = {
        "kind": "campaign-perf-ledger",
        "ledger_version": LEDGER_VERSION,
        "jobs": report.jobs,
        "wall_clock_s": report.wall_clock,
        "cells": {
            "total": len(report.cells),
            "executed": report.executed,
            "cached": report.cached,
            "profiled": agg["totals"]["cells"],
        },
        "timing": {
            "cell_s": report.cell_seconds,
            "execute_s": report.execute_seconds,
            "restore_s": report.restore_seconds,
            "serialize_s": agg["totals"]["serialize_s"],
            "snapshot_s": agg["totals"]["snapshot_s"],
            "speedup": report.speedup,
            "parallelism": report.parallelism,
        },
        "warm_start": dict(report.warm_start),
        "replication": {
            "policy": report.policy,
            "reps_spent": report.reps_spent,
            "reps_ceiling": report.reps_ceiling,
            "saved_fraction": report.reps_saved_fraction,
        },
        "profile": {
            **{key: agg["totals"][key] for key in _PROFILE_TOTALS},
            "layers": agg["layers"],
            "engine": agg["engine"],
        },
        # Top 10 by execute time, then label-sorted so the committed
        # ledger is byte-stable whenever the same rows make the cut.
        "top_cells": sorted(
            sorted(agg["cells"], key=lambda c: (-c["execute_s"], c["cell"]))[
                :10
            ],
            key=lambda c: c["cell"],
        ),
    }
    if settings is not None:
        ledger["settings"] = {
            "scale": getattr(
                getattr(settings, "scale", None), "cpu_factor", None
            ),
            "seed": getattr(settings, "seed", None),
            "n_nodes": getattr(settings, "n_nodes", None),
            "fastpath": getattr(settings, "fastpath", None),
            "replications": getattr(settings, "replications", None),
        }
    return ledger


def load_ledger(cache_dir) -> Optional[dict]:
    """The cache dir's ``BENCH_campaign.json``, or None when absent, bad
    or of another :data:`LEDGER_VERSION`."""
    path = Path(cache_dir) / LEDGER_NAME
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return data if data["ledger_version"] == LEDGER_VERSION else None
    except (OSError, ValueError, LookupError, TypeError):
        return None


def perf_rows(pairs: Iterable[Tuple[dict, dict]]) -> List[dict]:
    """Per-cell perf records of the current store schema, identity merged.

    ``pairs`` are the ``(key_info, record)`` tuples ``iter_perf`` yields.
    A record whose key names another store schema is from an older
    generation of the cache: after a schema bump the same cell re-runs
    and gets a second record under its new key, so counting both would
    list it twice.  Records with no schema tag are kept.  A record whose
    profile lacks the sampler's ``interval_s`` and ``samples`` was
    written by the per-callback recorder, whose layer times are
    inclusive; it is dropped too, so it never mixes into the sampled,
    exclusive rows.
    """
    from ..experiments.store import SCHEMA_VERSION

    rows: List[dict] = []
    for key, record in pairs:
        key = key if isinstance(key, dict) else {}
        if not isinstance(record, dict):
            continue
        if key.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            continue
        profile = record.get("profile")
        if not isinstance(profile, dict) or not {
            "interval_s", "samples"
        } <= profile.keys():
            continue
        merged = dict(record)
        for field in ("version", "fault", "rep", "seed"):
            merged.setdefault(field, key.get(field))
        rows.append(merged)
    return rows


def _store_rows(cache_dir) -> List[dict]:
    from ..experiments.store import DiskStore

    return perf_rows(DiskStore(Path(cache_dir)).iter_perf())


# ----------------------------------------------------------------------
# perf-report
# ----------------------------------------------------------------------


def _pct(part: float, whole: float) -> str:
    if whole <= 0:
        return "    —"
    return f"{100.0 * part / whole:4.0f}%"


def _layer_lines(layers: Dict[str, dict], total_s: float) -> List[str]:
    lines = [f"  {'layer':14s} {'samples':>9s} {'self_s':>10s} {'share':>6s}"]
    ordered = sorted(
        layers.items(), key=lambda kv: (-kv[1].get("self_s", 0.0), kv[0])
    )
    for layer, stats in ordered:
        self_s = float(stats.get("self_s") or 0.0)
        lines.append(
            f"  {layer:14s} {int(stats.get('samples') or 0):9d}"
            f" {self_s:10.4f} {_pct(self_s, total_s):>6s}"
        )
    return lines


def _cell_lines(cells: List[dict], top: int = 15) -> List[str]:
    lines = [
        f"  {'cell':38s} {'execute':>9s} {'restore':>9s}"
        f" {'serialize':>9s} {'snapshot':>9s} {'events':>9s}"
    ]
    # The aggregate keeps cells label-sorted for byte-stable ledgers;
    # the human view wants the expensive ones first.
    cells = sorted(cells, key=lambda c: (-c["execute_s"], c["cell"]))
    for c in cells[:top]:
        lines.append(
            f"  {c['cell']:38s} {c['execute_s']:8.3f}s {c['restore_s']:8.3f}s"
            f" {c['serialize_s']:8.3f}s {c['snapshot_s']:8.3f}s"
            f" {c['events']:9d}"
        )
    if len(cells) > top:
        lines.append(f"  … and {len(cells) - top} more cell(s)")
    return lines


def _render_report(report: dict) -> str:
    source = report["source"]
    ledger = report["ledger"]
    agg = report["aggregate"]
    totals = agg["totals"]
    lines = [f"flight recorder — {source}" if source else "flight recorder"]
    if not totals["cells"] and not ledger:
        lines.append(
            "no flight-recorder data found (no perf/ records and no "
            f"{LEDGER_NAME}); run the campaign with --profile to collect"
        )
        return "\n".join(lines)
    if ledger:
        cells = ledger.get("cells") or {}
        timing = ledger.get("timing") or {}
        lines.append(
            f"campaign: {cells.get('total', '?')} cells "
            f"({cells.get('executed', '?')} executed, "
            f"{cells.get('cached', '?')} cached) on "
            f"{ledger.get('jobs', '?')} job(s), "
            f"wall-clock {float(ledger.get('wall_clock_s') or 0.0):.2f}s"
        )
        lines.append(
            f"  execute {float(timing.get('execute_s') or 0.0):.2f}s, "
            f"warm-restore {float(timing.get('restore_s') or 0.0):.2f}s "
            f"(speedup {float(timing.get('speedup') or 0.0):.2f}x, "
            f"parallelism {float(timing.get('parallelism') or 0.0):.2f}x)"
        )
        warm = ledger.get("warm_start") or {}
        if warm:
            traffic = ", ".join(f"{k}: {v}" for k, v in sorted(warm.items()))
            lines.append(f"  warm-start checkpoints — {traffic}")
        reps = ledger.get("replication") or {}
        if reps.get("reps_ceiling"):
            lines.append(
                f"  replication ({reps.get('policy', '?')}): "
                f"{reps.get('reps_spent', 0)} reps of "
                f"{reps.get('reps_ceiling', 0)} ceiling "
                f"({100.0 * float(reps.get('saved_fraction') or 0.0):.0f}% "
                "saved)"
            )
    lines.append(
        f"profiled: {totals['cells'] or len(agg['cells'])} cell record(s), "
        f"{totals['events']} events, {totals['samples']} stack samples"
    )
    if totals["samples"]:
        lines.append(
            f"sample coverage: {totals['sampled_s']:.2f}s of sampled CPU "
            f"time over {totals['self_s']:.2f}s of execute wall-clock "
            f"({_pct(totals['sampled_s'], totals['self_s']).strip()})"
        )
    if agg["layers"]:
        lines.append("self-time by layer (exclusive, sampled):")
        lines += _layer_lines(agg["layers"], totals["self_s"])
    eng = agg["engine"]
    if eng and any(eng.values()):
        scheduled = int(eng.get("scheduled") or 0)
        reuse = int(eng.get("freelist_reuse") or 0)
        reuse_pct = f"{100.0 * reuse / scheduled:.1f}%" if scheduled else "—"
        lines.append(
            f"engine: {eng.get('events_processed', 0)} events processed, "
            f"{scheduled} timers scheduled, "
            f"{eng.get('timer_allocs', 0)} allocated "
            f"(freelist reuse {reuse_pct}), "
            f"{eng.get('compactions', 0)} heap compaction(s)"
        )
    if agg["cells"]:
        lines.append("per-cell wall-clock breakdown (top by execute time):")
        lines += _cell_lines(agg["cells"])
    return "\n".join(lines)


def render_perf_report(
    rows: List[dict],
    ledger: Optional[dict] = None,
    source: str = "",
    as_json: bool = False,
) -> str:
    """Report over per-cell perf records plus the optional ledger.

    ``as_json`` returns the report dict the text view renders, as stable
    JSON: sorted keys, label-sorted per-cell rows (see
    :func:`aggregate_perf`), so tracking the bench trajectory is a
    ``jq``/diff affair instead of scraping the text report.
    """
    report = {
        "kind": "perf-report",
        "source": source,
        "aggregate": perf_view(rows, ledger),
        "ledger": ledger,
    }
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True)
    return _render_report(report)


def perf_report_from_store(cache_dir, as_json: bool = False) -> str:
    """The ``perf-report`` command body: render one cache dir."""
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        raise ValueError(f"{cache_dir}: not a directory")
    return render_perf_report(
        _store_rows(cache_dir), load_ledger(cache_dir), str(cache_dir), as_json
    )


# ----------------------------------------------------------------------
# perf-compare
# ----------------------------------------------------------------------

#: Totals diffed by perf-compare (``*_s`` in seconds, the rest counts).
_COMPARED_TOTALS = _TIMES + ("events", "samples")


def _compare(dir_a, dir_b) -> dict:
    """The ``perf-compare --json`` payload; the text view renders it.

    ``comparable`` is False when either side has no flight-recorder data
    at all — the CLI maps that to a non-zero exit so CI catches a
    perf-smoke job that silently profiled nothing.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    ledger_a, ledger_b = load_ledger(dir_a), load_ledger(dir_b)
    agg_a = perf_view(_store_rows(dir_a), ledger_a)
    agg_b = perf_view(_store_rows(dir_b), ledger_b)
    profiled = {
        "a": bool(agg_a["totals"]["cells"] or ledger_a),
        "b": bool(agg_b["totals"]["cells"] or ledger_b),
    }

    def delta(a: Optional[float], b: Optional[float]) -> dict:
        a = float(a or 0.0)
        b = float(b or 0.0)
        return {
            "a": a,
            "b": b,
            "delta": b - a,
            "relative": (b - a) / a if a else None,
        }

    return {
        "kind": "perf-compare",
        "a": str(dir_a),
        "b": str(dir_b),
        "profiled": profiled,
        "comparable": profiled["a"] and profiled["b"],
        "wall_clock_s": delta(
            (ledger_a or {}).get("wall_clock_s"),
            (ledger_b or {}).get("wall_clock_s"),
        ),
        "totals": {
            key: delta(agg_a["totals"][key], agg_b["totals"][key])
            for key in _COMPARED_TOTALS
        },
        "layers": {
            layer: delta(
                (agg_a["layers"].get(layer) or {}).get("self_s"),
                (agg_b["layers"].get(layer) or {}).get("self_s"),
            )
            for layer in sorted(set(agg_a["layers"]) | set(agg_b["layers"]))
        },
    }


def _delta_line(label: str, d: dict, unit: str = "s") -> str:
    if d["relative"] is not None:
        rel = f"{100.0 * d['relative']:+7.1f}%"
    elif d["b"] > 0:
        rel = "   new"
    else:
        rel = "     ="
    return f"  {label:28s} {d['a']:12.4f}{unit} {d['b']:12.4f}{unit} {rel}"


def perf_compare(dir_a, dir_b, as_json: bool = False) -> Tuple[str, bool]:
    """Compare two profiled cache dirs; returns ``(text, comparable)``.

    ``as_json`` returns the A/B deltas as stable JSON instead, under the
    same comparability flag (the CLI exits non-zero when it is False).
    """
    cmp = _compare(dir_a, dir_b)
    if as_json:
        return json.dumps(cmp, indent=2, sort_keys=True), cmp["comparable"]
    lines = [f"perf-compare — A: {cmp['a']}  B: {cmp['b']}"]
    if not cmp["comparable"]:
        for side in ("a", "b"):
            if not cmp["profiled"][side]:
                lines.append(
                    f"{side.upper()} ({cmp[side]}): no flight-recorder data "
                    "(run with --profile)"
                )
        return "\n".join(lines), False
    lines.append(f"  {'metric':28s} {'A':>13s} {'B':>13s} {'Δ':>8s}")
    wall = cmp["wall_clock_s"]
    if wall["a"] or wall["b"]:
        lines.append(_delta_line("wall_clock", wall))
    for key in _COMPARED_TOTALS:
        unit = "s" if key.endswith("_s") else " "
        lines.append(_delta_line(key, cmp["totals"][key], unit))
    if cmp["layers"]:
        lines.append("self-time by layer:")
        for layer, d in cmp["layers"].items():
            lines.append(_delta_line(f"layer.{layer}", d))
    return "\n".join(lines), True
