"""Structured text reports over campaigns, profiles, and model results.

The campaign rollups (latency, attribution, subscriber errors) live here
too: the ``campaign`` report and the dashboard format the same values.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..core.faultload import FaultLoad
from ..core.metric import performability_of
from ..core.model import PerformabilityResult, ProfileSet
from ..core.stages import STAGES
from ..faults.spec import FaultKind, category_of
from .charts import bar_chart, timeline_plot


def profile_table(profiles: ProfileSet) -> str:
    """Per-fault stage table for one version's campaign measurements."""
    lines = [
        f"{profiles.version} — Tn = {profiles.normal_throughput:.0f} req/s",
        f"{'fault':32s}" + "".join(f"{s.value:>16s}" for s in STAGES),
    ]
    for key in sorted(profiles.keys()):
        p = profiles.get(key)
        cells = []
        for stage in STAGES:
            d = p.duration(stage)
            if d <= 0:
                cells.append(f"{'—':>16s}")
            else:
                cells.append(f"{d:7.1f}s@{p.throughput(stage):6.0f}")
        lines.append(f"{key:32s}" + "".join(cells))
    return "\n".join(lines)


def band_suffix(bands: Optional[Mapping], metric: str, fmt: str) -> str:
    """`` ±half_width`` of one phase-2 metric; empty below two replicates."""
    band = (bands or {}).get(metric)
    if band is None or band.n < 2:
        return ""
    return f" ±{band.half_width:{fmt}}"


def result_summary(
    result: PerformabilityResult, bands: Optional[Mapping] = None
) -> str:
    """One model evaluation: headline numbers + contribution chart.

    ``bands`` (optional) maps ``"AA"/"AT"/"P"`` to
    :class:`~repro.experiments.performability.MetricBand`; when at least
    two complete replicates back a band, the headline carries ± CI half
    widths.
    """
    pm = partial(band_suffix, bands)
    lines = [
        f"{result.version}: AA = {result.availability:.5f}{pm('AA', '.5f')}"
        f"  (unavailability {result.unavailability * 100:.3f}%)"
        f"  AT = {result.average_throughput:.0f}{pm('AT', '.0f')} req/s"
        f"  P = {performability_of(result):.1f}{pm('P', '.1f')}",
    ]
    banded = [b for b in (bands or {}).values() if b.n >= 2]
    if banded:
        b = banded[0]
        lines.append(
            f"  (±: {b.confidence:.0%} Student-t CI over {b.n} "
            "complete replicate(s))"
        )
    lines.append("unavailability contributions:")
    rows = {
        c.name: c.unavailability * 100
        for c in sorted(result.contributions, key=lambda c: -c.unavailability)
        if c.unavailability > 1e-6
    }
    lines.append(bar_chart(rows, width=30, unit="%"))
    return "\n".join(lines)


def category_breakdown(result: PerformabilityResult) -> Dict[str, float]:
    """Unavailability grouped by Table-2 category (Figure 6(a) grouping)."""
    grouping = {}
    for kind in FaultKind:
        grouping[kind.value] = category_of(kind).value
    # Sensitivity extras keep their labels.
    return result.grouped_unavailability(grouping)


def campaign_report(
    campaign: Mapping[str, ProfileSet],
    loads: Optional[Mapping[str, FaultLoad]] = None,
    replicates: Optional[Mapping[str, Iterable[ProfileSet]]] = None,
) -> str:
    """The full phase-1 + phase-2 story for a set of versions.

    ``replicates`` (optional, from ``CampaignReport.replicates``) maps a
    version to its per-replication ProfileSets; when given, the phase-2
    summaries carry Student-t CI bands on AA, AT, and P.  ``loads``
    defaults to the two campaign fault loads the dashboard renders too.
    """
    from ..experiments.performability import evaluate_campaign

    sections = ["=" * 72, "PHASE 1 — measured seven-stage profiles", "=" * 72]
    for version in campaign:
        sections.append(profile_table(campaign[version]))
        sections.append("")
    sections += ["=" * 72, "PHASE 2 — modeled performability", "=" * 72]
    phase2 = evaluate_campaign(campaign, replicates, loads)
    for label, rows in phase2.items():
        sections.append(f"--- fault load: {label} ---")
        for version, (result, bands, skipped) in rows.items():
            if skipped:
                sections.append(
                    f"(note: {skipped} fault sources without measured"
                    f" profiles were skipped for {version})"
                )
            sections.append(result_summary(result, bands))
            sections.append("")
    return "\n".join(sections)


def repetition_report(report) -> str:
    """Per-stream replication outcome of a ``CampaignReport``.

    One row per (version, fault) stream — reps spent, why the stream
    stopped, and the stream metric's CI at that moment — plus the
    campaign's reps-spent-vs-fixed savings line.
    """
    if not report.repetition:
        return ""
    lines = [
        f"replication ({report.policy} policy):",
        f"  {'stream':42s} {'reps':>4s}  {'reason':16s}"
        f" {'mean':>10s} {'rse':>7s} {'ci±':>9s}",
    ]
    for r in report.repetition:
        rse = "—" if r.rse != r.rse or r.rse == float("inf") else f"{r.rse:.4f}"
        lines.append(
            f"  {r.label:42s} {r.reps:4d}  {r.reason:16s}"
            f" {r.mean:10.4f} {rse:>7s} {r.ci_half_width:9.4f}"
        )
    ceiling = report.reps_ceiling
    line = (
        f"  reps spent: {report.reps_spent} of {ceiling} "
        f"(fixed-{report.reps_ceiling_per_stream} ceiling)"
    )
    if report.policy != "fixed":
        line += f" — {report.reps_saved_fraction * 100:.0f}% saved"
    lines.append(line)
    return "\n".join(lines)


def campaign_timing_report(report) -> str:
    """Where a campaign's wall-clock went (a ``CampaignReport``).

    Shows the executed/cached split, aggregate cell time vs. wall time
    — split into pure simulation (execute) and warm-checkpoint restore
    columns, with a ratio for each: ``speedup`` counts everything the
    cells spent, ``parallelism`` only the simulation work, so a
    campaign whose wall-clock went to unpickling checkpoints cannot
    masquerade as well-parallelized — and per-version / per-fault
    breakdowns of simulation cost.
    """
    total = len(report.cells)
    lines = [
        f"campaign: {total} cells "
        f"({report.executed} executed, {report.cached} from cache)"
        f" on {report.jobs} job{'s' if report.jobs != 1 else ''}",
        f"wall-clock {report.wall_clock:.2f}s,"
        f" execute {report.execute_seconds:.2f}s"
        f" + warm-restore {report.restore_seconds:.2f}s"
        f" ({report.speedup:.2f}x aggregate,"
        f" {report.parallelism:.2f}x execute-only)",
    ]
    by_version = {
        k: v for k, v in report.by_version().items() if v > 0
    }
    if by_version:
        lines.append("simulation seconds by version:")
        lines.append(bar_chart(by_version, width=30, unit="s"))
    by_fault = {k: v for k, v in report.by_fault().items() if v > 0}
    if by_fault:
        lines.append("simulation seconds by fault:")
        lines.append(bar_chart(by_fault, width=30, unit="s"))
    return "\n".join(lines)


def trace_summary_report(report) -> str:
    """Campaign-level run telemetry (a ``CampaignReport``).

    Aggregates the per-cell event counts recorded by the observability
    bus into one campaign-wide table, and surfaces store notices (e.g.
    "cache invalidated (schema v1→v2)") so silent re-runs become
    visible.
    """
    lines = []
    for notice in report.notices:
        lines.append(f"note: {notice}")
    totals = report.event_totals()
    instrumented = sum(1 for c in report.cells if c.telemetry)
    if not totals:
        if instrumented == 0 and report.cells:
            lines.append(
                "no run telemetry recorded (cells served from a"
                " pre-telemetry cache; re-run with --clear-cache to collect)"
            )
        return "\n".join(lines)
    lines.append(
        f"run telemetry: {sum(totals.values())} events across"
        f" {instrumented} cell(s)"
    )
    shown = dict(
        sorted(totals.items(), key=lambda kv: -kv[1])
    )
    lines.append(bar_chart(shown, width=30, unit=""))
    return "\n".join(lines)


def subscriber_errors(cells) -> Tuple[int, int]:
    """``(errors, cells with errors)`` summed over the cells' ``.telemetry``:
    how often an observer saw a partial event stream."""
    errors = error_cells = 0
    for c in cells:
        n = (c.telemetry or {}).get("subscriber_errors", 0)
        if n:
            errors += n
            error_cells += 1
    return errors, error_cells


_QUANTILE_COLUMNS = ("p50", "p95", "p99", "p999")


def latency_rollup(cells, confidence: float = 0.95) -> Dict[tuple, dict]:
    """Served-request latency per ``(version, fault-or-"baseline")`` stream.

    ``cells`` expose ``.version``, ``.fault`` and ``.observatory``.  For
    every stream with at least one latency sketch: ``n`` requests,
    ``quantiles`` mapping p50/p95/p99/p999 to ``(mean, half_width)``
    across replications (``half_width`` is the Student-t CI half width,
    ``None`` below two samples; the pair is ``None`` without samples),
    and ``stage_p95``: the mean p95 of requests completing in each online
    stage.  Streams are in sorted order; latencies are sim-seconds.
    """
    from ..experiments.repeaters import ci_half_width

    groups: Dict[tuple, list] = {}
    for c in cells:
        if c.observatory:
            groups.setdefault((c.version, c.fault or "baseline"), []).append(
                c.observatory
            )
    out: Dict[tuple, dict] = {}
    for stream, summaries in sorted(groups.items()):
        overall = [
            s["latency"]["overall"]
            for s in summaries
            if ((s.get("latency") or {}).get("overall") or {}).get("count")
        ]
        if not overall:
            continue
        quantiles = {}
        for q in _QUANTILE_COLUMNS:
            xs = [o[q] for o in overall if o.get(q) is not None]
            half = ci_half_width(xs, confidence) if len(xs) >= 2 else None
            quantiles[q] = (sum(xs) / len(xs), half) if xs else None
        stages: Dict[str, list] = {}
        for s in summaries:
            for stage, sketch in (s.get("latency") or {}).get(
                "by_stage", {}
            ).items():
                if sketch.get("p95") is not None:
                    stages.setdefault(stage, []).append(sketch["p95"])
        out[stream] = {
            "n": sum(o["count"] for o in overall),
            "quantiles": quantiles,
            "stage_p95": {
                stage: sum(v) / len(v) for stage, v in sorted(stages.items())
            },
        }
    return out


def attribution_rollup(cells) -> Dict[str, dict]:
    """Per-version sums of the cells' attribution summaries.

    ``cells`` expose ``.version`` and ``.observatory``.  Each version
    with at least one attributed request maps to ``requests``, ``lost``
    (rejects + timeouts), ``slow`` (served above the SLO) and ``mech``:
    per-mechanism ``{"lost", "slow"}`` counts, in
    :data:`~repro.obs.attribution.MECHANISMS` order.  Versions are in
    sorted order.
    """
    from ..obs.attribution import MECHANISMS

    per_version: Dict[str, dict] = {}
    for c in cells:
        att = (c.observatory or {}).get("attribution")
        if not att or not att.get("requests"):
            continue
        agg = per_version.setdefault(
            c.version,
            {
                "requests": 0,
                "lost": 0,
                "slow": 0,
                "mech": {m: {"lost": 0, "slow": 0} for m in MECHANISMS},
            },
        )
        agg["requests"] += att["requests"]
        agg["lost"] += att["total_lost"]
        agg["slow"] += att["total_slow"]
        for mech, row in att["mechanisms"].items():
            dst = agg["mech"].setdefault(mech, {"lost": 0, "slow": 0})
            dst["lost"] += row["lost"]
            dst["slow"] += row["slow"]
    return dict(sorted(per_version.items()))


def latency_band_report(report, confidence: float = 0.95) -> str:
    """Tail-latency bands per (version, fault): :func:`latency_rollup`
    of the campaign's cells, one row per stream with its ± CI half widths.
    Empty when no cell carries latency sketches (pre-observatory cache).
    """
    rollup = latency_rollup(report.cells, confidence)
    if not rollup:
        return ""
    lines = [
        "tail latency of served requests (sim-seconds; "
        f"± = {confidence:.0%} Student-t CI across replications):",
        f"  {'stream':38s} {'n':>7s}"
        + "".join(f"{q:>15s}" for q in _QUANTILE_COLUMNS),
    ]
    stage_rows = []
    for (version, fault), row in rollup.items():
        cells = []
        for q in _QUANTILE_COLUMNS:
            band = row["quantiles"][q]
            if band is None:
                cells.append(f"{'—':>15s}")
            elif band[1] is None:
                cells.append(f"{band[0]:8.4f}{'':>7s}")
            else:
                cells.append(f"{band[0]:8.4f}±{band[1]:6.4f}")
        label = version + "/" + fault
        lines.append(f"  {label:38s} {row['n']:>7d}" + "".join(cells))
        if len(row["stage_p95"]) > 1:
            parts = " ".join(
                f"{stage}:{p95:.3f}" for stage, p95 in row["stage_p95"].items()
            )
            stage_rows.append(f"  {label:38s} {parts}")
    if stage_rows:
        lines.append("per-stage p95 (stage at completion time):")
        lines += stage_rows
    return "\n".join(lines)


def attribution_report(report) -> str:
    """Per-mechanism availability-cost tables, one per version, from
    :func:`attribution_rollup` of the campaign's cells (``cost`` = lost /
    all requests).  Empty when no cell carries an attribution summary.
    """
    per_version = attribution_rollup(report.cells)
    if not per_version:
        return ""
    lines = [
        "unavailability attribution "
        "(lost = rejects + timeouts; slow = served above SLO):"
    ]
    for version, agg in per_version.items():
        n = agg["requests"]
        lines.append(
            f"  {version}: {n} requests, {agg['lost']} lost "
            f"({agg['lost'] / n * 100:.3f}% unavailable), "
            f"{agg['slow']} slow"
        )
        lines.append(
            f"    {'mechanism':22s} {'lost':>8s} {'slow':>8s}"
            f" {'charged':>8s} {'cost':>8s}"
        )
        for mech, row in agg["mech"].items():
            charged = row["lost"] + row["slow"]
            if not charged:
                continue
            lines.append(
                f"    {mech:22s} {row['lost']:8d} {row['slow']:8d}"
                f" {charged:8d} {row['lost'] / n * 100:7.3f}%"
            )
    return "\n".join(lines)


def timeline_report(record, bucket: float = 10.0) -> str:
    """Render one phase-1 record: plot + annotated instants."""
    tl = record.timeline
    markers = {record.injected_at: "F", record.cleared_at: "R"}
    if record.detection_at is not None:
        markers[record.detection_at] = "D"
    if record.reset_at is not None:
        markers[record.reset_at] = "O"
    lines = [
        f"{record.version} / {record.fault}"
        f"  (Tn = {record.normal_throughput:.0f} req/s)",
        timeline_plot(tl.series, bucket=bucket, markers=markers),
        "F=fault R=component-recovered D=detected O=operator-reset",
        f"availability over the run: {tl.availability:.4f}",
    ]
    return "\n".join(lines)
