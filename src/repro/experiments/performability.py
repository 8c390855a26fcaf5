"""Figures 6-10 and the §9 crossover: phase-2 model evaluations.

All of these consume the memoized phase-1 campaign (every version ×
every fault) and vary only the assumed fault environment — exactly how
the paper reuses its measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.faultload import (
    DAY,
    MONTH,
    WEEK,
    FaultLoad,
    packet_drop_component,
    software_bug_component,
    system_bug_component,
)
from ..core.metric import performability_of
from ..core.model import PerformabilityResult, ProfileSet, evaluate
from ..core.sensitivity import crossover_multiplier
from ..faults.spec import FAULT_CATALOG, FaultKind, category_of
from .campaign import full_campaign
from .settings import DEFAULT_SETTINGS, Phase1Settings

TCP_VERSIONS = ("TCP-PRESS", "TCP-PRESS-HB")
VIA_VERSIONS = ("VIA-PRESS-0", "VIA-PRESS-3", "VIA-PRESS-5")


# ---------------------------------------------------------------------------
# CI bands: phase-2 metrics with replication uncertainty
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricBand:
    """One phase-2 metric with its replication confidence interval.

    ``value`` is the point estimate from the *merged* campaign (the
    number every fixed-rep report has always printed); the band is a
    Student-t interval over per-replicate evaluations, so it reflects
    seed-to-seed spread — zero when fewer than two complete replicates
    exist.
    """

    metric: str  # "AA" | "AT" | "P"
    value: float
    mean: float
    half_width: float
    n: int
    confidence: float

    @property
    def lo(self) -> float:
        return self.mean - self.half_width

    @property
    def hi(self) -> float:
        return self.mean + self.half_width

    def covers(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def _usable_load(load: FaultLoad, profiles: ProfileSet) -> FaultLoad:
    """The components of ``load`` this (possibly partial) set measured."""
    return FaultLoad(components=tuple(c for c in load if c.key in profiles))


def banded_evaluation(
    profiles: ProfileSet,
    replicates: List[ProfileSet],
    load: FaultLoad,
    confidence: float = 0.95,
) -> Dict[str, MetricBand]:
    """AA / AT / P of the merged campaign, banded by replicate spread.

    Each replicate ProfileSet (one complete replication of every stream,
    as collected on ``CampaignReport.replicates``) is evaluated against
    the same fault load; the per-replicate metrics give the Student-t
    half widths around the merged point estimates.
    """
    from .repeaters import ci_half_width, sample_stats

    merged = evaluate(profiles, _usable_load(load, profiles))
    point = {
        "AA": merged.availability,
        "AT": merged.average_throughput,
        "P": performability_of(merged),
    }
    samples: Dict[str, List[float]] = {"AA": [], "AT": [], "P": []}
    for ps in replicates:
        r = evaluate(ps, _usable_load(load, ps))
        samples["AA"].append(r.availability)
        samples["AT"].append(r.average_throughput)
        samples["P"].append(performability_of(r))
    out: Dict[str, MetricBand] = {}
    for metric in ("AA", "AT", "P"):
        xs = samples[metric]
        mean = sample_stats(xs)[0] if xs else point[metric]
        out[metric] = MetricBand(
            metric=metric,
            value=point[metric],
            mean=mean,
            half_width=ci_half_width(xs, confidence),
            n=len(xs),
            confidence=confidence,
        )
    return out


def campaign_loads() -> Dict[str, FaultLoad]:
    """The two fault loads a campaign's phase 2 is reported under:
    Table 3 with application faults once a day and once a month."""
    return {
        "app faults 1/day": FaultLoad.table3(app_fault_mttf=DAY),
        "app faults 1/month": FaultLoad.table3(app_fault_mttf=MONTH),
    }


def evaluate_campaign(
    campaign: Mapping[str, ProfileSet],
    replicates: Optional[Mapping[str, List[ProfileSet]]] = None,
    loads: Optional[Mapping[str, FaultLoad]] = None,
) -> Dict[str, Dict[str, tuple]]:
    """Phase 2 of a campaign: ``{load: {version: (result, bands, skipped)}}``.

    Each load (default :func:`campaign_loads`) is restricted to the
    fault sources the version measured — a partial campaign evaluates
    against what it has, and ``skipped`` counts the sources left out —
    then evaluated on the merged profiles and banded over the version's
    complete replicates (``bands`` have ``n < 2`` without them).
    """
    out: Dict[str, Dict[str, tuple]] = {}
    if loads is None:
        loads = campaign_loads()
    for label, load in loads.items():
        rows = out[label] = {}
        for version, profiles in campaign.items():
            usable = _usable_load(load, profiles)
            reps = list((replicates or {}).get(version) or [])
            rows[version] = (
                evaluate(profiles, usable),
                banded_evaluation(profiles, reps, usable),
                len(load) - len(usable),
            )
    return out


#: Base per-node application fault rate used in the §6.3 sensitivity
#: figures.  The paper studies the 1/day..1/month band and does not state
#: which point its sensitivity plots fix; the once-per-month end — the
#: optimistic rate for a mature, well-tested service — reproduces Figure
#: 10's published outcome (two of three VIA versions below the TCP
#: baseline, all below TCP-HB) and leaves Figures 7-9's crossovers at the
#: published positions.
SENSITIVITY_BASE_APP_MTTF = MONTH


# ---------------------------------------------------------------------------
# Figure 6: same fault load for everyone
# ---------------------------------------------------------------------------

@dataclass
class Figure6Row:
    version: str
    app_mttf: float
    availability: float
    performability: float
    unavailability_by_fault: Dict[str, float]


def run_figure6(
    settings: Phase1Settings = DEFAULT_SETTINGS,
    app_mttfs: Tuple[float, ...] = (DAY, MONTH),
) -> List[Figure6Row]:
    camp = full_campaign(settings)
    rows = []
    for version, profiles in camp.items():
        for mttf in app_mttfs:
            load = FaultLoad.table3(app_fault_mttf=mttf)
            result = evaluate(profiles, load)
            rows.append(
                Figure6Row(
                    version=version,
                    app_mttf=mttf,
                    availability=result.availability,
                    performability=performability_of(result),
                    unavailability_by_fault={
                        c.name: c.unavailability for c in result.contributions
                    },
                )
            )
    return rows


def format_figure6(rows: List[Figure6Row]) -> str:
    lines = [
        "Figure 6 — modeled unavailability and performability",
        f"{'version':14s} {'app rate':>9s} {'AA':>9s} {'unavail':>9s} {'P':>9s}"
        "   top contributors",
    ]
    for row in rows:
        label = "1/day" if abs(row.app_mttf - DAY) < 1 else "1/month"
        top = sorted(
            row.unavailability_by_fault.items(), key=lambda kv: -kv[1]
        )[:3]
        tops = ", ".join(f"{k}={v * 100:.3f}%" for k, v in top)
        lines.append(
            f"{row.version:14s} {label:>9s} {row.availability:9.5f}"
            f" {100 * (1 - row.availability):8.3f}% {row.performability:9.1f}"
            f"   {tops}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figures 7-9: single pessimistic extras for VIA
# ---------------------------------------------------------------------------

@dataclass
class SensitivityFigure:
    """P for TCP (fixed) and VIA (per extra-fault rate)."""

    name: str
    tcp: Dict[str, float]
    via: Dict[str, Dict[str, float]]  # rate label -> version -> P


def _tcp_baseline(
    camp: Dict[str, ProfileSet], base: FaultLoad
) -> Dict[str, float]:
    return {
        v: performability_of(evaluate(camp[v], base)) for v in TCP_VERSIONS
    }


def run_figure7(settings: Phase1Settings = DEFAULT_SETTINGS) -> SensitivityFigure:
    """Transient packet drops charged to VIA only (reported as a fatal
    error → the process terminates itself); TCP tolerates drops."""
    camp = full_campaign(settings)
    base = FaultLoad.table3(app_fault_mttf=SENSITIVITY_BASE_APP_MTTF)
    via = {}
    for label, mttf in (("1/day", DAY), ("1/week", WEEK), ("1/month", MONTH)):
        load = base.with_extra(packet_drop_component(mttf))
        via[label] = {
            v: performability_of(evaluate(camp[v], load)) for v in VIA_VERSIONS
        }
    return SensitivityFigure("figure7-packet-drops", _tcp_baseline(camp, base), via)


def run_figure8(settings: Phase1Settings = DEFAULT_SETTINGS) -> SensitivityFigure:
    """Extra software bugs from VIA's harder programming model.  The
    paper charges TCP one extra bug per month; VIA scales 1/day..1/month."""
    camp = full_campaign(settings)
    base = FaultLoad.table3(app_fault_mttf=SENSITIVITY_BASE_APP_MTTF)
    tcp_load = base.with_extra(software_bug_component(MONTH))
    tcp = {
        v: performability_of(evaluate(camp[v], tcp_load)) for v in TCP_VERSIONS
    }
    via = {}
    for label, mttf in (("1/day", DAY), ("1/week", WEEK), ("1/month", MONTH)):
        load = base.with_extra(software_bug_component(mttf))
        via[label] = {
            v: performability_of(evaluate(camp[v], load)) for v in VIA_VERSIONS
        }
    return SensitivityFigure("figure8-software-bugs", tcp, via)


def run_figure9(settings: Phase1Settings = DEFAULT_SETTINGS) -> SensitivityFigure:
    """System crashes from immature VIA hardware/firmware, modeled as
    switch crashes; TCP (on mature Ethernet) is charged none."""
    camp = full_campaign(settings)
    base = FaultLoad.table3(app_fault_mttf=SENSITIVITY_BASE_APP_MTTF)
    via = {}
    for label, mttf in (
        ("1/week", WEEK),
        ("1/month", MONTH),
        ("1/3months", 3 * MONTH),
    ):
        load = base.with_extra(system_bug_component(mttf))
        via[label] = {
            v: performability_of(evaluate(camp[v], load)) for v in VIA_VERSIONS
        }
    return SensitivityFigure("figure9-system-bugs", _tcp_baseline(camp, base), via)


def run_figure10(settings: Phase1Settings = DEFAULT_SETTINGS) -> SensitivityFigure:
    """The combined pessimistic VIA load: packet drops 1/month + extra
    application bugs 1/2-weeks + system failures 1/month."""
    camp = full_campaign(settings)
    base = FaultLoad.table3(app_fault_mttf=SENSITIVITY_BASE_APP_MTTF)
    load = base.with_extra(
        packet_drop_component(MONTH),
        software_bug_component(2 * WEEK),
        system_bug_component(MONTH),
    )
    via = {
        "combined": {
            v: performability_of(evaluate(camp[v], load)) for v in VIA_VERSIONS
        }
    }
    return SensitivityFigure("figure10-combined", _tcp_baseline(camp, base), via)


def format_sensitivity(fig: SensitivityFigure) -> str:
    lines = [fig.name]
    for v, p in fig.tcp.items():
        lines.append(f"  {v:14s} (baseline) P = {p:8.1f}")
    for label, row in fig.via.items():
        for v, p in row.items():
            lines.append(f"  {v:14s} @ {label:10s} P = {p:8.1f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# §9: the ~4x crossover
# ---------------------------------------------------------------------------

#: The fault classes the paper scales for the crossover statement:
#: "faults in a VIA-based server, such as switch, link, and application
#: errors".
CROSSOVER_KINDS = (
    FaultKind.SWITCH_DOWN,
    FaultKind.LINK_DOWN,
    FaultKind.APP_CRASH,
    FaultKind.APP_HANG,
    FaultKind.BAD_PARAM_NULL,
    FaultKind.BAD_PARAM_OFFSET,
    FaultKind.BAD_PARAM_SIZE,
)


def run_crossover(
    settings: Phase1Settings = DEFAULT_SETTINGS,
    tcp_version: str = "TCP-PRESS",
    app_mttf: float = WEEK,
) -> Dict[str, float]:
    """Multiplier on VIA's switch/link/application fault rates at which
    its performability drops to the TCP baseline (paper: ≈ 4×)."""
    camp = full_campaign(settings)
    base = FaultLoad.table3(app_fault_mttf=app_mttf)
    out = {}
    for via_version in VIA_VERSIONS:
        out[via_version] = crossover_multiplier(
            camp[tcp_version],
            camp[via_version],
            base,
            lambda m: base.scaled(m, CROSSOVER_KINDS),
        )
    return out
