"""Fast path vs. reference mode: bit-identical experiment results.

The event-reduction fast path (see ``repro.net.fabric``) must not change
a single simulated result — only how many heap events it takes to get
there.  These tests run full phase-1 fault cells twice, once with the
fast path and once in ``--no-fastpath`` reference mode, and diff the
complete timeline (throughput series, failure series, annotations,
availability) and every derived record field bit-for-bit.

The cells are chosen to cross the interesting machinery: a LAN link
fault on TCP exercises mid-flight materialization plus silent loss and
retransmission; an application crash on a SAN VIA version exercises the
synchronous error path, train submission fallback, and restart.
"""

import dataclasses

import pytest

from repro.experiments.phase1 import run_single_fault
from repro.experiments.settings import Phase1Settings
from repro.faults.spec import FaultKind
from repro.press.cluster import SMOKE_SCALE
from repro.press.config import ALL_VERSIONS_EXTENDED

CELLS = (
    ("TCP-PRESS", FaultKind.LINK_DOWN),
    ("VIA-PRESS-5", FaultKind.APP_CRASH),
)

SEEDS = (1234, 77)


def _settings(seed: int, fastpath: bool) -> Phase1Settings:
    return Phase1Settings(
        scale=SMOKE_SCALE,
        seed=seed,
        warm=15.0,
        fault_at=30.0,
        fault_duration=40.0,
        post_recovery=60.0,
        tail=40.0,
        replications=1,
        fastpath=fastpath,
    )


def _run(version: str, kind: FaultKind, seed: int, fastpath: bool):
    record, cluster = run_single_fault(
        ALL_VERSIONS_EXTENDED[version], kind, _settings(seed, fastpath)
    )
    return record, cluster


@pytest.mark.parametrize("version,kind", CELLS, ids=lambda v: str(getattr(v, "value", v)))
@pytest.mark.parametrize("seed", SEEDS)
def test_fault_cell_bit_identical(version, kind, seed):
    fast_record, fast_cluster = _run(version, kind, seed, fastpath=True)
    slow_record, slow_cluster = _run(version, kind, seed, fastpath=False)

    # The entire timeline, exact — no tolerances anywhere.
    assert dataclasses.asdict(fast_record.timeline) == dataclasses.asdict(
        slow_record.timeline
    )

    # Every derived scalar of the experiment record.
    for field in (
        "normal_throughput",
        "injected_at",
        "cleared_at",
        "end_time",
        "reset_at",
        "recovered_fully",
        "detection_at",
        "rejoined_at",
    ):
        assert getattr(fast_record, field) == getattr(slow_record, field), field

    # End-of-run network counters are part of the contract too.
    assert (
        fast_cluster.fabric.frames_delivered
        == slow_cluster.fabric.frames_delivered
    )
    assert fast_cluster.fabric.frames_lost == slow_cluster.fabric.frames_lost
    for name in fast_cluster.fabric.nics:
        f_nic = fast_cluster.fabric.nics[name]
        s_nic = slow_cluster.fabric.nics[name]
        assert f_nic.frames_sent == s_nic.frames_sent, name
        assert f_nic.frames_received == s_nic.frames_received, name
    # The whole telemetry registry, as a campaign cell stores it.
    assert fast_cluster.metrics.summary() == slow_cluster.metrics.summary()

    # Sanity: the fast path actually engaged — same results from
    # meaningfully fewer heap events, otherwise this test proves nothing.
    assert (
        fast_cluster.engine.events_processed
        < slow_cluster.engine.events_processed
    )
