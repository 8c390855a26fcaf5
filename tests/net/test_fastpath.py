"""Unit tests for the fabric's event-reduction fast path.

Every test drives the same scenario through a fast-path fabric and a
reference fabric (``fastpath=False``) and asserts the observable outcome
— delivery timestamps, ordering, losses, error reports, counters — is
exactly identical, while the fast path uses fewer heap events.
"""

import pytest

from repro.net.fabric import Fabric
from repro.net.link import intra_cluster_kind
from repro.net.packet import Frame
from repro.sim.engine import Engine


def build(fastpath, names=("a", "b", "c"), **kw):
    e = Engine()
    fabric = Fabric(e, fastpath=fastpath)
    nics = {n: fabric.attach(n, **kw) for n in names}
    log = []
    for n in names:
        nics[n].on_receive(
            lambda f, _n=n: log.append((e.now, _n, f.frame_id, f.payload))
        )
    return e, fabric, nics, log


def frame(src, dst, size=1000, kind="x", payload=None):
    return Frame(src=src, dst=dst, size=size, kind=kind, payload=payload)


def run_both(scenario, **kw):
    """Run ``scenario(engine, fabric, nics)`` in both modes; return logs."""
    results = {}
    for fastpath in (True, False):
        e, fabric, nics, log = build(fastpath, **kw)
        scenario(e, fabric, nics)
        e.run()
        results[fastpath] = (e, fabric, nics, log)
    return results


def assert_identical(results):
    fast = results[True]
    slow = results[False]
    assert fast[3] == slow[3]  # timestamps, order, ids, payloads
    assert fast[1].frames_delivered == slow[1].frames_delivered
    assert fast[1].frames_lost == slow[1].frames_lost
    assert_counters_identical(fast[1], slow[1])
    for n in fast[2]:
        assert fast[2][n].frames_sent == slow[2][n].frames_sent
        assert fast[2][n].frames_received == slow[2][n].frames_received
    return fast, slow


def assert_counters_identical(fast_fabric, slow_fabric):
    assert (
        fast_fabric.switch.frames_forwarded
        == slow_fabric.switch.frames_forwarded
    )
    for n in fast_fabric.links:
        assert (
            fast_fabric.links[n].frames_carried
            == slow_fabric.links[n].frames_carried
        ), n


def test_burst_identical_timestamps_fewer_events():
    def scenario(e, fabric, nics):
        for i in range(20):
            nics["a"].send(frame("a", "b", payload=i))

    fast, slow = assert_identical(run_both(scenario))
    assert len(fast[3]) == 20
    assert fast[0].events_processed < slow[0].events_processed


def test_mixed_sources_share_destination_serializer():
    """Reservations from several sources splice in switch-exit order."""

    def scenario(e, fabric, nics):
        for i in range(10):
            nics["a"].send(frame("a", "c", size=3000, payload=("a", i)))
            nics["b"].send(frame("b", "c", size=50, payload=("b", i)))

    fast, slow = assert_identical(run_both(scenario))
    assert len(fast[3]) == 20


def test_train_equals_per_frame_submission():
    def per_frame(e, fabric, nics):
        for i in range(12):
            nics["a"].send(frame("a", "b", payload=i))

    def train(e, fabric, nics):
        nics["a"].send_train([frame("a", "b", payload=i) for i in range(12)])

    e1, f1, n1, log1 = build(True)
    per_frame(e1, f1, n1)
    e1.run()
    e2, f2, n2, log2 = build(True)
    train(e2, f2, n2)
    e2.run()
    assert log1 == log2
    assert f1.frames_delivered == f2.frames_delivered
    assert n1["a"].frames_sent == n2["a"].frames_sent


def test_midflight_link_failure_materializes():
    """A link fault while fast frames are in flight: identical losses."""

    def scenario(e, fabric, nics):
        for i in range(15):
            nics["a"].send(frame("a", "b", size=125_000, payload=i))
        # Lands while part of the burst is still on the wire.
        e.call_after(0.004, fabric.link("b").fail)

    fast, slow = assert_identical(run_both(scenario, reports_errors=False))
    assert fast[1].frames_lost > 0  # the fault actually bit


def test_midflight_node_crash_reports_errors():
    """SAN semantics survive materialization: same error reports."""
    errors = {}

    def make(fastpath):
        e, fabric, nics, log = build(fastpath, reports_errors=True)
        errs = []
        nics["a"].on_error(errs.append)
        for i in range(10):
            nics["a"].send(frame("a", "b", size=125_000, kind="via-msg", payload=i))
        e.call_after(0.003, nics["b"].power_off)
        e.run()
        errors[fastpath] = errs
        return e, fabric, nics, log

    fast = make(True)
    slow = make(False)
    assert fast[3] == slow[3]
    assert errors[True] == errors[False]
    assert errors[True]  # the crash was observed


def test_switch_failure_midflight():
    def scenario(e, fabric, nics):
        for i in range(10):
            nics["a"].send(frame("a", "b", size=125_000, payload=i))
        e.call_after(0.003, fabric.switch.fail)

    assert_identical(run_both(scenario, reports_errors=False))


def test_kind_filtered_link_forces_slow_path():
    """A kind-selective link fault must disable the fast path entirely
    (the fast path cannot evaluate per-kind filters in closed form)."""

    def scenario(e, fabric, nics):
        fabric.link("b").fail_for(intra_cluster_kind)
        nics["a"].send(frame("a", "b", kind="via-msg", payload="dropped"))
        nics["a"].send(frame("a", "b", kind="http-req", payload="carried"))

    fast, slow = assert_identical(run_both(scenario, reports_errors=False))
    delivered = [entry[3] for entry in fast[3]]
    assert delivered == ["carried"]


def test_eligibility_cache_invalidated_by_faults():
    e, fabric, nics, log = build(True)
    assert fabric.fast_eligible("a", "b")
    fabric.link("b").fail()
    assert not fabric.fast_eligible("a", "b")
    fabric.link("b").repair()
    assert fabric.fast_eligible("a", "b")
    fabric.switch.fail()
    assert not fabric.fast_eligible("a", "b")
    fabric.switch.repair()
    assert fabric.fast_eligible("a", "b")
    nics["b"].power_off()
    assert not fabric.fast_eligible("a", "b")
    nics["b"].power_on()
    assert fabric.fast_eligible("a", "b")
    # Reference mode never claims eligibility.
    e2, fabric2, _, _ = build(False)
    assert not fabric2.fast_eligible("a", "b")


def test_repair_midflight_keeps_results_identical():
    """Fail *and* repair while traffic flows: two materializations."""

    def scenario(e, fabric, nics):
        def burst():
            for i in range(8):
                nics["a"].send(frame("a", "b", size=60_000, payload=i))

        burst()
        e.call_after(0.002, fabric.link("b").fail)
        e.call_after(0.004, fabric.link("b").repair)
        e.call_after(0.005, burst)

    assert_identical(run_both(scenario, reports_errors=False))


@pytest.mark.parametrize("fault", [None, "link", "switch"])
def test_counters_match_when_a_run_stops_mid_flight(fault):
    """A run cut between a frame's hops reports the reference counters.

    The cuts sweep the burst so that frames sit before the switch,
    inside it, and between switch exit and delivery; a fault right at a
    cut then materializes frames whose hops were settled early.
    """
    cuts = [i * 0.0005 for i in range(1, 24)]
    results = {}
    for fastpath in (True, False):
        e, fabric, nics, log = build(fastpath, reports_errors=False)
        for i in range(12):
            nics["a"].send(frame("a", "b", size=60_000, payload=i))
            nics["c"].send(frame("c", "b", size=20_000, payload=i))
        seen = []
        for t in cuts:
            e.run(until=t)
            fabric.settle_counters()
            seen.append(
                (
                    fabric.switch.frames_forwarded,
                    {n: link.frames_carried for n, link in fabric.links.items()},
                )
            )
            if fault == "link" and t == cuts[8]:
                fabric.link("b").fail()
            elif fault == "switch" and t == cuts[8]:
                fabric.switch.fail()
        e.run()
        fabric.settle_counters()
        results[fastpath] = (seen, fabric, log)
    assert results[True][0] == results[False][0]
    assert results[True][2] == results[False][2]
    assert_counters_identical(results[True][1], results[False][1])
