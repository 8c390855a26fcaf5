"""Integration tests: the full PRESS cluster under every fault class.

These are compressed versions of the paper's phase-1 experiments, run at
SMOKE scale — each asserts the *qualitative* behaviour the corresponding
figure shows.
"""

import pytest

from repro.faults.spec import FaultKind, FaultSpec
from repro.obs.events import WORKLOAD_REQUEST_DONE
from repro.press.cluster import SMOKE_SCALE, PressCluster
from repro.press.config import ALL_VERSIONS


def make(version, seed=3, **kw):
    cluster = PressCluster(
        ALL_VERSIONS[version], scale=SMOKE_SCALE, seed=seed, **kw
    )
    cluster.start()
    return cluster


def members_of(cluster):
    return {n: sorted(s.members) for n, s in cluster.servers.items()}


def test_back_to_back_clusters_draw_identical_request_ids():
    """Request ids come from each cluster's own engine, so two clusters
    built one after the other in one process, with no reset between
    them, number their requests identically."""

    def done_requests():
        c = make("TCP-PRESS")
        done = []
        c.bus.subscribe(
            lambda ev: done.append((ev.fields["client"], ev.fields["req_id"])),
            [WORKLOAD_REQUEST_DONE],
        )
        c.run_until(10.0)
        return done

    first = done_requests()
    assert first and min(req_id for _client, req_id in first) == 1
    assert done_requests() == first


FULL = ["node0", "node1", "node2", "node3"]
SPLINTER = {"node0": ["node0", "node1", "node3"],
            "node1": ["node0", "node1", "node3"],
            "node2": ["node2"],
            "node3": ["node0", "node1", "node3"]}


class TestFaultFree:
    @pytest.mark.parametrize("version", list(ALL_VERSIONS))
    def test_steady_state_serves_offered_load(self, version):
        c = make(version)
        c.run_until(60.0)
        measured = c.measured_rate(15.0, 60.0)
        offered = c.workload.total_rate * c.scale.report_factor
        assert measured == pytest.approx(offered, rel=0.12)
        assert c.monitor.availability() > 0.99

    def test_throughput_ordering_follows_table1(self):
        rates = {}
        for version in ALL_VERSIONS:
            c = make(version, utilization=1.05)
            c.run_until(60.0)
            rates[version] = c.measured_rate(15.0, 60.0)
        assert rates["TCP-PRESS"] < rates["VIA-PRESS-0"]
        assert rates["VIA-PRESS-0"] < rates["VIA-PRESS-5"]

    def test_prewarm_gives_high_hit_ratio(self):
        c = make("TCP-PRESS")
        c.run_until(40.0)
        for server in c.servers.values():
            assert server.cache.hit_ratio() > 0.85

    def test_requests_are_forwarded_for_locality(self):
        c = make("VIA-PRESS-5")
        c.run_until(40.0)
        total_fwd = sum(s.requests_forwarded for s in c.servers.values())
        total = sum(s.requests_handled for s in c.servers.values())
        assert total_fwd / total > 0.5  # ~3/4 in a warmed 4-node cluster


class TestLinkFault:
    """Figure 2."""

    def _link_fault(self, version):
        c = make(version)
        c.mendosus.schedule(
            FaultSpec(FaultKind.LINK_DOWN, target="node2", at=30.0, duration=40.0)
        )
        return c

    def test_tcp_press_stalls_whole_cluster(self):
        c = self._link_fault("TCP-PRESS")
        c.run_until(65.0)
        stall = c.measured_rate(45.0, 65.0)
        normal = c.measured_rate(10.0, 30.0)
        assert stall < normal * 0.1
        assert members_of(c)["node0"] == FULL  # no reconfiguration

    def test_tcp_press_recovers_after_repair_without_reconfiguring(self):
        c = self._link_fault("TCP-PRESS")
        c.run_until(180.0)
        assert c.measured_rate(140.0, 180.0) > c.measured_rate(10, 30) * 0.8
        assert members_of(c)["node0"] == FULL

    def test_heartbeats_splinter_in_about_15s(self):
        c = self._link_fault("TCP-PRESS-HB")
        c.run_until(120.0)
        assert members_of(c) == SPLINTER
        det = [t for t in c.annotations.times("reconfigured") if t >= 30.0]
        assert det and 40.0 <= det[0] <= 50.0

    def test_via_detects_almost_instantly(self):
        c = self._link_fault("VIA-PRESS-5")
        c.run_until(40.0)
        det = [t for t in c.annotations.times("reconfigured") if t >= 30.0]
        assert det and det[0] - 30.0 < 2.0

    @pytest.mark.parametrize("version", ["TCP-PRESS-HB", "VIA-PRESS-0"])
    def test_partitions_never_remerge_without_operator(self, version):
        """The paper's surprise: no automatic merge after the link heals."""
        c = self._link_fault(version)
        c.run_until(160.0)
        assert members_of(c) == SPLINTER
        assert c.is_partitioned()

    def test_operator_reset_restores_full_cluster(self):
        c = self._link_fault("VIA-PRESS-5")
        c.run_until(120.0)
        assert c.operator_reset()
        c.run_until(180.0)
        assert members_of(c)["node2"] == FULL
        assert not c.is_partitioned()

    def test_operator_reset_noop_when_whole(self):
        c = make("TCP-PRESS")
        c.run_until(30.0)
        assert not c.operator_reset()


class TestNodeCrash:
    """Figure 3."""

    def _crash(self, version):
        c = make(version)
        c.mendosus.schedule(FaultSpec(FaultKind.NODE_CRASH, target="node2", at=30.0))
        return c

    def test_tcp_press_rejoin_disregarded(self):
        """The rebooted node's join attempts are ignored; it ends up a
        stranded singleton while the others form a 3-node group."""
        c = self._crash("TCP-PRESS")
        c.run_until(250.0)
        assert members_of(c)["node2"] == ["node2"]
        assert members_of(c)["node0"] == ["node0", "node1", "node3"]
        assert c.annotations.first("join-gave-up") is not None

    @pytest.mark.parametrize("version", ["TCP-PRESS-HB", "VIA-PRESS-5"])
    def test_fast_detectors_reintegrate_fully(self, version):
        c = self._crash(version)
        c.run_until(250.0)
        assert members_of(c) == {n: FULL for n in FULL}
        assert c.annotations.first("rejoined") is not None

    def test_reboot_restarts_press_automatically(self):
        c = self._crash("VIA-PRESS-0")
        c.run_until(150.0)
        assert c.nodes["node2"].process.running
        assert c.nodes["node2"].process.incarnation == 2


class TestMemoryFaults:
    """Figure 4."""

    def test_kernel_memory_stalls_tcp_press(self):
        c = make("TCP-PRESS")
        c.mendosus.schedule(
            FaultSpec(FaultKind.KERNEL_MEMORY, target="node2", at=30.0, duration=40.0)
        )
        c.run_until(65.0)
        assert c.measured_rate(45.0, 65.0) < c.measured_rate(10, 30) * 0.15

    def test_kernel_memory_splinters_tcp_hb(self):
        c = make("TCP-PRESS-HB")
        c.mendosus.schedule(
            FaultSpec(FaultKind.KERNEL_MEMORY, target="node2", at=30.0, duration=40.0)
        )
        c.run_until(120.0)
        assert members_of(c)["node0"] == ["node0", "node1", "node3"]

    @pytest.mark.parametrize("version", ["VIA-PRESS-0", "VIA-PRESS-5"])
    def test_kernel_memory_does_not_touch_via(self, version):
        """Pre-allocation makes VIA immune to the allocator fault."""
        c = make(version)
        c.mendosus.schedule(
            FaultSpec(FaultKind.KERNEL_MEMORY, target="node2", at=30.0, duration=40.0)
        )
        c.run_until(75.0)
        during = c.measured_rate(32.0, 70.0)
        before = c.measured_rate(10.0, 30.0)
        assert during > before * 0.9
        assert members_of(c)["node0"] == FULL

    def test_pin_fault_sheds_zero_copy_cache(self):
        c = make("VIA-PRESS-5")
        c.mendosus.schedule(
            FaultSpec(FaultKind.MEMORY_PINNING, target="node2", at=30.0, duration=60.0)
        )
        c.run_until(95.0)
        node2 = c.servers["node2"]
        others = [c.servers[n].cache.hit_ratio() for n in ("node0", "node1")]
        assert node2.cache.pin_failures > 0
        assert node2.cache.hit_ratio() < min(others)

    @pytest.mark.parametrize("version", ["TCP-PRESS", "VIA-PRESS-0"])
    def test_pin_fault_ignored_without_dynamic_pinning(self, version):
        c = make(version)
        c.mendosus.schedule(
            FaultSpec(FaultKind.MEMORY_PINNING, target="node2", at=30.0, duration=40.0)
        )
        c.run_until(75.0)
        assert c.measured_rate(32.0, 70.0) > c.measured_rate(10, 30) * 0.9


class TestApplicationFaults:
    """Figure 5 and the crash/hang classes."""

    def test_app_crash_recovers_via_restart_and_rejoin(self):
        c = make("VIA-PRESS-5")
        c.mendosus.schedule(FaultSpec(FaultKind.APP_CRASH, target="node2", at=30.0))
        c.run_until(120.0)
        assert members_of(c) == {n: FULL for n in FULL}
        assert c.nodes["node2"].daemon.restarts == 1

    def test_null_pointer_harmless_on_tcp(self):
        c = make("TCP-PRESS")
        c.mendosus.schedule(
            FaultSpec(FaultKind.BAD_PARAM_NULL, target="node2", at=30.0)
        )
        c.run_until(90.0)
        assert all(s.fail_fasts == 0 for s in c.servers.values())
        assert c.measured_rate(35.0, 90.0) > c.measured_rate(10, 30) * 0.9

    def test_null_pointer_kills_one_via0_process(self):
        c = make("VIA-PRESS-0")
        c.mendosus.schedule(
            FaultSpec(FaultKind.BAD_PARAM_NULL, target="node2", at=30.0)
        )
        c.run_until(120.0)
        assert sum(s.fail_fasts for s in c.servers.values()) == 1
        assert c.servers["node2"].fail_fasts == 1
        assert members_of(c)["node0"] == FULL  # recovered via restart

    def test_null_pointer_kills_two_rdma_processes(self):
        """Remote writes diffuse the fault to both endpoints."""
        c = make("VIA-PRESS-5")
        c.mendosus.schedule(
            FaultSpec(FaultKind.BAD_PARAM_NULL, target="node2", at=30.0)
        )
        c.run_until(120.0)
        assert sum(s.fail_fasts for s in c.servers.values()) == 2
        assert members_of(c)["node0"] == FULL

    def test_off_by_size_fail_fasts_tcp_receiver(self):
        c = make("TCP-PRESS")
        c.mendosus.schedule(
            FaultSpec(FaultKind.BAD_PARAM_SIZE, target="node2", at=30.0, off_by_n=21)
        )
        c.run_until(150.0)
        assert sum(s.fail_fasts for s in c.servers.values()) == 1
        assert c.servers["node2"].fail_fasts == 0  # receiver dies, not sender

    def test_app_hang_stalls_tcp_but_not_via_cluster(self):
        specs = lambda: FaultSpec(
            FaultKind.APP_HANG, target="node2", at=30.0, duration=40.0
        )
        tcp = make("TCP-PRESS")
        tcp.mendosus.schedule(specs())
        tcp.run_until(70.0)
        via = make("VIA-PRESS-5")
        via.mendosus.schedule(specs())
        via.run_until(70.0)
        tcp_during = tcp.measured_rate(45.0, 70.0) / tcp.measured_rate(10, 30)
        via_during = via.measured_rate(45.0, 70.0) / via.measured_rate(10, 30)
        assert tcp_during < 0.15  # whole cluster waits
        assert via_during > 0.35  # only the hung node's share suffers

    def test_app_hang_tcp_press_deduces_no_fault(self):
        c = make("TCP-PRESS")
        c.mendosus.schedule(
            FaultSpec(FaultKind.APP_HANG, target="node2", at=30.0, duration=40.0)
        )
        c.run_until(150.0)
        assert members_of(c)["node0"] == FULL
        assert c.measured_rate(110.0, 150.0) > c.measured_rate(10, 30) * 0.8

    def test_app_hang_tcp_hb_splinters_incorrectly(self):
        c = make("TCP-PRESS-HB")
        c.mendosus.schedule(
            FaultSpec(FaultKind.APP_HANG, target="node2", at=30.0, duration=40.0)
        )
        c.run_until(150.0)
        assert "node2" not in members_of(c)["node0"]


class TestSwitchFault:
    def test_switch_fault_outage_for_everyone(self):
        c = make("VIA-PRESS-5")
        c.mendosus.schedule(
            FaultSpec(FaultKind.SWITCH_DOWN, at=30.0, duration=30.0)
        )
        c.run_until(55.0)
        assert c.measured_rate(35.0, 55.0) == 0.0
