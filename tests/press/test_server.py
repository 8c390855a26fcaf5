"""Unit-level tests of PressServer behaviours on a small live cluster."""

import pytest

from repro.press.cluster import SMOKE_SCALE, PressCluster
from repro.press.config import TCP_PRESS, VIA_PRESS_5
from repro.transports.base import Message


@pytest.fixture
def cluster():
    c = PressCluster(TCP_PRESS, n_nodes=3, scale=SMOKE_SCALE, seed=21)
    c.start()
    c.run_until(10.0)
    return c


def test_prewarm_partitions_hot_files_across_nodes(cluster):
    caches = [set(s.cache.keys()) for s in cluster.servers.values()]
    assert all(caches)
    for i, a in enumerate(caches):
        for b in caches[i + 1:]:
            assert not (a & b)  # disjoint placement


def test_directory_routes_to_cache_owner(cluster):
    s0 = cluster.servers["node0"]
    a_file = next(iter(cluster.servers["node1"].cache.keys()))
    assert s0.directory[a_file] == "node1"


def test_forwarded_request_served_remotely(cluster):
    before = cluster.servers["node1"].remote_serves
    cluster.run_until(40.0)
    assert cluster.servers["node1"].remote_serves > before


def test_cache_updates_propagate_to_peers():
    c = PressCluster(TCP_PRESS, n_nodes=2, scale=SMOKE_SCALE, seed=4)
    c.start()
    c.run_until(5.0)
    s0, s1 = c.servers["node0"], c.servers["node1"]
    fresh = "f059999"  # unpopular: not prewarmed anywhere
    assert fresh not in s0.directory
    s1.cache.insert(fresh, c.fileset.file_bytes)
    c.run_until(c.engine.now + 2.0)
    assert s0.directory.get(fresh) == "node1"


def test_eviction_removes_directory_entry():
    c = PressCluster(TCP_PRESS, n_nodes=2, scale=SMOKE_SCALE, seed=4)
    c.start()
    c.run_until(5.0)
    s0, s1 = c.servers["node0"], c.servers["node1"]
    victim = next(iter(s1.cache.keys()))
    s1.cache.evict(victim)
    c.run_until(c.engine.now + 2.0)
    assert victim not in s0.directory


def test_exclusion_purges_peer_state(cluster):
    s0 = cluster.servers["node0"]
    assert any(owner == "node2" for owner in s0.directory.values())
    s0.membership.exclude("node2", "test")
    assert not any(owner == "node2" for owner in s0.directory.values())
    assert cluster.transports["node0"].channel("node2") is None


def test_fail_fast_policy_kills_process(cluster):
    s1 = cluster.servers["node1"]
    s1._on_fatal("descriptor-error:test")
    assert not cluster.nodes["node1"].process.alive
    assert s1.fail_fasts == 1
    assert cluster.annotations.first("fail-fast") is not None


def test_restart_rebuilds_clean_state(cluster):
    node = cluster.nodes["node1"]
    old_cache = cluster.servers["node1"].cache
    warm_size = len(old_cache)
    node.process.exit("bug")
    cluster.run_until(cluster.engine.now + 10.0)
    assert node.process.incarnation == 2
    assert cluster.servers["node1"].cache is not old_cache
    # The new incarnation starts cold (it may have cached a handful of
    # files since the restart, but nothing like the prewarmed set).
    assert len(cluster.servers["node1"].cache) < warm_size / 10


def test_rejoin_transfers_cache_info():
    c = PressCluster(VIA_PRESS_5, n_nodes=3, scale=SMOKE_SCALE, seed=21)
    c.start()
    c.run_until(10.0)
    node = c.nodes["node1"]
    node.process.exit("bug")
    c.run_until(c.engine.now + 15.0)
    assert sorted(c.servers["node1"].members) == ["node0", "node1", "node2"]
    # The rejoiner learned where the other nodes' files live.
    s1 = c.servers["node1"]
    owners = set(s1.directory.values())
    assert {"node0", "node2"} <= owners


def test_broken_forward_falls_back_to_local_serve(cluster):
    s0 = cluster.servers["node0"]
    target_file = next(iter(cluster.servers["node2"].cache.keys()))
    cluster.nodes["node2"].crash(transient=False)
    cluster.run_until(cluster.engine.now + 1.0)
    from repro.press.http import HttpRequest

    before = s0.disk_reads
    req = HttpRequest.fresh(cluster.engine, "client0", target_file)
    # node0 still believes node2 is a member (TCP, no heartbeats), but
    # the channel send fails broken -> local fallback via disk.
    s0.membership.exclude("node2", "test-setup")
    s0._handle_request(req)
    cluster.run_until(cluster.engine.now + 2.0)
    assert s0.disk_reads > before
