"""The deterministic snapshot/restore subsystem (repro.sim.snapshot).

The contract: a captured simulation, restored, continues **bit
identically** — same event order, same timestamps, same RNG draws, same
component state digests.  These tests exercise the subsystem from the
bare engine up to a full PRESS cluster of every version.
"""

import pickle

import pytest

from repro.press.cluster import SMOKE_SCALE, PressCluster
from repro.press.config import ALL_VERSIONS
from repro.sim import snapshot
from repro.sim.engine import Engine, SimulationError
from repro.sim.rng import RngRegistry


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


def _chain(e: Engine, log: list, label: str, until: int) -> None:
    def tick():
        log.append((label, e.now, len(log)))
        if len(log) < until:
            e.call_after(0.25, tick)

    e.call_after(0.25, tick)


def test_engine_round_trip_continues_identically():
    e = Engine()
    log: list = []
    _chain(e, log, "a", 40)
    e.run(until=5.0)
    assert log, "warm segment should have fired events"

    blob = snapshot.capture((e, log))
    e2, log2 = snapshot.restore(blob)
    assert e2.now == e.now
    assert e2.events_processed == e.events_processed

    e.run(until=20.0)
    e2.run(until=20.0)
    assert log2 == log
    assert e2.events_processed == e.events_processed
    assert e2.snapshot_state() == e.snapshot_state()


def test_running_engine_refuses_capture():
    e = Engine()
    boom: dict = {}

    def try_capture():
        try:
            snapshot.capture(e)
        except (snapshot.SnapshotError, SimulationError) as exc:
            boom["error"] = exc

    e.call_after(1.0, try_capture)
    e.run()
    assert "error" in boom


def test_generators_are_rejected_loudly():
    gen = (x for x in range(3))
    next(gen)
    with pytest.raises(snapshot.SnapshotError):
        snapshot.capture({"live": gen})


def test_non_importable_closure_round_trips():
    """Defensive marshal fallback: a stray local closure still pickles."""

    def make_counter(start):
        count = [start]

        def bump(n=1):
            count[0] += n
            return count[0]

        return bump

    bump = make_counter(10)
    bump()
    restored = snapshot.restore(snapshot.capture(bump))
    assert restored() == bump()  # both advance from 11 -> 12


# ----------------------------------------------------------------------
# Digests and summaries
# ----------------------------------------------------------------------


def test_state_digest_tracks_snapshot_state():
    e1, e2 = Engine(), Engine()
    assert snapshot.state_digest(e1) == snapshot.state_digest(e2)
    e1.call_after(1.0, lambda: None)
    e1.run()
    assert snapshot.state_digest(e1) != snapshot.state_digest(e2)


def test_rng_registry_round_trips_through_pickle():
    reg = RngRegistry(42)
    reg.stream("clients").random()
    blob = snapshot.capture(reg)
    reg2 = snapshot.restore(blob)
    assert reg2.snapshot_state() == reg.snapshot_state()
    assert reg2.stream("clients").random() == reg.stream("clients").random()


# ----------------------------------------------------------------------
# Whole clusters, every version
# ----------------------------------------------------------------------


def _cluster(version: str) -> PressCluster:
    c = PressCluster(ALL_VERSIONS[version], scale=SMOKE_SCALE, seed=3)
    c.start()
    c.run_until(20.0)
    return c


@pytest.mark.parametrize("version", sorted(ALL_VERSIONS))
def test_cluster_round_trip_is_bit_identical(version):
    """Capture at t=20, then run the original and the restored copy to
    t=45 and compare everything observable: engine clock/sequence/event
    count, every component's state digest, and the measured timeline."""
    c = _cluster(version)
    blob = snapshot.capture(c)
    c2 = snapshot.restore(blob)
    assert snapshot.state_digest(c2) == snapshot.state_digest(c)

    c.run_until(45.0)
    c2.run_until(45.0)
    assert c2.engine.now == c.engine.now
    assert c2.engine.events_processed == c.engine.events_processed
    assert c2.snapshot_state() == c.snapshot_state()
    assert snapshot.state_digest(c2) == snapshot.state_digest(c)
    assert c2.monitor.series(0.0, 45.0) == c.monitor.series(0.0, 45.0)
    assert c2.measured_rate(5.0, 45.0) == c.measured_rate(5.0, 45.0)


def test_cluster_snapshot_state_is_json_safe():
    import json

    c = _cluster("TCP-PRESS")
    json.dumps(c.snapshot_state())


def test_capture_wraps_pickling_errors():
    class Hostile:
        def __reduce__(self):
            raise TypeError("nope")

    with pytest.raises(snapshot.SnapshotError):
        snapshot.capture(Hostile())
