"""Unit contract of the stack-sampling flight recorder.

The sampler's accounting rules — which frame a sample is charged to,
site identity, layer grouping, the digest — plus the promise that the
``SIGPROF`` timer never outlives the region it samples, and agreement
with cProfile's exclusive time on a real cell.  The observer-effect and
byte-identity contracts live in ``test_profiler_determinism.py``.
"""

import cProfile
import json
import pstats
import signal
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import _fault_cell
from repro.experiments.settings import DEFAULT_SETTINGS
from repro.obs import profiler
from repro.obs.profiler import OTHER, StackSampler, layer_of
from repro.sim.engine import Engine

#: A stand-in ``repro.net`` module: frames of code defined here carry
#: ``__name__ == "repro.net.fake"`` in their globals, like real ones.
_FAKE = {"__name__": "repro.net.fake", "sys": sys}
exec(
    "class Component:\n"
    "    def tick(self):\n"
    "        return sys._getframe()\n"
    "def make():\n"
    "    def cb():\n"
    "        return sys._getframe()\n"
    "    return cb\n",
    _FAKE,
)


def _sample(sampler, frame):
    sampler._handler(signal.SIGPROF, frame)


def test_bound_methods_share_a_site_across_instances():
    """Sites key on module + qualified name, not on the instance."""
    sampler = StackSampler()
    _sample(sampler, _FAKE["Component"]().tick())
    _sample(sampler, _FAKE["Component"]().tick())
    assert sampler.sites == {"repro.net.fake.Component.tick": 2}
    assert sampler.layers == {"net": 2}


def test_plain_functions_and_closures_share_a_site():
    sampler = StackSampler()
    _sample(sampler, _FAKE["make"]()())
    _sample(sampler, _FAKE["make"]()())  # distinct closure, same code
    assert sampler.sites == {"repro.net.fake.make.<locals>.cb": 2}


def test_innermost_repro_frame_takes_the_sample():
    """Non-repro frames (here: a test callback) are walked past, so the
    engine frame that dispatched the callback is charged."""
    e = Engine()
    frames = []
    e.call_after(1.0, lambda: frames.append(sys._getframe()))
    e.run()
    sampler = StackSampler()
    _sample(sampler, frames[0])
    assert sampler.layers == {"sim.engine": 1}
    assert sampler.sites == {"repro.sim.engine.Engine.run": 1}


def test_stack_without_repro_frames_counts_as_other():
    sampler = StackSampler()
    _sample(sampler, sys._getframe())
    _sample(sampler, None)
    assert sampler.samples == 2
    assert sampler.layers == {OTHER: 2}
    assert sampler.sites == {OTHER: 2}


def test_layer_of_maps_repro_modules_to_their_layer():
    assert layer_of("repro.net.fabric") == "net"
    assert layer_of("repro.transports.tcp.connection") == "transports"
    assert layer_of("repro.sim.engine") == "sim.engine"
    assert layer_of("repro.sim.snapshot") == "sim.snapshot"
    assert layer_of("repro.sim") == "sim"


def test_qualnames_are_recovered_from_live_functions():
    """Before Python 3.11 code objects carry no ``co_qualname``; the
    names recovered from the live functions are the compiler's."""
    names = profiler._index_functions()
    cb = next(
        c for c in _FAKE["make"].__code__.co_consts if hasattr(c, "co_name")
    )
    assert names[cb] == "make.<locals>.cb"
    assert names[_FAKE["Component"].tick.__code__] == "Component.tick"
    assert names[Engine.run.__code__] == "Engine.run"


def test_layers_group_self_time_by_module():
    """A layer's self-time is its sample share of the execute time."""
    sampler = StackSampler()
    for _ in range(3):
        _sample(sampler, _FAKE["Component"]().tick())
    _sample(sampler, sys._getframe())
    digest = sampler.digest(execute_s=2.0)
    assert digest["samples"] == 4
    assert digest["self_s"] == 2.0
    assert digest["layers"] == {
        "net": {"samples": 3, "self_s": 1.5},
        OTHER: {"samples": 1, "self_s": 0.5},
    }
    assert digest["sites"][0]["site"] == "repro.net.fake.Component.tick"


def test_digest_is_json_ready():
    e = Engine()
    e.call_after(1.0, lambda: None)
    e.run()
    sampler = StackSampler()
    _sample(sampler, sys._getframe())
    digest = sampler.digest(0.5, e)
    json.dumps(digest)  # must not raise
    eng = digest["engine"]
    assert eng["events_processed"] == e.events_processed == 1
    # Every scheduled timer is either a fresh allocation or a freelist
    # reuse; the two columns partition the schedule count.
    assert eng["timer_allocs"] + eng["freelist_reuse"] == eng["scheduled"]


def test_empty_digest_has_no_layers():
    digest = StackSampler().digest(execute_s=1.0)
    assert digest["samples"] == 0
    assert digest["self_s"] == 0.0
    assert digest["layers"] == {} and digest["sites"] == []


def test_armed_sampler_collects_samples():
    end = time.process_time() + 0.1
    with StackSampler() as sampler:
        while time.process_time() < end:
            pass
    assert sampler.samples > 0
    # A sample may land in __exit__ before it disarms the timer.
    assert sampler.layers[OTHER] >= sampler.samples - 1


@pytest.fixture
def sentinel_handler():
    """Install a known SIGPROF handler; restore the original after."""

    def sentinel(signum, frame):
        pass

    original = signal.signal(signal.SIGPROF, sentinel)
    try:
        yield sentinel
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, original)


def test_leaving_disarms_the_timer_and_restores_the_handler(sentinel_handler):
    with pytest.raises(RuntimeError, match="cell failed"):
        with StackSampler() as sampler:
            assert signal.getitimer(signal.ITIMER_PROF)[1] > 0
            assert signal.getsignal(signal.SIGPROF) == sampler._handler
            raise RuntimeError("cell failed")
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is sentinel_handler


def test_failing_profiled_cell_disarms_the_timer(
    sentinel_handler, monkeypatch
):
    """The cell's execute region releases the timer even when it raises."""
    import repro.experiments.phase1 as phase1

    def boom(*args, **kwargs):
        assert signal.getitimer(signal.ITIMER_PROF)[1] > 0
        raise RuntimeError("cell failed")

    monkeypatch.setattr(phase1, "run_single_fault", boom)
    with pytest.raises(RuntimeError, match="cell failed"):
        _fault_cell(
            "VIA-PRESS-5", "link-down", DEFAULT_SETTINGS, 7, profile=True
        )
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is sentinel_handler


# ----------------------------------------------------------------------
# Agreement with cProfile
# ----------------------------------------------------------------------

_REPRO_ROOT = Path(repro.__file__).resolve().parent


def _module_of(filename):
    """The ``repro.*`` module a cProfile filename belongs to, or None."""
    try:
        rel = Path(filename).resolve().relative_to(_REPRO_ROOT)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro", *parts]) if parts else None


def _cprofile_layer_shares(stats):
    """Exclusive time per layer, charged the way the sampler charges it.

    cProfile gives builtins and stdlib functions their own ``tottime``;
    the sampler charges that time to the innermost ``repro`` frame on
    the stack.  So a non-repro function's time is split over its callers
    in proportion to the time it spent under each, until it reaches
    ``repro`` code; a function nobody calls is a root (``other``).
    Recursive calls take the split of the calls that led in, so the
    splits are solved by iterating to a fixed point rather than by
    walking the (cyclic) caller graph.
    """
    layer = {}
    splits = {}
    for func, row in stats.items():
        module = _module_of(func[0])
        if module is not None:
            layer[func] = layer_of(module)
            continue
        callers = {c: v for c, v in row[4].items() if c in stats and c != func}
        # Weigh callers by the time spent under each, else by call count.
        for field in (2, 0):
            total = sum(v[field] for v in callers.values())
            if total > 0:
                break
        splits[func] = (
            {c: v[field] / total for c, v in callers.items()}
            if total > 0
            else {}
        )

    owed = {func: {} for func in splits}
    for _ in range(1000):
        new = {}
        for func, split in splits.items():
            dist = {} if split else {OTHER: 1.0}
            for caller, frac in split.items():
                owners = (
                    {layer[caller]: 1.0} if caller in layer else owed[caller]
                )
                for name, w in owners.items():
                    dist[name] = dist.get(name, 0.0) + frac * w
            new[func] = dist
        change = max(
            (
                abs(new[f].get(k, 0.0) - owed[f].get(k, 0.0))
                for f in splits
                for k in new[f].keys() | owed[f].keys()
            ),
            default=0.0,
        )
        owed = new
        if change < 1e-9:
            break

    layers = {}
    for func, row in stats.items():
        owners = {layer[func]: 1.0} if func in layer else owed[func]
        for name, w in owners.items():
            layers[name] = layers.get(name, 0.0) + row[2] * w
    total = sum(layers.values())
    return {name: t / total for name, t in layers.items()}


def test_sampled_layer_shares_agree_with_cprofile():
    """One VIA-PRESS-5 link-down cell, sampled and cProfiled at once.

    Measuring the same execution removes run-to-run noise from the
    comparison, so it checks the sampler's attribution itself: every
    layer holding at least 5% of cProfile's exclusive time gets a
    sampled share within 0.10 of cProfile's.  The sampler's own handler
    is dropped from cProfile's table — without cProfile it never runs
    as a Python call on the simulator's stack.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        payload = _fault_cell(
            "VIA-PRESS-5", "link-down", DEFAULT_SETTINGS, 7, profile=True
        )
    finally:
        profile.disable()
    stats = {
        func: row
        for func, row in pstats.Stats(profile).stats.items()
        if _module_of(func[0]) != "repro.obs.profiler"
    }
    expected = _cprofile_layer_shares(stats)
    digest = payload["perf"]["profile"]
    assert digest["samples"] >= 100
    sampled = {
        layer: row["samples"] / digest["samples"]
        for layer, row in digest["layers"].items()
    }
    major = {layer for layer, share in expected.items() if share >= 0.05}
    assert "sim.engine" in major and "net" in major
    for layer in sorted(major):
        assert sampled.get(layer, 0.0) == pytest.approx(
            expected[layer], abs=0.10
        ), f"{layer}: sampled {sampled.get(layer, 0.0):.3f} vs cProfile"
