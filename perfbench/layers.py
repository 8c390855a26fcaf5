"""Layers of the ``repro`` package, their entry points, and the span tracer.

The traced run measures each layer's exclusive (self) wall-clock time
from outside the program: :func:`install` makes each ``repro`` module's
import a span of its layer, replaces each entry point in
:data:`ENTRY_POINTS` with a wrapper that opens a span on entry and closes
it on exit, and wraps every callback handed to the entry points in
:data:`CALLBACK_ARGS` so that the time spent in a callback is a span of
the layer that defines it.
A span's self time is its duration minus the time covered by the spans
it caused, so the per-layer self times add up to the traced wall-clock
less the time spent outside every span (reported as coverage).

The same module-to-layer map groups cProfile's per-function exclusive
time in :func:`cprofile_layers`, which is how the tracer is cross-checked.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import sys
import time
import types
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Package prefix -> layer.  The longest matching prefix wins, so every
#: ``repro.*`` module belongs to exactly one layer.
PREFIXES: Dict[str, str] = {
    "repro": "experiments",
    "repro.__main__": "experiments",
    "repro.analysis": "experiments",
    "repro.experiments": "experiments",
    "repro.core": "core",
    "repro.faults": "faults",
    "repro.net": "net",
    "repro.obs": "obs",
    "repro.osim": "osim",
    "repro.press": "press",
    "repro.sim": "sim.engine",
    "repro.sim.snapshot": "sim.snapshot",
    "repro.transports": "transports",
    "repro.transports.tcp": "transports.tcp",
    "repro.transports.via": "transports.via",
    "repro.workload": "workload",
}

LAYERS: Tuple[str, ...] = tuple(sorted(set(PREFIXES.values())))

#: (module, qualified name) of every wrapped entry point.  The layer is
#: the module's layer.
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "Engine.run"),
    ("repro.sim.engine", "Engine.call_at"),
    ("repro.sim.engine", "Engine.call_after"),
    ("repro.sim.engine", "Engine.call_soon"),
    ("repro.sim.engine", "Timer.cancel"),
    ("repro.net.fabric", "Fabric.transmit"),
    ("repro.net.fabric", "Fabric.transmit_train"),
    ("repro.net.nic", "Nic.send"),
    ("repro.net.nic", "Nic.deliver"),
    ("repro.net.link", "Link.transmit"),
    ("repro.net.switch", "Switch.forward"),
    ("repro.transports.base", "Transport._deliver_up"),
    ("repro.transports.tcp.connection", "TcpEndpoint.send"),
    ("repro.transports.tcp.connection", "TcpEndpoint.handle_segment"),
    ("repro.transports.tcp.connection", "TcpEndpoint.handle_ack"),
    ("repro.transports.tcp.transport", "TcpTransport.send_datagram"),
    ("repro.transports.via.channel", "ViaChannel.send"),
    ("repro.transports.via.channel", "ViaChannel.handle_message"),
    ("repro.transports.via.channel", "ViaChannel.handle_credits"),
    ("repro.transports.via.transport", "ViaTransport.send_datagram"),
    ("repro.osim.cpu", "WorkQueue.submit"),
    ("repro.osim.cpu", "WorkQueue.submit_front"),
    ("repro.osim.cpu", "WorkQueue.charge"),
    ("repro.osim.node", "Node.disk_read"),
    ("repro.osim.memory", "KernelMemory.alloc"),
    ("repro.osim.memory", "PinnableMemory.pin"),
    ("repro.net.nic", "Nic.register"),
    ("repro.net.nic", "Nic.on_receive"),
    ("repro.press.cluster", "PressCluster.__init__"),
    ("repro.press.cluster", "PressCluster.start"),
    ("repro.press.server", "PressServer._handle_request"),
    ("repro.press.server", "PressServer._forward"),
    ("repro.press.server", "PressServer._on_message"),
    ("repro.press.cache", "FileCache.lookup"),
    ("repro.press.cache", "FileCache.insert"),
    ("repro.press.membership", "Membership.handle_datagram"),
    ("repro.workload.trace", "FileSet.sample"),
    ("repro.workload.client", "ClientMachine._issue_one"),
    ("repro.obs.bus", "EventBus.publish"),
    ("repro.obs.observatory", "Observatory.finish"),
    ("repro.obs.observatory", "Observatory.summary"),
    ("repro.obs.exporters", "telemetry_summary"),
    ("repro.obs.metrics", "Histogram.observe"),
    ("repro.obs.sketch", "P2Quantile.observe"),
    ("repro.obs.sketch", "QuantileSketch.observe"),
    ("repro.faults.injector", "Mendosus.inject"),
    ("repro.core.extract", "extract_profile"),
    ("repro.core.divergence", "divergence_report"),
    ("repro.core.model", "evaluate"),
    ("repro.sim.snapshot", "capture"),
    ("repro.sim.snapshot", "restore"),
    ("repro.experiments.runner", "run_campaign"),
    ("repro.experiments.warmstart", "WarmStartCache.ensure"),
    ("repro.experiments.warmstart", "WarmStartCache.obtain"),
    ("repro.experiments.store", "DiskStore.get"),
    ("repro.experiments.store", "DiskStore.put"),
)


#: Entry points that take a callback, and its positional index (counting
#: ``self``).  The callback runs later, from inside another layer; it is
#: wrapped so that its time is charged to the layer that defines it.
CALLBACK_ARGS: Dict[str, int] = {
    "Engine.call_at": 2,
    "Engine.call_after": 2,
    "WorkQueue.submit": 2,
    "WorkQueue.submit_front": 2,
    "Node.disk_read": 2,
    "Nic.register": 2,
    "Nic.on_receive": 1,
}


def layer_of(module: str) -> Optional[str]:
    """The layer of a module name, or ``None`` outside ``repro``."""
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        layer = PREFIXES.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    return None


def callback_module(fn) -> str:
    """Module that defines a scheduled callback (function, method or
    callable object)."""
    func = getattr(fn, "__func__", fn)
    module = getattr(func, "__module__", None)
    if isinstance(module, str) and hasattr(func, "__code__"):
        return module
    return type(fn).__module__


def resolve(module: str, qualname: str):
    """``(owner, attribute name, object)`` of an entry point.

    Raises ``AttributeError`` or ``ImportError`` when the entry point no
    longer exists, so a rename fails loudly instead of silently dropping
    a layer's spans.
    """
    owner = importlib.import_module(module)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise AttributeError(f"{module}.{qualname} is not defined there")
    return owner, name, vars(owner)[name]


class Tracer:
    """In-memory spans and per-layer self time, counts and counters.

    Self time is accumulated as spans close, so it is exact however many
    spans run; the raw spans kept for export are capped at ``keep``.
    """

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.entry_calls: Dict[str, int] = {}
        self.published: Dict[str, int] = {}
        self.events = 0
        self.train_frames = 0
        self.train_fallbacks = 0
        self.warm_lookups = 0
        self.warm_hits = 0
        #: open spans: [layer, name, start, child seconds, id, parent id]
        self._stack: List[list] = []
        self._next_id = 1
        #: closed spans: (id, parent id, layer, name, start, end)
        self.spans: List[tuple] = []

    def open(self, layer: str, name: str) -> None:
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = stack[-1][4] if stack else 0
        stack.append([layer, name, time.perf_counter(), 0.0, span_id, parent])

    def close(self) -> None:
        end = time.perf_counter()
        stack = self._stack
        layer, name, start, child, span_id, parent = stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if stack:
            stack[-1][3] += duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, layer, name, start, end))

    def layer_metrics(self, wall: float) -> Dict[str, float]:
        """Per-layer ``self_s``, ``share`` and ``calls`` plus the extra
        ratios and counts, for a traced region of ``wall`` seconds."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / wall
            out[f"{layer}.calls"] = self.calls[layer]
        entry = self.entry_calls.get
        scheduled = entry("Engine.call_at", 0) + entry("Engine.call_after", 0)
        frames = (
            entry("Fabric.transmit", 0) - self.train_fallbacks
            + self.train_frames
        )
        handled = entry("PressServer._handle_request", 0)
        from repro.obs.events import TCP_RETRANSMIT, VIA_QUEUE_SHED

        out["sim.engine.events"] = self.events
        out["sim.engine.cancelled_frac"] = (
            entry("Timer.cancel", 0) / scheduled if scheduled else 0.0
        )
        out["net.frames"] = frames
        out["net.reference_frac"] = (
            entry("Link.transmit", 0) / frames if frames else 0.0
        )
        out["transports.tcp.retransmissions"] = self.published.get(
            TCP_RETRANSMIT, 0
        )
        out["transports.via.shed"] = self.published.get(VIA_QUEUE_SHED, 0)
        out["press.forward_frac"] = (
            entry("PressServer._forward", 0) / handled if handled else 0.0
        )
        out["experiments.warm_hit_frac"] = (
            self.warm_hits / self.warm_lookups if self.warm_lookups else 0.0
        )
        return out


class _Callback:
    """A scheduled callback that runs inside a span of its layer.

    A picklable object (not a closure), because the warm-start layer
    checkpoints the event heap that holds it.
    """

    __slots__ = ("fn", "layer", "name", "event")

    tracer: Optional[Tracer] = None

    def __init__(self, fn, layer: str, name: str, event: bool) -> None:
        self.fn = fn
        self.layer = layer
        self.name = name
        #: 1 when the engine fires it (an engine event), else 0
        self.event = int(event)

    def __call__(self, *args):
        tracer = _Callback.tracer
        tracer.events += self.event
        tracer.open(self.layer, self.name)
        try:
            return self.fn(*args)
        finally:
            tracer.close()


def _site(fn):
    """Stable identity of a callback: its code object, else its class."""
    code = getattr(getattr(fn, "__func__", fn), "__code__", None)
    return code if code is not None else type(fn)


def _site_label(fn) -> Tuple[str, str]:
    func = getattr(fn, "__func__", fn)
    name = getattr(func, "__qualname__", type(fn).__qualname__)
    return layer_of(callback_module(fn)) or "sim.engine", f"callback:{name}"


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    entry_calls = tracer.entry_calls
    calls = tracer.calls
    entry_calls.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        entry_calls[name] += 1
        calls[layer] += 1
        tracer.open(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()

    return wrapper


def _wrap_callback_arg(wrapper, index: int, engine_event: bool):
    """An entry point that takes a callback as positional argument
    ``index`` (counting ``self``): the callback is wrapped so that it
    runs in a span of the layer that defines it."""
    labels: Dict[object, Tuple[str, str]] = {}

    @functools.wraps(wrapper)
    def take_callback(*args):
        fn = args[index]
        if type(fn) is not _Callback:
            site = _site(fn)
            label = labels.get(site)
            if label is None:
                label = labels[site] = _site_label(fn)
            fn = _Callback(fn, label[0], label[1], engine_event)
            args = args[:index] + (fn,) + args[index + 1:]
        return wrapper(*args)

    return take_callback


def _wrap_train(tracer: Tracer, wrapper):
    """``Fabric.transmit_train``: count the frames a train carries, and
    the per-frame ``transmit`` calls it falls back to."""

    @functools.wraps(wrapper)
    def train(self, src_nic, frames):
        before = tracer.entry_calls["Fabric.transmit"]
        result = wrapper(self, src_nic, frames)
        fallback = tracer.entry_calls["Fabric.transmit"] - before
        tracer.train_fallbacks += fallback
        tracer.train_frames += len(frames)
        return result

    return train


def _wrap_publish(tracer: Tracer, wrapper):
    """``EventBus.publish``: count published events by name."""
    published = tracer.published

    @functools.wraps(wrapper)
    def publish(self, name, *args, **kwargs):
        published[name] = published.get(name, 0) + 1
        return wrapper(self, name, *args, **kwargs)

    return publish


def _wrap_warm(tracer: Tracer, wrapper, restores: bool):
    """``WarmStartCache.obtain`` (a cell's restore) or ``ensure`` (the
    warm wave's checkpoint): count outcomes as the runner's
    ``campaign.warm_start.*`` counters do, that is every restore and every
    checkpoint the warm wave had to simulate."""

    @functools.wraps(wrapper)
    def warm(*args, **kwargs):
        result = wrapper(*args, **kwargs)
        status = (result[2] if restores else result)["status"]
        if restores or status != "hit":
            tracer.warm_lookups += 1
            tracer.warm_hits += status == "hit"
        return result

    return warm


class _ImportSpans:
    """Meta-path finder: executing a ``repro`` module is a span of its
    layer, so per-layer time covers set-up as well as the work."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        if name != "repro" and not name.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader = _SpanLoader(spec.loader, name, self.tracer)
        return spec


class _SpanLoader:
    """Delegating loader that runs ``exec_module`` inside a span."""

    def __init__(self, loader, name: str, tracer: Tracer) -> None:
        self._loader = loader
        self._layer = layer_of(name)
        self._name = f"import:{name}"
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._loader, attr)

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        self._tracer.open(self._layer, self._name)
        try:
            self._loader.exec_module(module)
        finally:
            self._tracer.close()


def install(tracer: Tracer) -> None:
    """Wrap every entry point for ``tracer``.

    Must run before any ``repro`` module is imported, so that imports are
    spans too, and before any cluster is built: hot paths keep bound
    methods they looked up at construction time.
    """
    sys.meta_path.insert(0, _ImportSpans(tracer))
    _Callback.tracer = tracer
    originals = {}
    for module, qualname in ENTRY_POINTS:
        owner, name, fn = resolve(module, qualname)
        wrapped = _wrap(tracer, layer_of(module), qualname, fn)
        if qualname in CALLBACK_ARGS:
            wrapped = _wrap_callback_arg(
                wrapped, CALLBACK_ARGS[qualname], qualname.startswith("Engine.")
            )
        elif qualname == "Fabric.transmit_train":
            wrapped = _wrap_train(tracer, wrapped)
        elif qualname == "EventBus.publish":
            wrapped = _wrap_publish(tracer, wrapped)
        elif qualname.startswith("WarmStartCache."):
            wrapped = _wrap_warm(
                tracer, wrapped, qualname == "WarmStartCache.obtain"
            )
        setattr(owner, name, wrapped)
        if isinstance(owner, types.ModuleType):
            originals[fn] = wrapped
    # Module-level functions that other modules imported by name.
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            try:
                replacement = originals.get(value)
            except TypeError:
                continue
            if replacement is not None:
                setattr(mod, attr, replacement)


def cprofile_layers(stats: dict, src_root: Path) -> Dict[str, float]:
    """Exclusive seconds per layer from ``pstats.Stats(...).stats``.

    Functions defined outside ``repro`` (builtins, the standard library)
    are charged to the layer of the ``repro`` function that called them,
    pro rata over their callers, as the tracer's spans charge them.  The
    time of recursive functions goes, pro rata, to the callers that led
    into the recursion.
    """
    src_root = src_root.resolve()

    def module_of(filename: str) -> Optional[str]:
        try:
            rel = Path(filename).resolve().relative_to(src_root)
        except (ValueError, OSError):
            return None
        parts = list(rel.with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)

    layers_of: Dict[tuple, Optional[str]] = {}
    for func in stats:
        module = module_of(func[0])
        layers_of[func] = layer_of(module) if module else None

    def caller_split(func) -> Dict[tuple, float]:
        """Fraction of ``func``'s time owed to each caller, by the time
        spent in the calls from it (else by call count).  Recursive calls
        are left out: they take the split of the calls that led in."""
        callers = {c: s for c, s in stats[func][4].items() if c != func}
        for field in (2, 0):
            weights = {c: s[field] for c, s in callers.items() if s[field] > 0}
            total = sum(weights.values())
            if total > 0:
                return {c: w / total for c, w in weights.items()}
        return {}

    splits = {f: caller_split(f) for f in stats if layers_of[f] is None}
    owed: Dict[tuple, Dict[str, float]] = {}

    def owners(caller) -> Dict[str, float]:
        layer = layers_of.get(caller)
        return {layer: 1.0} if layer is not None else owed.get(caller, {})

    def settle(group: List[tuple]) -> None:
        """Solve ``owed`` for one strongly connected group of functions
        outside ``repro`` whose callers outside the group are settled:
        a function owes each layer what its callers owe it, pro rata."""
        for _ in range(10_000 if len(group) > 1 else 1):
            change = 0.0
            for func in group:
                dist: Dict[str, float] = {}
                for caller, frac in splits[func].items():
                    for layer, share in owners(caller).items():
                        dist[layer] = dist.get(layer, 0.0) + frac * share
                old = owed.get(func, {})
                change = max([change] + [
                    abs(dist.get(k, 0.0) - old.get(k, 0.0))
                    for k in dist.keys() | old.keys()
                ])
                owed[func] = dist
            if change < 1e-12:
                return

    # Tarjan's algorithm over "is called by" edges: each group is
    # emitted after every group its callers belong to.
    index: Dict[tuple, int] = {}
    low: Dict[tuple, int] = {}
    stack: List[tuple] = []
    on_stack = set()

    def visit(func) -> None:
        index[func] = low[func] = len(index)
        stack.append(func)
        on_stack.add(func)
        for caller in splits[func]:
            if caller not in splits:
                continue
            if caller not in index:
                visit(caller)
                low[func] = min(low[func], low[caller])
            elif caller in on_stack:
                low[func] = min(low[func], index[caller])
        if low[func] == index[func]:
            group = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                group.append(member)
                if member == func:
                    break
            settle(group)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * len(splits) + 100))
    try:
        for func in splits:
            if func not in index:
                visit(func)
    finally:
        sys.setrecursionlimit(limit)

    out: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for func, row in stats.items():
        for layer, frac in owners(func).items():
            out[layer] += frac * row[2]
    return out
