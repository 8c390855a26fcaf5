"""Stack-sampling flight recorder: where the *host's* time goes.

Every other observability layer (bus, spans, sketches, attribution)
explains the *simulated* system.  This one explains the simulator:
which layer's code burns the wall-clock of a campaign cell.

It works from outside the simulation.  While a cell executes,
``signal.setitimer(ITIMER_PROF)`` delivers ``SIGPROF`` every
:data:`INTERVAL_S` of process CPU time; the handler walks the
interrupted frame outward to the innermost ``repro.*`` frame and counts
one sample for that frame's code; the digest groups the counts by layer
and by ``module.qualname`` site.  Time in the stdlib or in C code called
from ``repro`` is charged to the ``repro`` frame that called it; a stack
with no ``repro.*`` frame at all counts as :data:`OTHER`.  A layer's
sample share is therefore its *exclusive* share of the cell's CPU time,
the same thing cProfile's per-function ``tottime`` sums to — without
cProfile's per-call cost or any probe inside the simulator.

Determinism contract
--------------------
The sampler never touches simulation state: the engine, the fabric and
every component run exactly the code they run unprofiled, so a profiled
cell is byte-identical to a plain one — enforced by
``tests/obs/test_profiler_determinism`` and the CI ``perf-smoke`` job.
Its output is wall-clock and therefore *volatile*: per-cell digests are
persisted in the result store's ``perf/`` namespace, never in the cell
payload, so cache keys, payload fingerprints and ``store-diff`` are
untouched by nondeterministic timings.
"""

from __future__ import annotations

import gc
import inspect
import signal
from types import CodeType, FunctionType
from typing import Any, Dict, Optional, Tuple

#: Sampling period, in seconds of process CPU time.  About 250 samples
#: per second of execute time: enough for layer shares within a few
#: percent on a one-second cell, at a handler cost too small to measure.
INTERVAL_S = 0.004

#: Layer of a sample whose stack holds no ``repro.*`` frame.
OTHER = "other"


def require_sampler() -> None:
    """Raise when this platform cannot run the sampler (no setitimer)."""
    if not hasattr(signal, "setitimer") or not hasattr(signal, "SIGPROF"):
        raise RuntimeError(
            "--profile needs signal.setitimer and SIGPROF, which this "
            "platform does not provide"
        )


def layer_of(module: str) -> str:
    """Map a ``repro.*`` module to its architectural layer.

    ``repro.net.fabric`` → ``net``; the simulation core keeps its module,
    so ``repro.sim.engine`` → ``sim.engine`` (engine dispatch is a layer
    of its own).
    """
    parts = module.split(".")
    return ".".join(parts[1:3]) if parts[1] == "sim" else parts[1]


def _index_functions() -> Dict[CodeType, str]:
    """Name the code of every live function, and the code nested in it,
    the way the compiler builds ``__qualname__``.  A wrapper that
    ``functools.wraps`` renamed is named from its enclosing function."""
    names: Dict[CodeType, str] = {}
    todo = [
        (f.__code__, f.__qualname__)
        for f in gc.get_objects()
        if isinstance(f, FunctionType)
        and f.__qualname__.rpartition(".")[2] == f.__code__.co_name
    ]
    while todo:
        outer, name = todo.pop()
        names[outer] = name
        sep = ".<locals>." if outer.co_flags & inspect.CO_NEWLOCALS else "."
        todo += [
            (c, name + sep + c.co_name)
            for c in outer.co_consts
            if isinstance(c, CodeType)
        ]
    return names


def qualname(code: CodeType, names: Dict[CodeType, str]) -> str:
    """``code``'s qualified name on every supported Python (3.11 added
    ``co_qualname``; before, it is looked up in ``names``, which is
    filled from the live functions on first need)."""
    if hasattr(code, "co_qualname"):
        return code.co_qualname
    if not names:
        names.update(_index_functions())
    return names.get(code, f"{code.co_name}@{code.co_firstlineno}")


class StackSampler:
    """Counts ``SIGPROF`` samples by innermost ``repro.*`` layer and site.

    Use one instance per cell as a context manager around the execute
    region: entering installs the handler and arms the timer; leaving —
    normally or by an exception — disarms the timer and restores the
    handler that was installed before.
    """

    def __init__(self) -> None:
        self.samples = 0
        #: (module, code) of the charged frame -> samples; None = other
        self._hits: Dict[Optional[Tuple[str, CodeType]], int] = {}
        self._previous: Any = None

    def _handler(self, signum, frame) -> None:
        self.samples += 1
        key = None
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                key = (module, frame.f_code)
                break
            frame = frame.f_back
        self._hits[key] = self._hits.get(key, 0) + 1

    def _tally(self, name_of) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for key, n in self._hits.items():
            name = OTHER if key is None else name_of(*key)
            out[name] = out.get(name, 0) + n
        return out

    @property
    def layers(self) -> Dict[str, int]:
        """layer -> samples"""
        return self._tally(lambda module, code: layer_of(module))

    @property
    def sites(self) -> Dict[str, int]:
        """``module.qualname`` -> samples"""
        names: Dict[CodeType, str] = {}
        return self._tally(
            lambda module, code: f"{module}.{qualname(code, names)}"
        )

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        try:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
        finally:
            signal.signal(signal.SIGPROF, self._previous)

    def digest(self, execute_s: float, engine: Optional[Any] = None) -> dict:
        """JSON-ready summary for the per-cell perf record.

        Each layer's ``self_s`` is its sample share times ``execute_s``,
        so the layer rows add up to the execute wall-clock whenever at
        least one sample landed; the 20 most-sampled sites are kept.
        ``engine`` (optional) contributes its scheduling/heap-churn
        counters.
        """
        total = self.samples

        def row(n: int) -> dict:
            return {"samples": n, "self_s": n / total * execute_s}

        sites = sorted(self.sites.items(), key=lambda kv: (-kv[1], kv[0]))
        out = {
            "samples": total,
            "interval_s": INTERVAL_S,
            "self_s": execute_s if total else 0.0,
            "layers": {k: row(n) for k, n in sorted(self.layers.items())},
            "sites": [
                {"site": site, **row(n)} for site, n in sites[:20]
            ],
        }
        if engine is not None:
            out["engine"] = {
                "events_processed": engine.events_processed,
                "scheduled": engine._seq,
                "timer_allocs": engine._timer_allocs,
                "freelist_reuse": engine._seq - engine._timer_allocs,
                "compactions": engine._compactions,
            }
        return out
