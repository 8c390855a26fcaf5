"""Trace files: persist and replay request streams.

The paper drove PRESS with a recorded Rutgers trace.  This module gives
the reproduction the same workflow: record a synthetic (or hand-built)
request stream to a simple text format, and replay it through the
cluster instead of the Poisson generator.

Format — one request per line, ``#`` comments allowed::

    # time_offset_s  file_id
    0.0132 f004211
    0.0197 f000002

Offsets are from the start of the replay; ``TraceReplayer`` rescales
them to hit a requested average rate, which is how the paper adjusted
offered load while keeping the trace's reference pattern.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from typing import Iterable, List, TextIO, Tuple, Union

from ..net.fabric import Fabric
from ..net.packet import Frame
from ..sim.engine import Engine
from ..sim.monitor import ThroughputMonitor
from .client import ClientMachine
from .trace import FileSet


@dataclass(frozen=True)
class TraceEntry:
    offset: float
    file_id: str


def synthesize_trace(
    fileset: FileSet,
    n_requests: int,
    rate: float,
    rng: random.Random,
) -> List[TraceEntry]:
    """Generate a Poisson/Zipf trace with ``n_requests`` entries."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    entries = []
    t = 0.0
    for _ in range(n_requests):
        t += rng.expovariate(rate)
        entries.append(TraceEntry(offset=t, file_id=fileset.sample(rng)))
    return entries


def save_trace(entries: Iterable[TraceEntry], fp: TextIO) -> int:
    """Write entries to ``fp``; returns the number written."""
    count = 0
    fp.write("# time_offset_s file_id\n")
    for entry in entries:
        fp.write(f"{entry.offset:.6f} {entry.file_id}\n")
        count += 1
    return count


def load_trace(fp: Union[TextIO, str]) -> List[TraceEntry]:
    """Parse a trace file (path or file object)."""
    if isinstance(fp, str):
        with open(fp) as handle:
            return load_trace(handle)
    entries: List[TraceEntry] = []
    last = -1.0
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"trace line {lineno}: expected 'offset file_id'")
        offset = float(parts[0])
        if offset < last:
            raise ValueError(f"trace line {lineno}: offsets must be sorted")
        last = offset
        entries.append(TraceEntry(offset=offset, file_id=parts[1]))
    return entries


class TraceReplayer:
    """Replays a recorded trace through a client machine.

    The trace's inter-arrival pattern is preserved; ``rate`` rescales
    the offsets so the replay delivers the requested average requests/s
    (None keeps the recorded pacing).  Requests round-robin over the
    server nodes like the Poisson clients.
    """

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        client_id: str,
        server_ids: List[str],
        entries: List[TraceEntry],
        monitor: ThroughputMonitor,
        rate: float = None,
        request_timeout: float = 6.0,
        loop: bool = False,
    ):
        if not entries:
            raise ValueError("cannot replay an empty trace")
        from ..press.http import HttpRequest

        self._HttpRequest = HttpRequest
        self.engine = engine
        self.client_id = client_id
        self.server_ids = list(server_ids)
        self.entries = entries
        self.monitor = monitor
        self.request_timeout = request_timeout
        self.loop = loop
        recorded_rate = len(entries) / max(entries[-1].offset, 1e-9)
        self.time_scale = 1.0 if rate is None else recorded_rate / rate
        self.nic = fabric.attach(client_id, reports_errors=False)
        self.nic.register("http-resp", self._on_response)
        self.nic.register("http-reject", self._on_reject)
        self._pending = {}
        self._rr = 0
        self._running = False
        self.replayed = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._running = True
        self._schedule(0, self.engine.now)

    def stop(self) -> None:
        self._running = False

    def _schedule(self, index: int, epoch: float) -> None:
        if not self._running:
            return
        if index >= len(self.entries):
            if not self.loop:
                return
            epoch = epoch + self.entries[-1].offset * self.time_scale
            index = 0
        entry = self.entries[index]
        at = epoch + entry.offset * self.time_scale
        self.engine.call_at(
            max(at, self.engine.now), self._fire, index, epoch
        )

    def _fire(self, index: int, epoch: float) -> None:
        if not self._running:
            return
        entry = self.entries[index]
        target = self.server_ids[self._rr % len(self.server_ids)]
        self._rr += 1
        req = self._HttpRequest.fresh(
            self.engine, self.client_id, entry.file_id
        )
        timer = self.engine.call_after(
            self.request_timeout, self._on_timeout, req.req_id
        )
        self._pending[req.req_id] = timer
        self.nic.send(
            Frame(src=self.client_id, dst=target, size=300, kind="http-req",
                  payload=req)
        )
        self.replayed += 1
        self._schedule(index + 1, epoch)

    # ------------------------------------------------------------------
    def _on_response(self, frame: Frame) -> None:
        timer = self._pending.pop(frame.payload, None)
        if timer is not None:
            timer.cancel()
            self.monitor.success()

    def _on_reject(self, frame: Frame) -> None:
        timer = self._pending.pop(frame.payload, None)
        if timer is not None:
            timer.cancel()
            self.monitor.failure()

    def _on_timeout(self, req_id: int) -> None:
        if self._pending.pop(req_id, None) is not None:
            self.monitor.failure()
