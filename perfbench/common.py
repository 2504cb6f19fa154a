"""Shared plumbing for the repo benchmark: statistics, CPU probes,
reference probes, the closed-loop result model and the span tracer.

Nothing here knows about a particular workload; ``live.py`` and
``sim.py`` build on it and ``run.py`` turns a workload's result into
the one-line JSON verdict.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import os
import random
import socket
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Directory (relative to the checkout root) for logs and traces.
OUT_DIR = ".perfbench_out"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def pct(values: "List[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def median(values: "List[float]") -> float:
    return statistics.median(values) if values else 0.0


def hist_delta(after: "Dict[str, int]", before: "Dict[str, int]") -> "Dict[int, int]":
    """Bucket-wise difference of two ``LogHistogram.to_dict`` snapshots,
    keyed by bucket upper bound."""
    out: Dict[int, int] = {}
    for key, count in after.items():
        n = count - before.get(key, 0)
        if n > 0:
            out[int(key[2:])] = n
    return out


def hist_p50(buckets: "Dict[int, int]") -> float:
    """Median bucket upper bound of a log2 histogram delta."""
    total = sum(buckets.values())
    if not total:
        return 0.0
    seen = 0
    for upper in sorted(buckets):
        seen += buckets[upper]
        if 2 * seen >= total:
            return float(upper)
    return 0.0


# ---------------------------------------------------------------------------
# Processes, ports, CPU
# ---------------------------------------------------------------------------


def free_ports(n: int) -> "List[int]":
    """``n`` distinct free loopback ports from below the kernel's
    ephemeral range, so no outgoing connection can take one between
    this check and the daemon's bind."""
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range") as fh:
            low = int(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        low = 32768
    rng = random.Random()
    out: List[int] = []
    while len(out) < n:
        port = rng.randrange(10000, max(10001 + n, low))
        if port in out:
            continue
        with socket.socket() as s:
            try:
                s.bind(("127.0.0.1", port))
            except OSError:
                continue
        out.append(port)
    return out


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def self_cpu_s() -> float:
    return time.process_time()


# ---------------------------------------------------------------------------
# Reference probes (machine drift, not program behaviour)
# ---------------------------------------------------------------------------


def cpu_loop_ms(reps: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


#: What :func:`host_probe_ms` reads on a quiet host (2-vCPU Xeon VM).
#: A host-scaled time is a raw time times ``PROBE_NOMINAL_MS / probe``:
#: the time the work would have taken had the host run the probe at
#: this speed.
PROBE_NOMINAL_MS = 10.0


class _ProbeNode:
    __slots__ = ("key", "weight", "kids")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.kids: List["_ProbeNode"] = []


def host_probe_ms() -> float:
    """Wall time of a fixed allocation-heavy pure-Python probe (objects,
    a binary heap, a dict), the kind of work the sim plane does.

    The collector is paused for the probe (it builds no cycles), so its
    time does not depend on how large the program's heap is: it moves
    with the host's speed only.  On a shared host that speed drifts by
    half for minutes at a time; the probe run next to each op is what
    lets :class:`sim.HostScaledPhase` take that drift out.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: List[Tuple[int, int, _ProbeNode]] = []
        table: Dict[int, _ProbeNode] = {}
        for i in range(8_000):
            node = _ProbeNode(i, (i * 7919) % 1009)
            heapq.heappush(heap, (node.weight, i, node))
            table[i % 997] = node
            if len(heap) > 64:
                heapq.heappop(heap)[2].kids.append(node)
        return (time.perf_counter() - t0) * 1e3
    finally:
        if was_enabled:
            gc.enable()


async def direct_rtt_us(rounds: int = 400) -> float:
    """p50 of a 64 B echo round trip over plain loopback TCP — the
    paper's Table 2 "direct" row, with no relay in the path."""

    done = asyncio.Event()

    async def echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                data = await reader.readexactly(64)
                writer.write(data)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        writer.close()
        done.set()

    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.transport.get_extra_info("socket").setsockopt(
        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
    )
    msg = bytes(range(64))
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        writer.write(msg)
        if await reader.readexactly(64) != msg:
            raise RuntimeError("direct echo mismatch")
        samples.append((time.perf_counter() - t0) * 1e6)
    writer.close()
    await done.wait()
    server.close()
    await server.wait_closed()
    return median(samples)


# ---------------------------------------------------------------------------
# Closed-loop results
# ---------------------------------------------------------------------------


class Shuffled:
    """A seeded op sequence: ``items`` in shuffled blocks, each block
    holding every item once, so every run mixes them in the same
    proportions whatever its seed or length."""

    def __init__(self, rng: random.Random, items: "Sequence[Any]") -> None:
        self._rng = rng
        self._items = list(items)
        self._seq: List[Any] = []

    def __getitem__(self, i: int) -> Any:
        while len(self._seq) <= i:
            block = list(self._items)
            self._rng.shuffle(block)
            self._seq.extend(block)
        return self._seq[i]


@dataclass
class Op:
    """One completed (or failed) closed-loop operation."""

    t0: float
    t1: float
    ok: bool
    kind: str = ""
    #: Ordered, non-overlapping ``(layer, name, t0, t1)`` phases.
    spans: "List[Tuple[str, str, float, float]]" = field(default_factory=list)
    #: Workload-specific extras (open time, rtts, bytes, ...).
    extra: "Dict[str, Any]" = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


@dataclass
class Phase:
    """Everything one measured window produced."""

    ops: "List[Op]"
    #: ``(perf_counter, cpu_seconds)`` samples at slice edges.
    cpu_samples: "List[Tuple[float, float]]"
    counters: "Dict[str, Any]" = field(default_factory=dict)

    @property
    def good(self) -> "List[Op]":
        return [op for op in self.ops if op.ok]

    def slice_groups(self) -> "List[Tuple[float, float, List[Op]]]":
        """Per-slice ``(seconds, cpu_seconds, good ops ending in it)``
        for slices holding at least one good op."""
        good = sorted(self.good, key=lambda op: op.t1)
        out = []
        j = 0
        for (ta, ca), (tb, cb) in zip(self.cpu_samples, self.cpu_samples[1:]):
            while j < len(good) and good[j].t1 <= ta:
                j += 1
            k = j
            while k < len(good) and good[k].t1 <= tb:
                k += 1
            if k > j and tb > ta:
                out.append((tb - ta, cb - ca, good[j:k]))
        return out

    def slices(self) -> "List[Tuple[float, float]]":
        """Per-slice ``(ops_per_s, cpu_ms_per_op)``."""
        return [(len(ops) / sec, cpu * 1e3 / len(ops))
                for sec, cpu, ops in self.slice_groups()]

    def end_to_end(self) -> "Dict[str, float]":
        """The measured-window end-to-end metrics (all but ``setup_s``)."""
        times = [op.ms for op in self.good]
        sl = self.slices()
        return {
            "ops_per_s": median([s[0] for s in sl]),
            "op_ms.p50": pct(times, 50),
            "op_ms.p90": pct(times, 90),
            "cpu_ms_per_op": median([s[1] for s in sl]),
        }


def slice_edges(t0: float, seconds: float, slices: int) -> "List[float]":
    """End times of ``slices`` equal slices of a window starting at ``t0``."""
    return [t0 + seconds * (i + 1) / slices for i in range(slices)]


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Per-op layer accounting plus a Chrome trace written through
    :mod:`repro.obs`.

    Ops carry ordered, non-overlapping phase spans; a layer's *self*
    time is the summed duration of its phases, and whatever of the op
    no phase covers is the generator's own remainder — so the parts
    add up to the op by construction.  The recorder is private (never
    installed as the global ``repro.obs`` recorder), so the program
    under test runs exactly as it does untraced.
    """

    def __init__(self) -> None:
        from repro.obs.spans import ObsRecorder

        self.rec = ObsRecorder(wall_clock=time.perf_counter)
        self.base = time.perf_counter()
        self.self_s: Dict[str, float] = {}
        self.ops = 0

    def add(self, op: Op, track: str) -> None:
        """Account one op.  ``op.extra["self_s"]`` gives the layer split
        directly when a span holds generator work too; otherwise each
        span is its layer's self time."""
        from repro.obs.spans import PH_SPAN, WALL, SpanEvent

        if not op.ok:
            return
        self.ops += 1
        events = self.rec.events
        events.append(SpanEvent(WALL, PH_SPAN, "op", op.kind or "op",
                                op.t0 - self.base, op.t1 - op.t0, track, None))
        derived: Dict[str, float] = {}
        for layer, name, a, b in op.spans:
            derived[layer] = derived.get(layer, 0.0) + (b - a)
            events.append(SpanEvent(WALL, PH_SPAN, layer, name,
                                    a - self.base, b - a, track, None))
        parts = op.extra.get("self_s", derived)
        for layer, sec in parts.items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + sec
        rest = (op.t1 - op.t0) - sum(parts.values())
        self.self_s["generator"] = self.self_s.get("generator", 0.0) + rest

    def self_ms_per_op(self, layers: "List[str]") -> "Dict[str, float]":
        n = max(1, self.ops)
        return {layer: self.self_s.get(layer, 0.0) * 1e3 / n for layer in layers}

    def write(self, base: str, meta: "Dict[str, Any]") -> str:
        from repro.obs.export import write_artifacts

        os.makedirs(os.path.dirname(base) or ".", exist_ok=True)
        return write_artifacts(self.rec, base, extra_meta=meta)[0]


#: Layers a traced op's time is split into (``self_ms_per_op.<layer>``).
TRACE_LAYERS = [
    "api", "pump", "streams", "instance", "table4", "simnet", "knapsack",
    "generator",
]


def run_sync_loop(
    op_fn: "Callable[[int], Op]",
    seconds: float,
    slices: int,
    cpu_fn: "Callable[[], float]",
    tracer: "Optional[Tracer]" = None,
) -> Phase:
    """Closed loop for a synchronous op: run ``op_fn(i)`` back to back
    for ``seconds``, sampling CPU at slice edges as ops cross them."""
    t_start = time.perf_counter()
    edges = slice_edges(t_start, seconds, slices)
    samples = [(t_start, cpu_fn())]
    ops: List[Op] = []
    i = 0
    while edges:
        op = op_fn(i)
        i += 1
        ops.append(op)
        if tracer is not None:
            tracer.add(op, "generator")
        now = time.perf_counter()
        if now >= edges[0]:
            samples.append((now, cpu_fn()))
            edges = [t for t in edges if t > now]
    return Phase(ops, samples)
