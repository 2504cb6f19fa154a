"""Live-plane workloads: ``chain_churn``, ``bulk_transfer``, ``striped_wan``.

The relay daemons run as their own processes, exactly as deployed:
``repro.core.aio.cli`` outer and inner servers, and for chain churn a
2-worker ``repro.core.aio.fleetctl serve`` fleet.  This process is the
load generator: one asyncio loop driving closed-loop callers (each
waits for its reply before the next request) through the client API
of ``repro.core.aio.api``.  Counters come from the daemons'
``/metrics.json`` telemetry and the fleet's ``GET /fleet``; CPU time
from ``/proc``.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import os
import random
import signal
import struct
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    OUT_DIR,
    Op,
    Phase,
    Shuffled,
    Tracer,
    free_ports,
    hist_delta,
    hist_p50,
    median,
    pct,
    proc_cpu_s,
    self_cpu_s,
    slice_edges,
)

HOST = "127.0.0.1"
MB = 1_000_000
MIB = 1 << 20
#: A closed-loop op that takes longer than this counts as failed.
OP_TIMEOUT_S = 15.0
READY_TIMEOUT_S = 60.0

#: chain_churn: echo rounds per chain and message size (Table 2's 64 B).
ROUNDS = 8
MSG = 64
PATHS = ("active", "passive", "fleet")

#: bulk_transfer: one-way transfer size (Table 2's 1 MB column).
BULK_BYTES = MIB
#: striped_wan: transfer size, stream count, block, per-stream window.
STRIPE_BYTES = 2 * MIB
STRIPE_K = 2
STRIPE_BLOCK = 128 * 1024
STRIPE_WINDOW = 4
#: One-way emulated WAN delay (the sim topology's 3.5 ms figure).
WAN_DELAY_S = 3.5e-3
#: Distinct seeded payloads per run.
PAYLOADS = 8
#: Unmeasured (but checked) ops before the window: lazy imports,
#: first-use allocations and TCP slow start settle here.
WARMUP_S = 1.0


# ---------------------------------------------------------------------------
# Daemon processes
# ---------------------------------------------------------------------------


class Proc:
    """One child process, logging to the run's output directory."""

    def __init__(self, name: str, argv: "List[str]", tag: str,
                 stdout_pipe: bool = False) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.name = name
        self.log = open(os.path.join(OUT_DIR, f"{tag}-{name}.log"), "w")
        self.p = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if stdout_pipe else self.log,
            stderr=self.log, env=os.environ.copy(),
        )

    @property
    def pid(self) -> int:
        return self.p.pid

    def alive(self) -> bool:
        return self.p.poll() is None

    def signal(self, sig: int) -> None:
        if self.alive():
            try:
                self.p.send_signal(sig)
            except OSError:
                pass

    def wait(self, timeout: float) -> bool:
        try:
            self.p.wait(timeout)
            return True
        except subprocess.TimeoutExpired:
            return False

    def stop(self, timeout: float = 8.0) -> None:
        self.signal(signal.SIGINT)
        if not self.wait(timeout):
            self.p.kill()
            self.p.wait()
        if self.p.stdout is not None:
            self.p.stdout.close()
        self.log.close()


def _daemon_argv(entry: str, args: "List[str]") -> "List[str]":
    code = f"from repro.core.aio.cli import {entry}; raise SystemExit({entry}())"
    return [sys.executable, "-c", code] + args


def http_json(port: int, path: str, method: str = "GET") -> "Dict[str, Any]":
    conn = http.client.HTTPConnection(HOST, port, timeout=10)
    try:
        conn.request(method, path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


async def _port_open(port: int) -> bool:
    try:
        _r, w = await asyncio.open_connection(HOST, port)
    except OSError:
        return False
    w.close()
    return True


class Plane:
    """The relay deployment: outer + inner daemons, optionally a fleet."""

    def __init__(self, tag: str, fleet: bool) -> None:
        self.tag = tag
        self.want_fleet = fleet
        self.procs: List[Proc] = []
        self.worker_pids: List[int] = []
        self.worker_tel: List[int] = []
        self.fleet: Optional[Proc] = None

    async def start(self) -> "Plane":
        (self.outer_port, self.outer_tel, self.inner_port, self.inner_tel,
         self.fleet_port, self.fleet_admin) = free_ports(6)
        self.outer = Proc("outer", _daemon_argv("outer_main", [
            "--control-port", str(self.outer_port),
            "--telemetry-port", str(self.outer_tel)]), self.tag)
        self.inner = Proc("inner", _daemon_argv("inner_main", [
            "--nxport", str(self.inner_port),
            "--telemetry-port", str(self.inner_tel)]), self.tag)
        self.procs += [self.outer, self.inner]
        if self.want_fleet:
            self.fleet = Proc("fleet", [
                sys.executable, "-m", "repro.core.aio.fleetctl",
                "--admin-port", str(self.fleet_admin), "serve", "--workers", "2",
                "--port", str(self.fleet_port), "--telemetry",
                "--sample-interval", "0"], self.tag)
            self.procs.append(self.fleet)
        deadline = time.perf_counter() + READY_TIMEOUT_S
        # The daemons open telemetry only once their relay listens; a
        # probe of the nxport itself would count as an nxport connection.
        pending = [self.outer_tel, self.inner_tel]
        while pending:
            self._check_alive(deadline)
            pending = [p for p in pending if not await _port_open(p)]
            if pending:
                await asyncio.sleep(0.02)
        if self.fleet is not None:
            while not self._fleet_ready():
                self._check_alive(deadline)
                await asyncio.sleep(0.05)
        return self

    def _check_alive(self, deadline: float) -> None:
        for proc in self.procs:
            if not proc.alive():
                raise RuntimeError(f"{proc.name} exited during set-up "
                                   f"(see {proc.log.name})")
        if time.perf_counter() > deadline:
            raise RuntimeError("relay plane not ready in time")

    def _fleet_ready(self) -> bool:
        try:
            body = http_json(self.fleet_admin, "/fleet")
        except (OSError, ValueError):
            return False
        wiring = body.get("wiring", {})
        workers = body.get("fleet", {}).get("workers", {})
        if len(wiring) != 2 or any(w.get("telemetry_port") is None
                                   for w in wiring.values()):
            return False
        if any(v.get("state") != "up" for v in workers.values()):
            return False
        self.worker_pids = [w["pid"] for w in wiring.values()]
        self.worker_tel = [w["telemetry_port"] for w in wiring.values()]
        return True

    @property
    def pids(self) -> "List[int]":
        return [p.pid for p in self.procs] + self.worker_pids

    def cpu_s(self) -> float:
        return sum(proc_cpu_s(pid) for pid in self.pids)

    def counters(self) -> "Dict[str, Any]":
        def relay(port: int) -> "Dict[str, Any]":
            return http_json(port, "/metrics.json")["registry"]["relay"]

        out: Dict[str, Any] = {
            "outer": relay(self.outer_tel),
            "inner": relay(self.inner_tel),
            "workers": [relay(p) for p in self.worker_tel],
            "daemon_cpu_s": self.cpu_s(),
        }
        if self.fleet is not None:
            out["fleet"] = http_json(self.fleet_admin, "/fleet")["fleet"]
        return out

    async def stop(self) -> None:
        if self.fleet is not None and self.fleet.alive():
            try:
                http_json(self.fleet_admin, "/stop", "POST")
            except (OSError, ValueError):
                pass
            if not self.fleet.wait(10.0):
                self.fleet.signal(signal.SIGINT)
        for proc in self.procs:
            proc.stop()
        for pid in self.worker_pids:
            _reap_stray(pid)


def _reap_stray(pid: int) -> None:
    """Kill a fleet worker its manager failed to stop, then wait for it."""
    for _ in range(50):
        try:
            os.kill(pid, 0)
        except OSError:
            return
        time.sleep(0.1)
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        return
    for _ in range(50):
        try:
            os.kill(pid, 0)
        except OSError:
            return
        time.sleep(0.1)


def _delta(after: "Dict[str, Any]", before: "Dict[str, Any]", key: str) -> int:
    return int(after.get(key, 0)) - int(before.get(key, 0))


def relay_deltas(after: "Dict[str, Any]", before: "Dict[str, Any]") -> "Dict[str, Any]":
    """Summed counter deltas over every relay daemon of the plane."""
    pairs = [(after["outer"], before["outer"]), (after["inner"], before["inner"])]
    pairs += list(zip(after["workers"], before["workers"]))
    keys = ("bytes_relayed", "chunks_relayed", "coalesced_flushes",
            "failed_requests", "mux_window_stalls")
    out: Dict[str, Any] = {k: sum(_delta(a, b, k) for a, b in pairs) for k in keys}
    out["mux_frames"] = sum(_delta(a, b, "mux_frames") for a, b in pairs[:2])
    out["mux_bytes"] = _delta(after["inner"], before["inner"], "bytes_relayed")
    out["chain_setup_us"] = hist_delta(after["outer"]["chain_setup_us_hist"],
                                       before["outer"]["chain_setup_us_hist"])
    out["worker_connects"] = [_delta(a, b, "active_connects")
                              for a, b in zip(after["workers"], before["workers"])]
    out["daemon_cpu_s"] = after["daemon_cpu_s"] - before["daemon_cpu_s"]
    out["nxport_connections"] = int(after["inner"]["nxport_connections"])
    if "fleet" in after:
        out["rejected"] = sum(_delta(after["fleet"], before["fleet"], k)
                              for k in ("rejected_quota", "rejected_no_worker"))
    return out


def seeded_payloads(seed: int, size: int, n: int = PAYLOADS) -> "List[Tuple[bytes, bytes]]":
    rng = random.Random(f"payload:{seed}")
    out = []
    for _ in range(n):
        data = rng.randbytes(size)
        out.append((data, hashlib.sha256(data).digest()))
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class LiveWorkload:
    """Set-up, one closed-loop op per ``op(caller, i)``, teardown."""

    name = ""
    fleet = False
    callers = 1
    #: What the seed sequences per caller (paths, or payload indices).
    choices: "Tuple[Any, ...]" = tuple(range(PAYLOADS))

    def __init__(self, seed: int, tag: str, corrupt_every: int = 0) -> None:
        self.seed = seed
        self.tag = tag
        self.corrupt_every = corrupt_every
        self.plane = Plane(tag, self.fleet)
        self.tasks: List[asyncio.Task] = []
        self.closers: List[Any] = []
        self.bind_us = 0.0
        self.next_index = [0] * self.callers
        self.seq = [Shuffled(random.Random(f"{self.name}:{seed}:{c}"), self.choices)
                    for c in range(self.callers)]

    def corrupt(self, caller: int, i: int) -> bool:
        k = self.corrupt_every
        return bool(k) and caller == 0 and i % k == k - 1

    async def setup(self) -> None:
        await self.plane.start()
        from repro.core.aio.api import AioProxyClient

        self.client = AioProxyClient((HOST, self.plane.outer_port),
                                     (HOST, self.plane.inner_port))

    async def bind(self) -> Any:
        t0 = time.perf_counter()
        listener = await self.client.bind()
        self.bind_us = (time.perf_counter() - t0) * 1e6
        self.closers.append(listener.close)
        return listener

    async def teardown(self) -> None:
        tasks = list(self.tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for close in reversed(self.closers):
            try:
                res = close()
                if asyncio.iscoroutine(res):
                    await asyncio.wait_for(res, 5.0)
            except Exception:
                pass
        await self.plane.stop()

    def cpu_s(self) -> float:
        return self_cpu_s() + self.plane.cpu_s()

    def layer_metrics(self, ops: "List[Op]", d: "Dict[str, Any]",
                      gen_cpu_s: float) -> "Dict[str, float]":
        """Workload-specific per-layer metrics (beyond ``common_layers``)."""
        return {}

    def report(self, ops: "List[Op]", elapsed: float) -> "List[Tuple[str, float, str]]":
        raise NotImplementedError


async def _echo_loop(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                     on_first: Any = None) -> None:
    from repro.core.aio.pump import tune_stream

    tune_stream(writer)
    try:
        first = True
        while True:
            data = await reader.readexactly(MSG)
            if first and on_first is not None:
                on_first(data)
            first = False
            writer.write(data)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        pass
    finally:
        writer.close()


class ChainChurn(LiveWorkload):
    """2 callers; each op opens a fresh chain on a seeded path, does
    8 round trips of a 64 B echo and closes."""

    name = "chain_churn"
    fleet = True
    callers = 2
    choices = PATHS

    async def setup(self) -> None:
        await super().setup()
        from repro.core.aio.api import AioProxyClient

        server = await asyncio.start_server(_echo_loop, HOST, 0)
        self.closers.append(server.close)
        self.echo_port = server.sockets[0].getsockname()[1]
        self.fleet_client = AioProxyClient((HOST, self.plane.fleet_port))
        self.listener = await self.bind()
        self.accepted: Dict[int, float] = {}
        self.tasks.append(asyncio.ensure_future(self._acceptor()))

    async def _acceptor(self) -> None:
        while True:
            reader, writer = await self.listener.accept()
            t = time.perf_counter()

            def on_first(data: bytes, t: float = t) -> None:
                self.accepted[struct.unpack_from("!Q", data)[0]] = t

            task = asyncio.ensure_future(_echo_loop(reader, writer, on_first))
            self.tasks.append(task)
            task.add_done_callback(self.tasks.remove)

    async def op(self, caller: int, i: int) -> Op:
        from repro.core.aio.pump import tune_stream

        path = self.seq[caller][i]
        op_id = (caller << 40) | i
        salt = random.Random(op_id ^ self.seed).randbytes(MSG - 16)
        t0 = time.perf_counter()
        if path == "passive":
            reader, writer = await asyncio.open_connection(*self.listener.proxy_addr)
            tune_stream(writer)
        else:
            client = self.fleet_client if path == "fleet" else self.client
            reader, writer = await client.connect(HOST, self.echo_port)
        t_conn = time.perf_counter()
        ok = True
        trips = []  # (write, reply) times of each round
        try:
            for r in range(ROUNDS):
                msg = struct.pack("!QQ", op_id, r) + salt
                want = msg
                if self.corrupt(caller, i) and r == ROUNDS - 1:
                    msg = msg[:-1] + bytes([msg[-1] ^ 0xFF])
                t_w = time.perf_counter()
                writer.write(msg)
                got = await reader.readexactly(MSG)
                trips.append((t_w, time.perf_counter()))
                ok = ok and got == want
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        t1 = time.perf_counter()
        t_echo = trips[-1][1]
        t_open = self.accepted.pop(op_id, t_conn) if path == "passive" else t_conn
        t_open = min(max(t_open, t_conn), trips[0][1])
        # Between round trips the generator packs and checks messages;
        # only the round trips themselves (after the chain is open)
        # are the relay's.
        self_s = {"api": (t_open - t0) + (t1 - t_echo),
                  "pump": sum(b - max(a, t_open) for a, b in trips)}
        return Op(t0, t1, ok, kind=path, spans=[
            ("api", "open", t0, t_open),
            ("pump", "echo", t_open, t_echo),
            ("api", "close", t_echo, t1),
        ], extra={"self_s": self_s, "open_us": (t_open - t0) * 1e6,
                  "connect_us": (t_conn - t0) * 1e6,
                  "accept_wait_us": (t_open - t_conn) * 1e6,
                  "rtt_us": [(b - a) * 1e6 for a, b in trips[1:]],
                  "bytes": 2 * ROUNDS * MSG})

    def _open_p50(self, ops: "List[Op]", path: str) -> float:
        return pct([op.extra["open_us"] for op in ops if op.kind == path], 50)

    def report(self, ops: "List[Op]", elapsed: float) -> "List[Tuple[str, float, str]]":
        opens = [op.extra["open_us"] for op in ops]
        rtts = [x for op in ops for x in op.extra["rtt_us"]]
        return [
            ("chain_ops_per_s", len(ops) / elapsed, "1/s"),
            ("chain_open_us.p50", pct(opens, 50), "us"),
            ("chain_open_us.p99", pct(opens, 99), "us"),
            ("rtt_us.p50", pct(rtts, 50), "us"),
            ("rtt_us.p99", pct(rtts, 99), "us"),
        ] + [(f"chain_open_us.p50.{p}", self._open_p50(ops, p), "us") for p in PATHS]

    def layer_metrics(self, ops: "List[Op]", d: "Dict[str, Any]",
                      gen_cpu_s: float) -> "Dict[str, float]":
        active = self._open_p50(ops, "active")
        conns = d["worker_connects"]
        return {
            "api.connect_us.p50": pct([op.extra["connect_us"] for op in ops
                                       if op.kind != "passive"], 50),
            "api.accept_wait_us.p50": pct([op.extra["accept_wait_us"] for op in ops
                                           if op.kind == "passive"], 50),
            "mux.passive_open_increment_us": self._open_p50(ops, "passive") - active,
            "fleet.handoff_increment_us": self._open_p50(ops, "fleet") - active,
            "placement.spread": (max(conns) / max(1, min(conns))) if conns else 0.0,
            "placement.rejected": float(d.get("rejected", 0)),
        }


class BulkTransfer(LiveWorkload):
    """Two long-lived chains (active, passive) carrying seeded 1 MiB
    one-way transfers in alternating directions; the receiver hashes
    each and acks it with the digest."""

    name = "bulk_transfer"
    callers = 2

    async def setup(self) -> None:
        await super().setup()
        from repro.core.aio.pump import tune_stream

        self.payloads = seeded_payloads(self.seed, BULK_BYTES)
        accepted: "asyncio.Queue[Tuple[Any, Any]]" = asyncio.Queue()

        async def on_conn(r: Any, w: Any) -> None:
            tune_stream(w)
            await accepted.put((r, w))

        server = await asyncio.start_server(on_conn, HOST, 0)
        self.closers.append(server.close)
        a_r, a_w = await self.client.connect(HOST, server.sockets[0].getsockname()[1])
        b_r, b_w = await accepted.get()
        listener = await self.bind()
        p_r, p_w = await asyncio.open_connection(*listener.proxy_addr)
        tune_stream(p_w)
        q_r, q_w = await listener.accept(timeout=READY_TIMEOUT_S)
        self.chains = [((a_r, a_w), (b_r, b_w)), ((p_r, p_w), (q_r, q_w))]
        for w in (a_w, b_w, p_w, q_w):
            self.closers.append(w.close)

    async def op(self, caller: int, i: int) -> Op:
        ends = self.chains[caller]
        (src_r, src_w), (dst_r, dst_w) = ends if i % 2 == 0 else ends[::-1]
        data, digest = self.payloads[self.seq[caller][i]]
        if self.corrupt(caller, i):
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        t0 = time.perf_counter()
        src_w.write(data)
        got = await dst_r.readexactly(len(data))
        t_recv = time.perf_counter()
        ok = hashlib.sha256(got).digest() == digest
        t_hash = time.perf_counter()
        dst_w.write(digest if ok else bytes(32))
        ack = await src_r.readexactly(32)
        await src_w.drain()
        t1 = time.perf_counter()
        ok = ok and ack == digest
        return Op(t0, t1, ok, kind="active" if caller == 0 else "passive", spans=[
            ("pump", "transfer", t0, t_recv),
            ("pump", "ack", t_hash, t1),
        ], extra={"bytes": len(data)})

    def report(self, ops: "List[Op]", elapsed: float) -> "List[Tuple[str, float, str]]":
        return _xfer_report(ops, elapsed)


class StripedWan(LiveWorkload):
    """Seeded k=2 striped transfers through an emulated 3.5 ms WAN hop
    into a StripeSink behind a passive bind."""

    name = "striped_wan"

    async def setup(self) -> None:
        await super().setup()
        from repro.core.aio.streams import StripeSink

        self.payloads = seeded_payloads(self.seed, STRIPE_BYTES)
        listener = await self.bind()
        (self.wan_port,) = free_ports(1)
        here = os.path.dirname(os.path.abspath(__file__))
        self.wan = Proc("wan", [sys.executable, os.path.join(here, "wan.py"),
                                str(self.wan_port), listener.proxy_addr[0],
                                str(listener.proxy_addr[1]), str(WAN_DELAY_S)],
                        self.tag, stdout_pipe=True)
        self.closers.append(self.wan.stop)
        if not self.wan.p.stdout.readline().startswith(b"ready"):
            raise RuntimeError("WAN emulator failed to start")
        self.sink = StripeSink(listener.accept)
        self.closers.append(self.sink.close)

    async def op(self, caller: int, i: int) -> Op:
        data, digest = self.payloads[self.seq[caller][i]]
        if self.corrupt(caller, i):
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        t0 = time.perf_counter()
        recv = asyncio.ensure_future(self.sink.recv())
        try:
            report = await self.client.send_striped(
                HOST, self.wan_port, data, streams=STRIPE_K,
                block_bytes=STRIPE_BLOCK, window_blocks=STRIPE_WINDOW)
        except BaseException:
            recv.cancel()
            raise
        t_sent = time.perf_counter()
        got, _ = await recv
        t_recv = time.perf_counter()
        ok = hashlib.sha256(got).digest() == digest
        t1 = time.perf_counter()
        return Op(t0, t1, ok, kind="striped", spans=[
            ("streams", "send_striped", t0, t_sent),
            ("streams", "sink", t_sent, t_recv),
        ], extra={"bytes": len(data), "send_ms": (t_sent - t0) * 1e3,
                  "requeued": report["requeued_blocks"],
                  "reconnects": report["reconnects"]})

    def report(self, ops: "List[Op]", elapsed: float) -> "List[Tuple[str, float, str]]":
        return _xfer_report(ops, elapsed)

    def layer_metrics(self, ops: "List[Op]", d: "Dict[str, Any]",
                      gen_cpu_s: float) -> "Dict[str, float]":
        mb = sum(op.extra["bytes"] for op in ops) / MB
        return {
            "streams.send_striped_ms.p50": pct([op.extra["send_ms"] for op in ops], 50),
            "streams.client_cpu_s_per_mb": gen_cpu_s / mb if mb else 0.0,
            "streams.requeued_blocks": float(sum(op.extra["requeued"] for op in ops)),
            "streams.reconnects": float(sum(op.extra["reconnects"] for op in ops)),
        }


def _xfer_report(ops: "List[Op]", elapsed: float) -> "List[Tuple[str, float, str]]":
    times = [op.ms for op in ops]
    return [
        ("goodput_mb_per_s", sum(op.extra["bytes"] for op in ops) / MB / elapsed, "MB/s"),
        ("xfer_ms.p50", pct(times, 50), "ms"),
        ("xfer_ms.p90", pct(times, 90), "ms"),
    ]


WORKLOADS = {w.name: w for w in (ChainChurn, BulkTransfer, StripedWan)}


# ---------------------------------------------------------------------------
# Closed-loop runner
# ---------------------------------------------------------------------------


async def run_phase(w: LiveWorkload, seconds: float, slices: int,
                    tracer: "Optional[Tracer]") -> Phase:
    """Closed loop: ``w.callers`` callers send ops back to back for
    ``seconds``; CPU is sampled at slice edges."""
    before = w.plane.counters()
    gen0 = self_cpu_s()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    ops: List[Op] = []
    failures: List[str] = []

    async def caller(c: int) -> None:
        i = w.next_index[c]
        while time.perf_counter() < deadline:
            t0 = time.perf_counter()
            try:
                op = await asyncio.wait_for(w.op(c, i), OP_TIMEOUT_S)
            except Exception as exc:  # counted, never fatal
                op = Op(t0, time.perf_counter(), False, kind="error")
                failures.append(f"caller {c} op {i}: {type(exc).__name__}: {exc}")
            else:
                if not op.ok:
                    failures.append(f"caller {c} op {i} ({op.kind}): output mismatch")
            ops.append(op)
            if tracer is not None:
                tracer.add(op, f"caller{c}")
            i += 1
        w.next_index[c] = i

    samples = [(t_start, w.cpu_s())]

    async def sampler() -> None:
        for edge in slice_edges(t_start, seconds, slices):
            await asyncio.sleep(max(0.0, edge - time.perf_counter()))
            samples.append((time.perf_counter(), w.cpu_s()))

    await asyncio.gather(sampler(), *(caller(c) for c in range(w.callers)))
    gen_cpu = self_cpu_s() - gen0
    after = w.plane.counters()
    phase = Phase(ops, samples)
    phase.counters = relay_deltas(after, before)
    phase.counters["gen_cpu_s"] = gen_cpu
    phase.counters["failures"] = failures
    return phase


def common_layers(w: LiveWorkload, phase: Phase) -> "Dict[str, float]":
    """Relay, pump and mux metrics every live workload reports."""
    d = phase.counters
    good = phase.good
    relayed_mb = d["bytes_relayed"] / MB
    payload_mb = sum(op.extra.get("bytes", 0) for op in good) / MB
    return {
        "api.bind_us": w.bind_us,
        "relay.chain_setup_us.p50": hist_p50(d["chain_setup_us"]),
        "relay.cpu_s_per_op": d["daemon_cpu_s"] / max(1, len(good)),
        "relay.cpu_s_per_mb": d["daemon_cpu_s"] / payload_mb if payload_mb else 0.0,
        "relay.failed_requests": float(d["failed_requests"]),
        "pump.bytes_per_chunk": d["bytes_relayed"] / max(1, d["chunks_relayed"]),
        "pump.flushes_per_mb": d["coalesced_flushes"] / relayed_mb if relayed_mb else 0.0,
        "mux.frames_per_mb": (d["mux_frames"] / (d["mux_bytes"] / MB)
                              if d["mux_bytes"] else 0.0),
        "mux.window_stalls": float(d["mux_window_stalls"]),
        "mux.nxport_connections": float(d["nxport_connections"]),
    }


async def run_async(name: str, seed: int, seconds: float, trace: bool,
                    slices: int = 10, setups: int = 3,
                    corrupt_every: int = 0) -> "Dict[str, Any]":
    cls = WORKLOADS[name]
    tag = f"{name}-{seed}"
    times = []
    w: Optional[LiveWorkload] = None
    try:
        for k in range(setups):
            w = cls(seed, tag, corrupt_every)
            t0 = time.perf_counter()
            await w.setup()
            times.append(time.perf_counter() - t0)
            if k < setups - 1:
                await w.teardown()
                w = None
        assert w is not None
        phases = [await run_phase(w, WARMUP_S, 1, None)]
        tracer = None
        if trace:
            phases.append(await run_phase(w, seconds / 2, slices, None))
            tracer = Tracer()
            phases.append(await run_phase(w, seconds / 2, slices, tracer))
        else:
            phases.append(await run_phase(w, seconds, slices, None))
    finally:
        if w is not None:
            await w.teardown()

    measured = phases[-1]
    ops = [op for p in phases for op in p.ops]
    failed = sum(1 for op in ops if not op.ok)
    failures = [f for p in phases for f in p.counters["failures"]]
    checks = 1
    if measured.counters["nxport_connections"] != 1:
        failed += 1
        failures.append(f"nxport_connections = {measured.counters['nxport_connections']}"
                        " (want 1 per outer)")
    window = phases[1].cpu_samples
    result: Dict[str, Any] = {
        "attempted": len(ops) + checks,
        "failed": failed,
        "failures": failures[:20],
        "setup_s": median(times),
        "phase": phases[1],
        "report": w.report(phases[1].good, window[-1][0] - window[0][0]),
    }
    if trace:
        layers = common_layers(w, measured)
        layers.update(w.layer_metrics(measured.good, measured.counters,
                                      measured.counters["gen_cpu_s"]))
        result.update(traced=measured, tracer=tracer, layers=layers)
    return result


def run(name: str, seed: int, seconds: float, trace: bool, **kw: Any) -> "Dict[str, Any]":
    return asyncio.run(run_async(name, seed, seconds, trace, **kw))
