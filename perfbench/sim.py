"""``table4_sim``: the Table 4 suite on the sim plane, one op per suite.

An op runs the sequential baseline plus the five Table 4 rows on one
knapsack instance, each through :func:`repro.bench.sweep.run_table4_task`
called serially so every row's wall time is its own.  The instances
come from a fixed pool; the run seed only orders the pool (balanced
blocks, every instance equally often), so any two seeds measure the
same population of suites.

Every suite is checked: each row's best value must equal an
independent dynamic-programming optimum of its instance, and node
counts, events, best values and the rendered Tables 4-6 must equal
the reference the run recorded on that instance's first suite.

Set-up is a fresh interpreter importing the sim stack, generating the
instance pool and solving the reference optima (``--prepare``).

The suite is pure CPU, and this plane's timings are host-scaled
(:class:`HostScaledPhase`): a shared host slows pure-Python work by
up to half for minutes at a time, which moved the raw suite time of
whole 25 s runs by a quarter.  A fixed probe
(:func:`common.host_probe_ms`) runs just before and just after every
suite, and the suite's wall and CPU times are scaled by
``PROBE_NOMINAL_MS / probe`` (the mean of the two readings).  A change
to the program moves the suite and not the probe, so it shows in full;
the raw suite time is printed on the ``#`` lines.  Set-up (a fresh
interpreter, mostly imports) is not work of the probe's kind and is
reported raw.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    PROBE_NOMINAL_MS,
    Op,
    Phase,
    Shuffled,
    Tracer,
    host_probe_ms,
    median,
    pct,
    run_sync_loop,
    self_cpu_s,
)

#: Knapsack instance seeds of the pool (5 is Table4Config's default).
#: Suite times differ by instance, so op-time percentiles fall between
#: instances; a dozen of them keeps those steps small.
INSTANCE_SEEDS = tuple(range(1, 13))
#: Unmeasured (but checked) suites first: lazy imports settle here.
WARMUP_SUITES = 2
#: Full-tree size of each pool instance: small enough for ~0.2 s suites,
#: so a run holds the 100+ suites its p90 needs.
TARGET_NODES = 5_000

#: Table 4 task label -> metric suffix.
ROW_KEYS = {
    "sequential": "sequential",
    "COMPaS": "compas",
    "ETL-O2K": "etl_o2k",
    "Local-area Cluster": "lan",
    "Wide-area Cluster (use Nexus Proxy)": "wan_proxy",
    "Wide-area Cluster (Not use Nexus Proxy)": "wan_direct",
}
PROXY_ROW = "Wide-area Cluster (use Nexus Proxy)"


def dp_optimum(profits: "List[int]", weights: "List[int]", capacity: int) -> int:
    """0-1 knapsack optimum by the textbook capacity DP."""
    best = [0] * (capacity + 1)
    for p, w in zip(profits, weights):
        for c in range(capacity, w - 1, -1):
            cand = best[c - w] + p
            if cand > best[c]:
                best[c] = cand
    return best[capacity]


def prepare(target: int, seeds: "Tuple[int, ...]") -> "Dict[str, int]":
    """Import the sim stack, build the pool, solve its optima."""
    from repro.bench.sweep import run_table4_task  # noqa: F401
    from repro.bench.table4 import Table4Config

    optima = {}
    for s in seeds:
        inst = Table4Config(target_nodes=target, seed=s).instance()
        optima[str(s)] = dp_optimum(list(inst.profits), list(inst.weights),
                                    inst.capacity)
    return optima


def setup_once(target: int, seeds: "Tuple[int, ...]") -> "Tuple[float, Dict[str, int]]":
    """One timed set-up in a fresh interpreter; returns (seconds, optima)."""
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "sim.py"), "--prepare",
           str(target)] + [str(s) for s in seeds]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         env=os.environ.copy())
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"sim set-up failed: {out.stderr.strip()[-500:]}")
    return elapsed, json.loads(out.stdout.strip().splitlines()[-1])


class _Probe:
    """Traced-mode hooks around the sim plane's public entry points.

    Times ``Table4Config.instance``, ``Simulator.run`` and the knapsack
    ``SearchState.branch``/``branch_fused`` calls, keeps every
    ``Testbed`` a task builds (for link and sim-relay counters) and the
    sequential solver's result (for its node count).
    """

    def __init__(self) -> None:
        self.acc: Dict[str, float] = {}
        self.testbeds: List[Any] = []
        self.seq_nodes: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self._depth = 0

    def _timed(self, owner: Any, attr: str, layer: str, nested: bool = False) -> None:
        orig = getattr(owner, attr)
        probe = self

        def wrapper(*a: Any, **k: Any) -> Any:
            if nested:
                probe._depth += 1
                if probe._depth > 1:
                    try:
                        return orig(*a, **k)
                    finally:
                        probe._depth -= 1
            t0 = time.perf_counter()
            try:
                return orig(*a, **k)
            finally:
                probe.acc[layer] = probe.acc.get(layer, 0.0) + time.perf_counter() - t0
                if nested:
                    probe._depth -= 1

        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self) -> "_Probe":
        import repro.apps.knapsack.driver as driver
        import repro.cluster.testbed as testbed_mod
        from repro.apps.knapsack.search import SearchState
        from repro.bench.table4 import Table4Config
        from repro.simnet.kernel import Simulator

        self._timed(Table4Config, "instance", "instance")
        self._timed(Simulator, "run", "sim_run")
        self._timed(SearchState, "branch", "knapsack", nested=True)
        self._timed(SearchState, "branch_fused", "knapsack", nested=True)

        probe = self
        base = testbed_mod.Testbed

        class RecordingTestbed(base):  # type: ignore[misc, valid-type]
            def __init__(self, *a: Any, **k: Any) -> None:
                super().__init__(*a, **k)
                probe.testbeds.append(self)

        self._undo.append((testbed_mod, "Testbed", base))
        testbed_mod.Testbed = RecordingTestbed

        orig_seq = driver.run_sequential_sim

        def seq(*a: Any, **k: Any) -> Any:
            res = yield from orig_seq(*a, **k)
            probe.seq_nodes.append(res.nodes_traversed)
            return res

        self._undo.append((driver, "run_sequential_sim", orig_seq))
        driver.run_sequential_sim = seq
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def take(self) -> "Dict[str, float]":
        acc, self.acc = self.acc, {}
        return acc


class Table4Sim:
    """The suite op over the instance pool, with its checks."""

    def __init__(self, seed: int, target: int = TARGET_NODES) -> None:
        from repro.bench.sweep import Table4Task
        from repro.bench.table4 import _ROW_SPECS, Table4Config

        self.configs = {s: Table4Config(target_nodes=target, seed=s)
                        for s in INSTANCE_SEEDS}
        self.tasks = {
            s: [Table4Task(cfg, "sequential", None, None)]
            + [Table4Task(cfg, label, name, proxy) for label, name, proxy in _ROW_SPECS]
            for s, cfg in self.configs.items()
        }
        self.order = Shuffled(random.Random(seed), INSTANCE_SEEDS)
        self.reference: Dict[int, Any] = {}
        self.optima: Dict[str, int] = {}
        self.failures: List[str] = []
        self.probe: Optional[_Probe] = None
        self.stats: Dict[int, Dict[str, Any]] = {}

    def suite(self, i: int) -> Op:
        from repro.bench.sweep import run_table4_task
        from repro.bench.table4 import Table4Results, render_table4
        from repro.bench.table56 import render_table5, render_table6

        s = self.order[i]
        probe = self.probe
        probe_ms = host_probe_ms()
        c0 = self_cpu_s()
        t0 = time.perf_counter()
        rows: Dict[str, float] = {}
        outcomes: Dict[str, Any] = {}
        stats: Dict[str, Any] = {"link_bytes": 0, "events": 0, "nodes": 0,
                                 "steals": 0, "shipped": 0, "parallel_s": 0.0}
        self_s: Dict[str, float] = {}
        spans = []
        ok = True
        try:
            for task in self.tasks[s]:
                a = time.perf_counter()
                label, result = run_table4_task(task)
                b = time.perf_counter()
                rows[ROW_KEYS[label]] = b - a
                outcomes[label] = result
                spans.append(("table4", ROW_KEYS[label], a, b))
                if label != "sequential":
                    stats["parallel_s"] += b - a
                if probe is not None:
                    acc = probe.take()
                    sim_run = acc.get("sim_run", 0.0)
                    knap = acc.get("knapsack", 0.0)
                    inst = acc.get("instance", 0.0)
                    for layer, sec in (("knapsack", knap), ("simnet", sim_run - knap),
                                       ("instance", inst),
                                       ("table4", (b - a) - sim_run - inst)):
                        self_s[layer] = self_s.get(layer, 0.0) + sec
                    tb = probe.testbeds.pop()
                    probe.testbeds.clear()
                    stats["link_bytes"] += sum(
                        d.forward.bytes_sent + d.reverse.bytes_sent for d in tb.net.links()
                    )
                    if label == PROXY_ROW:
                        snap = tb.outer_server.stats.snapshot()
                        stats["sim_relay_chunks"] = snap["chunks_relayed"]
                        stats["sim_relay_bytes"] = snap["bytes_relayed"]
                    if label == "sequential" and probe.seq_nodes:
                        stats["seq_nodes"] = probe.seq_nodes.pop()
                        stats["seq_s"] = b - a
            sequential = outcomes.pop("sequential")
            results = Table4Results(self.configs[s], sequential, outcomes)
            rendered = "\n".join(render(results) for render in
                                 (render_table4, render_table5, render_table6))
            want = self.optima.get(str(s))
            for label, run in outcomes.items():
                stats["events"] += run.events
                stats["nodes"] += run.total_nodes
                stats["steals"] += run.total_steals
                stats["shipped"] += sum(r.nodes_sent for r in run.rank_stats)
                if want is not None and run.best_value != want:
                    ok = False
                    self.failures.append(
                        f"instance {s} {label}: best {run.best_value} != optimum {want}"
                    )
            signature = (
                tuple((lab, r.total_nodes, r.best_value, r.events, r.total_steals)
                      for lab, r in sorted(outcomes.items())),
                sequential, rendered,
            )
            ref = self.reference.setdefault(s, signature)
            if ref != signature:
                ok = False
                self.failures.append(f"instance {s}: suite differs from its reference")
        except Exception as exc:  # a failed suite counts; it does not abort
            ok = False
            self.failures.append(f"instance {s}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        cpu_s = self_cpu_s() - c0
        if ok and probe is not None:
            self.stats[s] = stats
        probe_ms = (probe_ms + host_probe_ms()) / 2
        return Op(t0, t1, ok, kind=f"suite:{s}", spans=spans,
                  extra={"rows": rows, "self_s": self_s, "cpu_s": cpu_s,
                         "probe_ms": probe_ms,
                         "scale": PROBE_NOMINAL_MS / probe_ms})


class HostScaledPhase(Phase):
    """A window whose end-to-end metrics are host-scaled: every suite's
    wall and CPU time is multiplied by the ``scale`` its own probe gave.

    ``ops_per_s`` is suites per second of scaled suite time (the probes
    between suites are not counted), ``cpu_ms_per_op`` the scaled CPU
    of the suites; both are medians over the window's slices.
    """

    @classmethod
    def of(cls, phase: Phase) -> "HostScaledPhase":
        return cls(phase.ops, phase.cpu_samples, phase.counters)

    def end_to_end(self) -> "Dict[str, float]":
        times = [op.ms * op.extra["scale"] for op in self.good]
        groups = [ops for _, _, ops in self.slice_groups()]
        return {
            "ops_per_s": median([
                len(ops) / sum((op.t1 - op.t0) * op.extra["scale"] for op in ops)
                for ops in groups
            ]),
            "op_ms.p50": pct(times, 50),
            "op_ms.p90": pct(times, 90),
            "cpu_ms_per_op": median([
                sum(op.extra["cpu_s"] * op.extra["scale"] for op in ops) * 1e3 / len(ops)
                for ops in groups
            ]),
        }


def _layer_metrics(w: Table4Sim, phase: Phase) -> "Dict[str, float]":
    """Per-layer metrics of the sim plane (per suite, pool-averaged)."""
    good = phase.good
    st = list(w.stats.values())

    def pool_mean(key: str) -> float:
        vals = [x[key] for x in st if key in x]
        return sum(vals) / len(vals) if vals else 0.0

    out = {
        "simnet.events": pool_mean("events"),
        "simnet.events_per_s": (sum(x["events"] for x in st)
                                / max(1e-9, sum(x["parallel_s"] for x in st))),
        "simnet.link_bytes": pool_mean("link_bytes"),
        "knapsack.nodes": pool_mean("nodes"),
        "knapsack.sequential_nodes_per_s": (
            sum(x.get("seq_nodes", 0) for x in st)
            / max(1e-9, sum(x.get("seq_s", 0.0) for x in st))
        ),
        "knapsack.steals": pool_mean("steals"),
        "knapsack.nodes_shipped": pool_mean("shipped"),
        "sim_relay.chunks_relayed": pool_mean("sim_relay_chunks"),
        "sim_relay.bytes_relayed": pool_mean("sim_relay_bytes"),
    }
    for key in ROW_KEYS.values():
        out[f"table4.row_wall_s.{key}"] = median(
            [op.extra["rows"][key] for op in good if key in op.extra["rows"]]
        )
    return out


def _probe_p50(phase: Phase) -> float:
    return median([op.extra["probe_ms"] for op in phase.good])


def run(seed: int, seconds: float, trace: bool, slices: int = 10,
        setups: int = 3, target: int = TARGET_NODES) -> "Dict[str, Any]":
    times = []
    optima: Dict[str, int] = {}
    for _ in range(setups):
        elapsed, optima = setup_once(target, INSTANCE_SEEDS)
        times.append(elapsed)
    w = Table4Sim(seed, target)
    w.optima = optima

    phases = [Phase([w.suite(i) for i in range(WARMUP_SUITES)], [])]
    tracer = None
    if trace:
        phases.append(HostScaledPhase.of(
            run_sync_loop(w.suite, seconds / 2, slices, self_cpu_s)))
        tracer = Tracer()
        w.probe = _Probe().install()
        try:
            phases.append(HostScaledPhase.of(
                run_sync_loop(w.suite, seconds / 2, slices, self_cpu_s, tracer)))
        finally:
            w.probe.uninstall()
    else:
        phases.append(HostScaledPhase.of(
            run_sync_loop(w.suite, seconds, slices, self_cpu_s)))

    ops = [op for p in phases for op in p.ops]
    good = [op for p in phases for op in p.good]
    result: Dict[str, Any] = {
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "failures": w.failures[:20],
        "setup_s": median(times),
        "phase": phases[1],
        "report": [
            ("table4_wall_s", median([op.ms / 1e3 for op in phases[1].good]), "s"),
            ("table4_wall_s.host_scaled", phases[1].end_to_end()["op_ms.p50"] / 1e3, "s"),
            ("host_probe_ms.p50", _probe_p50(phases[1]), "ms"),
        ],
    }
    if trace:
        layers = _layer_metrics(w, phases[-1])
        layers["ref.host_probe_ms.p50"] = _probe_p50(phases[-1])
        result.update(traced=phases[-1], tracer=tracer, layers=layers)
    return result


if __name__ == "__main__" and len(sys.argv) > 1 and sys.argv[1] == "--prepare":
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    print(json.dumps(prepare(int(sys.argv[2]), tuple(int(x) for x in sys.argv[3:]))))
