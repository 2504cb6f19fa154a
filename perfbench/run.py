"""The repo benchmark: one command, four workloads, two planes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (their one-line reasons live in ``perfbench/layers.json``):

* ``chain_churn``   — live relay: fresh chains, 8 x 64 B echo, close;
* ``bulk_transfer`` — live relay: 1 MiB transfers over two long chains;
* ``striped_wan``   — live relay: k=2 striped transfers over a 3.5 ms WAN;
* ``table4_sim``    — sim plane: the Table 4 suite, one op per suite.

Run from the repository root (the program is imported from ``src/``).
Every op's output is checked (echo bytes, sha256 digests, Table 4
node counts / best values / rendered tables); a failed check counts
in ``failed`` and never aborts the run.  Human-readable lines go
first, prefixed ``#``; the last line of stdout is the JSON verdict:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
op throughput, op latency p50/p90, CPU per op).  With ``--trace 1``
half the window runs untraced and half traced; the metrics are the
per-layer ones, a Chrome trace of the traced half is written under
``.perfbench_out/`` and ``trace_overhead.*`` is traced minus untraced.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("chain_churn", "bulk_transfer", "striped_wan", "table4_sim")


def load_layer_map() -> "Dict[str, Any]":
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)


def per_layer_metrics(res: "Dict[str, Any]", ref: "Dict[str, float]") -> "Dict[str, float]":
    from common import TRACE_LAYERS

    out = dict(res["layers"])
    out.update(ref)
    tracer = res["tracer"]
    for layer, ms in tracer.self_ms_per_op(TRACE_LAYERS).items():
        out[f"self_ms_per_op.{layer}"] = ms
    untraced = res["phase"].end_to_end()
    traced = res["traced"].end_to_end()
    for name, value in traced.items():
        out[f"trace_overhead.{name}"] = value - untraced[name]
    return out


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setups", type=int, default=3,
                    help="set-ups per run; setup_s is their median")
    ap.add_argument("--slices", type=int, default=10,
                    help="throughput/CPU slices per window (medians)")
    ap.add_argument("--corrupt-every", type=int, default=0, metavar="K",
                    help="self-test: corrupt every K-th payload of caller 0 "
                    "(live workloads)")
    ap.add_argument("--target-nodes", type=int, default=None,
                    help="table4_sim: full-tree size of each pool instance")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to benchmark ({SRC}/repro is missing)",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_layer_map()

    import common

    if args.workload == "table4_sim":
        import sim

        kw: Dict[str, Any] = {}
        if args.target_nodes is not None:
            kw["target"] = args.target_nodes
        res = sim.run(args.seed, args.seconds, bool(args.trace),
                      slices=args.slices, setups=args.setups, **kw)
    else:
        import live

        res = live.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       slices=args.slices, setups=args.setups,
                       corrupt_every=args.corrupt_every)

    attempted, failed = res["attempted"], res["failed"]
    e2e = {"setup_s": res["setup_s"], **res["phase"].end_to_end()}
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for name, value, unit in res["report"] + [
        ("samples", len(res["phase"].good), "count"),
        ("failed_frac", failed / max(1, attempted), "ratio"),
    ] + [(k, v, e2e_units[k]) for k, v in e2e.items()]:
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    for msg in res["failures"]:
        print(f"# failure: {msg}", file=sys.stderr)

    if args.trace:
        ref = {
            "ref.direct_rtt_us.p50": asyncio.run(common.direct_rtt_us()),
            "ref.cpu_loop_ms": common.cpu_loop_ms(),
        }
        values = per_layer_metrics(res, ref)
        trace_path = res["tracer"].write(
            os.path.join(common.OUT_DIR, f"{args.workload}-{args.seed}"),
            {"workload": args.workload, "seed": args.seed},
        )
        print(f"# trace: {trace_path}")
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in e2e_units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
