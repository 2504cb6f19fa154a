"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests

They run the real command (daemons and all) for about a second per
workload, so the whole file takes a minute or so.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LAYERS = json.load(open(os.path.join(BENCH, "layers.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, *extra: str, seed: int = 7, seconds: float = 1.5,
              trace: int = 0, cwd: str = ROOT) -> "subprocess.CompletedProcess[str]":
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--setups", "1", "--slices", "3", *extra,
    ]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def verdict(proc: "subprocess.CompletedProcess[str]") -> "dict":
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(proc: "subprocess.CompletedProcess[str]") -> "dict[str, float]":
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith("# ") and " = " in line:
            name, value = line[2:].split(" = ")
            out[name.split()[-1]] = float(value.split()[0])
    return out


def test_layer_map_matches_benchmark_json():
    assert [w["name"] for w in LAYERS["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in LAYERS["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ]
    assert [(m["name"], m["unit"], m["bound"]) for m in LAYERS["end_to_end"]] == [
        (m["name"], m["unit"], m["bound"]) for m in SPEC["end_to_end"]
    ]
    for m in LAYERS["per_layer"]:
        assert m["layer"] and m["moves"] and m["e2e"]
        assert m["workload"] in WORKLOADS + ["all"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(workload, trace):
    extra = ["--target-nodes", "500"] if workload == "table4_sim" else []
    proc = run_bench(workload, *extra, trace=trace)
    v = verdict(proc)
    assert v["correct"] and v["failed"] == 0 and v["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in v["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    assert all(isinstance(m["value"], float) for m in v["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in v["metrics"].values())
    else:
        assert v["metrics"]["ref.cpu_loop_ms"]["value"] > 0
        assert os.path.exists(os.path.join(ROOT, ".perfbench_out",
                                           f"{workload}-7.trace.json"))
    assert report(proc)["failed_frac"] == 0


@pytest.mark.parametrize("workload", ["chain_churn", "bulk_transfer", "striped_wan"])
def test_corrupted_payload_counts_as_failed(workload):
    proc = run_bench(workload, "--corrupt-every", "2", seconds=1.0)
    v = verdict(proc)
    assert not v["correct"]
    assert 1 <= v["failed"] < v["attempted"]
    assert report(proc)["failed_frac"] == pytest.approx(v["failed"] / v["attempted"], rel=1e-5)


def test_same_seed_same_op_sequence():
    import live
    import sim

    def churn_paths(seed):
        w = live.ChainChurn(seed, "t")
        return [w.seq[c][i] for c in (0, 1) for i in range(30)]

    def bulk_indices(seed):
        w = live.BulkTransfer(seed, "t")
        return [w.seq[c][i] for c in (0, 1) for i in range(30)]

    def pool_order(seed):
        w = sim.Table4Sim(seed, target=500)
        return [w.order[i] for i in range(30)]

    for fn in (churn_paths, bulk_indices, pool_order):
        assert fn(3) == fn(3)
        assert fn(3) != fn(4)
    assert live.seeded_payloads(3, 4096, 2) == live.seeded_payloads(3, 4096, 2)
    assert live.seeded_payloads(3, 4096, 2) != live.seeded_payloads(4, 4096, 2)
    # Every path / instance appears equally often in each block.
    paths = churn_paths(5)[:30]
    assert all(paths.count(p) == 10 for p in live.PATHS)


def test_same_seed_same_exact_counts():
    exact = ["simnet.events", "knapsack.nodes", "knapsack.steals",
             "knapsack.nodes_shipped", "sim_relay.bytes_relayed"]
    runs = [verdict(run_bench("table4_sim", "--target-nodes", "500", trace=1,
                              seconds=8.0)) for _ in range(2)]
    for name in exact:
        values = [r["metrics"][name]["value"] for r in runs]
        assert values[0] > 0 and values[0] == values[1], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("chain_churn", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
