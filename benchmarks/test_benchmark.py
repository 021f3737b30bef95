"""Self-test of the benchmark: one solve per workload emits every metric that
BENCHMARK.json names, with its unit.

Run from the repository root:  python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_tail_leaves_ten_solves_beyond():
    times = [float(t) for t in range(1, 101)]
    assert run.tail(times) == (90.0, 90.0)
    assert run.tail(times[:5]) == (5.0, 100.0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_solve_emits_end_to_end_metrics(name):
    res = run.timed_run(WORKLOADS[name], seed=0, seconds=0, max_solves=1)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 1, 0)
    assert {k: m["unit"] for k, m in res["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_solve_emits_per_layer_metrics(name, tmp_path):
    spans = tmp_path / "spans.npz"
    res = run.traced_run(WORKLOADS[name], seed=0, seconds=0, max_solves=1,
                         spans_path=spans)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 2, 0)
    assert {k: m["unit"] for k, m in res["metrics"].items()} == units("per_layer")
    assert res["metrics"]["drivers.nc_per_entry"]["value"] == 1.0
    assert spans.is_file()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "det_chained", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
