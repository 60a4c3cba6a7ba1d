"""Tiny-budget smoke test of the benchmark harness.

Not part of the package's tests; run with ``python -m pytest bench/tests``.
The workloads are shrunk to a few epochs on a few rows, so this checks the
harness (stages, correctness checks, tracing, metric names), not timings.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pipeline  # noqa: E402
from hjbctrl import diffkit, hjbtrain, optim, rollout  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> pipeline.Workload:
    return replace(pipeline.WORKLOADS[name], batch=4, K=3, train_epochs=3, sysid_epochs=3,
                   sysid_batch=16, n_train=64, n_test=32, eval_starts=10, eval_calls=2)


def test_benchmark_json_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(pipeline.WORKLOADS)


@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    w = tiny(name)
    prep = pipeline.setup(w, seed=0)
    metrics, extras, rec, _ = pipeline.measure(w, prep, seed=0, seconds=0.0, trace=False,
                                               own_setup_s=0.1)
    assert rec.failures == []
    assert rec.attempted == 2 + w.eval_calls
    # this process's set-up plus one child process before each of the 3 stages
    assert len(extras["setup_samples"]) == 4
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert pipeline.END_TO_END_UNITS == want
    assert set(metrics) == set(want)
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
    assert extras["error_rate"] == 0.0


@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_restores_the_package(name):
    w = tiny(name)
    prep = pipeline.setup(w, seed=0)
    originals = (diffkit.add, diffkit.grad, rollout.rk4_step, optim.Adam.step)
    metrics, _, rec, _ = pipeline.measure(w, prep, seed=0, seconds=0.0, trace=True,
                                          own_setup_s=0.1)
    # one untraced reference round plus one traced round that repeated it bitwise
    assert rec.failures == []
    assert rec.attempted == 2 * (2 + w.eval_calls)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: pipeline.unit_of(name) for name in metrics
    }
    assert metrics["rollout.nfe_per_step"] == 4 * w.K
    # every node that is not a parameter leaf has a per-op count
    cfg = hjbtrain.HjbConfig()
    leaves = 2 * (len(cfg.controller_hidden) + 1) + 2 * (len(cfg.value_hidden) + 1)
    per_op = sum(v for k, v in metrics.items() if k.startswith("diffkit.nodes."))
    assert metrics["diffkit.tape_nodes"] == per_op + leaves
    assert (diffkit.add, diffkit.grad, rollout.rk4_step, optim.Adam.step) == originals


def test_every_round_is_checked_against_the_first(tmp_path):
    w = tiny("dubins-learned-b64")
    prep = pipeline.setup(w, seed=0)
    rec = pipeline.Record()
    tracer = pipeline.Tracer()

    def round_ok():
        return pipeline.run_round(w, prep, prep.spec, 0, tmp_path, rec, tracer,
                                  probe_setup=False)

    assert round_ok() and round_ok()
    assert rec.failures == [] and rec.attempted == 2 * (2 + w.eval_calls)
    # a reference that no round can repeat: only the stage it belongs to fails
    rec.eval_ref = dict(rec.eval_ref, terminal_error_mean=-1.0)
    assert not round_ok()
    assert len(rec.failures) == 1 and rec.failures[0].startswith("eval: CheckFailed")


@pytest.mark.parametrize("pinned", ["1", "2"])
def test_blas_thread_count_is_read_from_the_library(pinned):
    out = subprocess.run(
        [sys.executable, "-c", "import pipeline; print(pipeline.blas_threads())"],
        cwd=BENCH, capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": pinned,
             "PYTHONPATH": os.pathsep.join([str(BENCH), str(ROOT / "src")])},
    )
    assert out.returncode == 0, out.stderr
    if out.stdout.strip() == "None":
        pytest.skip("numpy is not linked against OpenBLAS")
    assert out.stdout.strip() == pinned


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dubins-analytic-b64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
