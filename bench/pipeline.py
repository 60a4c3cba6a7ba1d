"""Workloads, stages, correctness checks and metrics of the benchmark.

One run of one workload, in its own process: set up (imports, system,
sysid training set), then repeat rounds of

    sysid.train_sysid -> hjbtrain.train_controller -> cli.evaluate (x n)

with the same seed until the time budget is spent, and report medians.
Every round must reproduce the first bitwise, which is one of the
correctness checks.  A traced run (``--trace 1``) runs one untraced round
first as its reference, then traced rounds, and reports per-layer metrics.

The process reads and writes only inside the checkout: the sysid
checkpoint goes to a temporary directory under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import hjbctrl
from hjbctrl import cli, dynzoo, hjbtrain, netzoo, sysid
from hjbctrl.diffkit import NumericError
from hjbctrl.dynzoo import DynamicsError
from hjbctrl.sysid import TrainingDiverged

from layertrace import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
LOSS_KEYS = ("loss_total", "loss_cost", "loss_hjb", "loss_final", "loss_hamil")
STAGE_ERRORS = (NumericError, TrainingDiverged, DynamicsError, AssertionError)


@dataclass(frozen=True)
class Workload:
    """Fixed inputs of one workload; the seed comes from the command line."""

    name: str
    system: str
    learned: bool  # train under the sysid network instead of the analytic f
    batch: int
    K: int
    train_epochs: int
    eval_metric: str
    eval_threshold: float
    eval_starts: int = 1000
    eval_calls: int = 10  # cli.evaluate calls per round
    sysid_epochs: int = 300  # one minibatch step each
    sysid_batch: int = 256
    n_train: int = 20_000
    n_test: int = 10_000


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# cartpole-analytic-b512 is run by hand only and is not in BENCHMARK.json:
# its training time moved by 25-35% between sets of runs of the same code
# on a shared 2-core host, more than the largest bound a metric may have.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dubins-analytic-b64", "dubins", learned=False, batch=64, K=50,
                 train_epochs=60, eval_metric="position", eval_threshold=0.15),
        Workload("dubins-learned-b64", "dubins", learned=True, batch=64, K=50,
                 train_epochs=30, eval_metric="position", eval_threshold=0.15),
        Workload("cartpole-analytic-b512", "cartpole", learned=False, batch=512, K=60,
                 train_epochs=25, eval_calls=5, eval_metric="state", eval_threshold=0.3),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_step_ms.p50": "ms",
    "train_s": "s",
    "sysid_s": "s",
    "eval_starts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A stage returned without raising but its output is wrong."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Environment and set-up
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library this process has loaded,
    or None when no loaded library answers."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads": blas_threads(),
        "hjbctrl": hjbctrl.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


@dataclass
class Prepared:
    spec: dynzoo.SystemSpec
    data: dynzoo.Dataset
    sysid_cfg: sysid.SysIdConfig


def setup(w: Workload, seed: int) -> Prepared:
    """Everything before the first timed stage, after the imports."""
    spec = dynzoo.make_system(w.system)
    cfg = sysid.SysIdConfig(
        activation="sine", grad_supervision=True, n_train=w.n_train, n_test=w.n_test,
        epochs=w.sysid_epochs, batch=w.sysid_batch, omega0=8.0, seed=seed,
    )
    data = dynzoo.sample_dataset(spec, w.n_train, seed=seed)
    return Prepared(spec=spec, data=data, sysid_cfg=cfg)


def child_setup_seconds(w: Workload, seed: int) -> float:
    """Set-up time of a fresh process, measured by that process."""
    out = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", w.name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Record:
    """Measurements and check results accumulated over the rounds of a run."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    sysid_s: list = field(default_factory=list)
    train_s: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    eval_rate: list = field(default_factory=list)
    train_steps: int = 0
    sysid_steps: int = 0
    eval_calls: int = 0
    setup_s: list = field(default_factory=list)  # from --setup-only children
    nfe_per_step: float = 0.0
    # outputs of the first round, which every later round must repeat bitwise
    sysid_ref: tuple | None = None
    loss_ref: list | None = None
    eval_ref: dict | None = None

    def restart_samples(self) -> list:
        """Drop the timing samples taken so far; return the old step times."""
        old = self.step_ms
        self.sysid_s, self.train_s, self.step_ms, self.eval_rate = [], [], [], []
        self.train_steps = self.sysid_steps = self.eval_calls = 0
        return old


def _eval_fields(rep: cli.EvalReport) -> dict:
    out = asdict(rep)
    out.pop("compute_time_per_traj_s")
    return out


def _stage(rec: Record, name: str, fn) -> bool:
    rec.attempted += 1
    try:
        fn()
    except (CheckFailed, *STAGE_ERRORS) as e:
        rec.failures.append(f"{name}: {type(e).__name__}: {e}")
        return False
    return True


def run_round(w: Workload, prep: Prepared, spec: dynzoo.SystemSpec, seed: int,
              workdir: Path, rec: Record, tracer: Tracer, probe_setup: bool) -> bool:
    """sysid -> train -> eval once; False if a stage failed.

    With ``probe_setup``, a fresh process times its set-up before each
    stage, so the setup_s samples are spread over the whole run.
    """
    out: dict = {}

    def probe():
        if probe_setup:
            rec.setup_s.append(child_setup_seconds(w, seed))

    def do_sysid():
        tracer.stage = "sysid"
        t0 = perf_counter()
        net, report, losses = sysid.train_sysid(spec, prep.sysid_cfg, train_data=prep.data)
        dt = perf_counter() - t0
        tracer.stage = "bench"
        _check(len(losses) == w.sysid_epochs, f"{len(losses)} sysid losses, want {w.sysid_epochs}")
        _check(all(math.isfinite(v) for v in losses), "non-finite sysid loss")
        _check(math.isfinite(report.median), "non-finite held-out error")
        if rec.sysid_ref is None:
            rec.sysid_ref = (losses, report.median)
        _check(rec.sysid_ref == (losses, report.median), "sysid did not repeat bitwise")
        rec.sysid_s.append(dt)
        rec.sysid_steps += w.sysid_epochs
        out["net"] = net

    def do_train():
        transition = "analytic"
        if w.learned:
            path = workdir / "ftheta.json"
            netzoo.save(out["net"], path, metadata={"system": w.system, "seed": seed})
            transition = str(path)
        cfg = hjbtrain.HjbConfig(epochs=w.train_epochs, batch=w.batch, K=w.K, seed=seed,
                                 transition=transition)
        tracer.stage = "train"
        t0 = perf_counter()
        controller, _value, log = hjbtrain.train_controller(spec, cfg)
        dt = perf_counter() - t0
        tracer.stage = "bench"
        _check(len(log) == w.train_epochs, f"{len(log)} log rows, want {w.train_epochs}")
        for row in log:
            _check(all(math.isfinite(row[k]) for k in LOSS_KEYS),
                   f"non-finite loss at epoch {row['epoch']}")
            want = 4 * w.K * (row["epoch"] + 1)
            _check(row["nfe_cumulative"] == want,
                   f"nfe_cumulative {row['nfe_cumulative']} != 4*K*epochs = {want}")
        losses = [row["loss_total"] for row in log]
        if rec.loss_ref is None:
            rec.loss_ref = losses
        _check(losses == rec.loss_ref, "loss_total sequence differs from the reference round")
        walls = [0.0] + [row["wall_time_s"] for row in log]
        rec.step_ms.extend(1e3 * (b - a) for a, b in zip(walls, walls[1:]))
        rec.train_s.append(dt)
        rec.train_steps += w.train_epochs
        rec.nfe_per_step = log[-1]["nfe_cumulative"] / len(log)
        out["controller"] = controller

    def do_eval():
        tracer.stage = "eval"
        t0 = perf_counter()
        rep = cli.evaluate(spec, out["controller"], n_starts=w.eval_starts, seed=seed, K=w.K,
                           threshold=w.eval_threshold, metric=w.eval_metric)
        dt = perf_counter() - t0
        tracer.stage = "bench"
        _check(rep.ftheta_nfe == 0, f"evaluation touched learned dynamics ({rep.ftheta_nfe})")
        _check(rep.n_starts == w.eval_starts, "wrong number of evaluation starts")
        _check(math.isfinite(rep.terminal_error_mean), "non-finite terminal error")
        fields = _eval_fields(rep)
        if rec.eval_ref is None:
            rec.eval_ref = fields
        _check(fields == rec.eval_ref, "evaluation did not repeat bitwise")
        rec.eval_rate.append(w.eval_starts / dt)
        rec.eval_calls += 1

    probe()
    if not _stage(rec, "sysid", do_sysid):
        return False
    probe()
    if not _stage(rec, "train", do_train):
        return False
    probe()
    return all(_stage(rec, "eval", do_eval) for _ in range(w.eval_calls))


def measure(w: Workload, prep: Prepared, seed: int, seconds: float, trace: bool,
            own_setup_s: float):
    """Run rounds for about ``seconds``; returns (metrics, extras, record, tracer).

    A new round starts only if the previous round's duration still fits in
    the budget, so a run measures at most ``seconds`` after its first round.
    ``own_setup_s`` is this process's set-up time, one of the setup_s samples.
    """
    tracer = Tracer()
    ref_step_ms: list[float] = []
    t_begin = perf_counter()
    rec = Record()
    with tempfile.TemporaryDirectory(dir=_workroot()) as tmp:
        workdir = Path(tmp)
        ok = True
        if trace:
            # untraced reference round: the traced rounds must repeat its
            # losses bitwise, and its step times are the overhead baseline
            ok = run_round(w, prep, prep.spec, seed, workdir, rec, tracer, probe_setup=False)
            ref_step_ms = rec.restart_samples()
        if ok:
            with tracer.installed() if trace else contextlib.nullcontext():
                spec = tracer.wrap_spec(prep.spec) if trace else prep.spec
                while True:
                    t_round = perf_counter()
                    if not run_round(w, prep, spec, seed, workdir, rec, tracer,
                                     probe_setup=not trace):
                        break
                    now = perf_counter()
                    if (now - t_begin) + (now - t_round) > seconds:
                        break
    metrics = end_to_end(rec, own_setup_s)
    extras = {
        "train_step_ms.p90": float(np.percentile(rec.step_ms, 90)) if rec.step_ms else None,
        "loss_total.final": rec.loss_ref[-1] if rec.loss_ref else None,
        "sysid_err.median": rec.sysid_ref[1] if rec.sysid_ref else None,
        "error_rate": len(rec.failures) / max(rec.attempted, 1),
        "rounds": len(rec.train_s),
        "train_step_samples": len(rec.step_ms),
        "setup_samples": [own_setup_s] + rec.setup_s,
    }
    if trace:
        metrics = per_layer(tracer, rec, ref_step_ms) if not rec.failures else {}
    return metrics, extras, rec, tracer


def _workroot() -> Path:
    root = ROOT / ".bench_build"
    root.mkdir(exist_ok=True)
    return root


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(rec: Record, own_setup_s: float) -> dict:
    """The bounded metrics of the untraced rounds."""
    out = {"setup_s": median([own_setup_s] + rec.setup_s)}
    if rec.step_ms:
        out["train_step_ms.p50"] = float(np.percentile(rec.step_ms, 50))
    if rec.train_s:
        out["train_s"] = median(rec.train_s)
    if rec.sysid_s:
        out["sysid_s"] = median(rec.sysid_s)
    if rec.eval_rate:
        out["eval_starts_per_s"] = median(rec.eval_rate)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


# op kinds whose forward and backward times are reported; the rest occur on
# only some workloads (div, neg) and appear as node counts and in the op table
TIMED_OPS = ("add", "sub", "mul", "matmul", "tanh", "sqrt", "square", "abs", "sum",
             "mean", "concat", "reshape", "transpose", "getitem")
COUNTED_OPS = TIMED_OPS + ("div", "neg", "sin", "cos")


def per_layer(tr: Tracer, rec: Record, ref_step_ms: list[float]) -> dict:
    """Per-layer metrics of the traced rounds, per training step unless noted.

    Every time reported here is non-zero on every workload; a layer that is
    idle on some workload (dynzoo in learned training, netzoo.vjp in analytic
    training) is reported by its call count.
    """
    steps = max(rec.train_steps, 1)
    sysid_steps = max(rec.sysid_steps, 1)
    evals = max(rec.eval_calls, 1)
    T = "train"
    m: dict[str, float] = {}
    m["diffkit.tape_nodes"] = tr.count(T, "diffkit.tape_nodes") / steps
    for op in COUNTED_OPS:
        m[f"diffkit.nodes.{op}"] = tr.count(T, "diffkit.nodes." + op) / steps
    for op in TIMED_OPS:
        m[f"diffkit.fwd_ms.{op}"] = tr.ms(T, "diffkit.fwd." + op) / steps
    m["diffkit.fwd_ms.trig"] = sum(tr.ms(T, "diffkit.fwd." + op)
                                   for op in ("sin", "cos", "sincos")) / steps
    for op in TIMED_OPS + ("sin", "cos"):
        m[f"diffkit.bwd_ms.{op}"] = tr.ms(T, "diffkit.bwd." + op) / steps
    m["diffkit.grad.ms"] = tr.ms(T, "diffkit.grad") / steps
    m["diffkit.grad.self_ms"] = tr.self_ms(T, "diffkit.grad") / steps
    m["dynzoo.f.calls"] = tr.calls(T, "dynzoo.f") / steps
    m["dynzoo.jac.calls"] = tr.calls(T, "dynzoo.jac") / steps
    m["dynzoo.f.eval_ms"] = tr.ms("eval", "dynzoo.f") / evals
    m["dynzoo.sample_dataset.ms"] = (
        tr.ms("sysid", "dynzoo.sample_dataset") / max(tr.calls("sysid", "dynzoo.sample_dataset"), 1)
    )
    for name in ("netzoo.forward", "netzoo.forward_with_jacobian"):
        m[f"{name}.calls"] = tr.calls(T, name) / steps
        m[f"{name}.ms"] = tr.ms(T, name) / steps
    m["netzoo.vjp.calls"] = tr.calls(T, "netzoo.vjp") / steps
    m["rollout.rollout.ms"] = tr.ms(T, "rollout.rollout") / steps
    m["rollout.rollout.self_ms"] = tr.self_ms(T, "rollout.rollout") / steps
    m["rollout.rk4_step.self_ms"] = tr.self_ms(T, "rollout.rk4_step") / steps
    m["rollout.transition.calls"] = tr.calls(T, "rollout.transition") / steps
    m["rollout.transition.ms"] = tr.ms(T, "rollout.transition") / steps
    m["rollout.costate_vjp_u.ms"] = tr.ms(T, "rollout.costate_vjp_u") / steps
    m["rollout.nfe_per_step"] = rec.nfe_per_step
    m["hjbtrain.hamiltonian.ms"] = tr.ms(T, "hjbtrain.hamiltonian") / steps
    m["hjbtrain.hamiltonian.self_ms"] = tr.self_ms(T, "hjbtrain.hamiltonian") / steps
    m["hjbtrain.loss_cost.ms"] = tr.ms(T, "hjbtrain.loss_cost") / steps
    m["hjbtrain.loss_final.ms"] = tr.ms(T, "hjbtrain.loss_final") / steps
    m["hjbtrain.loss_total.final"] = rec.loss_ref[-1]
    m["optim.adam_step.ms"] = tr.ms(T, "optim.adam_step") / steps
    m["sysid.sysid_loss.ms"] = tr.ms("sysid", "sysid.sysid_loss") / sysid_steps
    m["sysid.grad.ms"] = tr.ms("sysid", "diffkit.grad") / sysid_steps
    m["sysid.adam_step.ms"] = tr.ms("sysid", "optim.adam_step") / sysid_steps
    m["sysid.err_median"] = rec.sysid_ref[1]
    m["cli.evaluate.ms"] = tr.ms("eval", "cli.evaluate") / evals
    m["cli.eval_rollout.ms"] = tr.ms("eval", "rollout.rollout") / evals
    m["gc.pause_ms"] = tr.ms(T, "gc.pause") / steps
    for gen in range(3):
        m[f"gc.collections.gen{gen}"] = tr.count(T, f"gc.collections.gen{gen}") / steps
    traced_p50 = float(np.percentile(rec.step_ms, 50))
    untraced_p50 = float(np.percentile(ref_step_ms, 50))
    m["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "trace.overhead_pct":
        return "%"
    if name in ("hjbtrain.loss_total.final", "sysid.err_median"):
        return "1"
    if name.endswith("ms") or "_ms." in name:
        return "ms"
    return "count"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Time the hjbctrl pipeline (sysid -> HJB training -> evaluation) on "
                    "one workload, check its outputs, and print the metrics; the last "
                    "line of output is a JSON summary.",
    )
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="'all' runs every workload, each in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring budget; at least one round always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: wrap the package's layers and report per-layer metrics")
    # internal: a child process that only sets up, for the setup_s samples
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"=== {name}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT)
        status = status or done.returncode
    return status


def print_report(w: Workload, args, env: dict, metrics: dict, extras: dict,
                 rec: Record, tracer: Tracer) -> None:
    print("env " + json.dumps(env))
    print("inputs " + json.dumps({"workload": asdict(w), "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace}))
    print(f"rounds={extras['rounds']} train_step_samples={extras['train_step_samples']} "
          f"setup_samples={[round(s, 4) for s in extras['setup_samples']]}")
    if args.trace:
        print(f"{'op':>10} {'fwd_calls':>10} {'fwd_ms':>9} {'nodes':>8} {'bwd_ms':>9}  (per step)")
        for row in tracer.op_table("train", max(rec.train_steps, 1)):
            print(f"{row['op']:>10} {row['fwd_calls']:10.1f} {row['fwd_ms']:9.3f} "
                  f"{row['nodes']:8.1f} {row['bwd_ms']:9.3f}")
        units = {name: unit_of(name) for name in metrics}
    else:
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    for name, unit in (("train_step_ms.p90", "ms"), ("loss_total.final", "1"),
                       ("sysid_err.median", "1"), ("error_rate", "fraction")):
        print(f"{name:36s} {extras[name]!r} {unit} (not bounded)")
    for failure in rec.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv, t_start: float) -> int:
    """``t_start`` is the clock reading taken first thing in run.py."""
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    w = WORKLOADS[args.workload]
    prep = setup(w, args.seed)
    own_setup = perf_counter() - t_start
    if args.setup_only:
        print(repr(own_setup))
        return 0
    env = environment()
    if env["blas_threads"] is not None and not 1 <= env["blas_threads"] <= env["nproc"]:
        print(f"error: BLAS threads {env['blas_threads']} not in 1..nproc={env['nproc']}",
              file=sys.stderr)
        return 2
    metrics, extras, rec, tracer = measure(w, prep, args.seed, args.seconds, bool(args.trace),
                                           own_setup)
    print_report(w, args, env, metrics, extras, rec, tracer)
    return 0 if not rec.failures else 1
