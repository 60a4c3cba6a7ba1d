"""Command-line front end: sysid / train / eval / rollout.

Every command writes into an output directory (--outdir, or the
HJBCTRL_OUTDIR environment variable, or ./runs/<command>) and records the
seed and a hash of the effective config in every CSV header, so identical
(seed, config) pairs reproduce identical outputs.  Evaluation always
integrates with the analytic dynamics; an instrumentation counter verifies
that no learned-transition evaluation happens while it runs.

Exit codes: 0 ok, 2 usage/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod, hjbtrain, netzoo, sysid
from .diffkit import NumericError
from .dynzoo import SystemSpec, make_system, system_names
from .hjbtrain import HjbConfig, default_rho
from .rollout import AnalyticTransition, learned_nfe_total, export_trajectories, rollout
from .sysid import TrainingDiverged

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Closed-loop metrics over a batch of evaluation starts.

    Evaluation always uses the analytic dynamics; ``ftheta_nfe`` counts
    learned-transition evaluations observed while evaluating and must be 0.
    Trajectory length is only defined for systems with a position subspace.
    """

    system: str
    n_starts: int
    seed: int
    metric: str
    threshold: float
    success_rate: float
    terminal_error_mean: float
    terminal_error_std: float
    control_magnitude_mean: float
    control_magnitude_std: float
    traj_length_mean: float | None
    traj_length_std: float | None
    obstacle_violations: int
    ftheta_nfe: int
    compute_time_per_traj_s: float


EVAL_COLUMNS = [
    "system", "n_starts", "seed", "metric", "threshold", "success_rate",
    "terminal_error_mean", "terminal_error_std",
    "control_magnitude_mean", "control_magnitude_std",
    "traj_length_mean", "traj_length_std",
    "obstacle_violations", "ftheta_nfe", "compute_time_per_traj_s",
]


def evaluate(
    spec: SystemSpec,
    controller: netzoo.Mlp,
    n_starts: int,
    seed: int,
    K: int,
    threshold: float,
    metric: str = "position",
    rho=None,
    chunk: int = 250,
) -> EvalReport:
    """Roll out the controller from sampled starts under the analytic f."""
    if metric not in ("position", "state"):
        raise UsageError(f"eval metric must be 'position' or 'state', got {metric!r}")
    rho = rho if rho is not None else default_rho(spec)
    rng = np.random.default_rng(seed)
    transition = AnalyticTransition(spec)
    nfe_learned_before = learned_nfe_total()

    terminal_errors = []
    control_mags = []
    lengths = []
    successes = 0
    violations = 0
    t_start = time.perf_counter()
    remaining = n_starts
    while remaining > 0:
        b = min(chunk, remaining)
        remaining -= b
        x0 = rho.sample(rng, b)
        traj = rollout(spec, transition, controller, x0, K=K, count_nfe=False)
        xs = traj.states_array  # (b, K+1, d)
        us = traj.controls_array
        h = (spec.tf - spec.t0) / K

        terminal_errors.append(np.linalg.norm(xs[:, -1, :] - spec.x_star, axis=1))
        control_mags.append(np.linalg.norm(us, axis=2).sum(axis=1) * h)
        if spec.position_slice is not None:
            pos = xs[:, :, spec.position_slice]
            seg = np.linalg.norm(np.diff(pos, axis=1), axis=2).sum(axis=1)
            lengths.append(seg)
            goal_pos = spec.x_star[spec.position_slice]
            final_dist = np.linalg.norm(pos[:, -1, :] - goal_pos, axis=1)
        else:
            final_dist = None
        if metric == "position":
            if final_dist is None:
                raise UsageError(f"system '{spec.name}' has no position subspace")
            successes += int(np.sum(final_dist <= threshold))
        else:
            successes += int(np.sum(terminal_errors[-1] <= threshold))
        for obs in spec.obstacles:
            dmin = np.linalg.norm(
                xs[:, :, 0:2] - np.asarray(obs.center), axis=2
            ).min(axis=1)
            violations += int(np.sum(dmin < obs.radius))
    elapsed = time.perf_counter() - t_start

    ftheta_nfe = learned_nfe_total() - nfe_learned_before
    assert ftheta_nfe == 0, "evaluation must never touch learned dynamics"

    te = np.concatenate(terminal_errors)
    cm = np.concatenate(control_mags)
    ln = np.concatenate(lengths) if lengths else None
    return EvalReport(
        system=spec.name,
        n_starts=n_starts,
        seed=seed,
        metric=metric,
        threshold=threshold,
        success_rate=successes / n_starts,
        terminal_error_mean=float(te.mean()),
        terminal_error_std=float(te.std()) if n_starts > 1 else 0.0,
        control_magnitude_mean=float(cm.mean()),
        control_magnitude_std=float(cm.std()) if n_starts > 1 else 0.0,
        traj_length_mean=float(ln.mean()) if ln is not None else None,
        traj_length_std=(float(ln.std()) if n_starts > 1 else 0.0) if ln is not None else None,
        obstacle_violations=violations,
        ftheta_nfe=ftheta_nfe,
        compute_time_per_traj_s=elapsed / n_starts,
    )


def write_eval_csv(report: EvalReport, path, header: str = "") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(f"# {header}\n")
        w = csv.writer(fh)
        w.writerow(EVAL_COLUMNS)
        row = []
        for col in EVAL_COLUMNS:
            v = getattr(report, col)
            if v is None:
                row.append("")
            elif isinstance(v, float):
                row.append(repr(v))
            else:
                row.append(v)
        w.writerow(row)


# ---------------------------------------------------------------------------
# Command helpers
# ---------------------------------------------------------------------------


def _outdir(args, command: str) -> Path:
    if args.outdir:
        out = Path(args.outdir)
    elif os.environ.get("HJBCTRL_OUTDIR"):
        out = Path(os.environ["HJBCTRL_OUTDIR"]) / command
    else:
        out = Path("runs") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _effective(args, overrides: dict) -> dict:
    cfg = cfgmod.effective_config(
        preset=getattr(args, "preset", None),
        config_path=getattr(args, "config", None),
        overrides=overrides,
    )
    return cfg


def _system_from(cfg: dict, cli_name: str | None) -> SystemSpec:
    name = cli_name or (cfg.get("system") or {}).get("name")
    if not name:
        raise UsageError("no system given (use --system or a config with system.name)")
    if name not in system_names():
        raise UsageError(f"unknown system '{name}'; known: {', '.join(system_names())}")
    cfg.setdefault("system", {})["name"] = name
    return make_system(name, (cfg.get("system") or {}).get("overrides"))


def _header(cfg: dict, seed) -> str:
    return f"hjbctrl {__version__} seed={seed} config_hash={cfgmod.config_hash(cfg)}"


def _load_controller(path) -> netzoo.Mlp:
    net, _ = netzoo.load(path)
    return net


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_sysid(args) -> int:
    overrides: dict = {"sysid": {}}
    if args.activation:
        overrides["sysid"]["activation"] = args.activation
    if args.grad_supervision is not None:
        overrides["sysid"]["grad_supervision"] = args.grad_supervision
    if args.seed is not None:
        overrides["sysid"]["seed"] = args.seed
    if args.epochs is not None:
        overrides["sysid"]["epochs"] = args.epochs
    cfg = _effective(args, overrides)
    spec = _system_from(cfg, args.system)
    scfg = cfgmod.sysid_config(cfg)
    outdir = _outdir(args, "sysid")
    cfgmod.echo_config(cfg, outdir)
    header = _header(cfg, scfg.seed)

    net, report, losses = sysid.train_sysid(spec, scfg, log_every=args.log_every)
    ckpt = outdir / f"ftheta_{spec.name}_{scfg.activation}.json"
    netzoo.save(net, ckpt, metadata={
        "system": spec.name, "d": spec.d, "m": spec.m,
        "seed": scfg.seed, "config_hash": cfgmod.config_hash(cfg),
    })
    sysid.write_reports_csv([report], outdir / "sysid_report.csv", header=header)
    np.savetxt(outdir / "sysid_losses.csv", np.asarray(losses),
               header=header, comments="# ")
    print(f"[sysid] {spec.name}/{scfg.activation} mean={report.mean:.6f} "
          f"median={report.median:.6f} -> {ckpt}")
    return EXIT_OK


def cmd_train(args) -> int:
    overrides: dict = {"hjb": {}}
    if args.transition:
        overrides["hjb"]["transition"] = args.transition
    if args.seed is not None:
        overrides["hjb"]["seed"] = args.seed
    if args.epochs is not None:
        overrides["hjb"]["epochs"] = args.epochs
    cfg = _effective(args, overrides)
    spec = _system_from(cfg, args.system)
    hcfg = cfgmod.hjb_config(cfg)
    outdir = _outdir(args, "train")
    cfgmod.echo_config(cfg, outdir)
    header = _header(cfg, hcfg.seed)

    controller, value, log = hjbtrain.train_controller(spec, hcfg,
                                                       log_every=args.log_every)
    meta = {"system": spec.name, "d": spec.d, "m": spec.m, "seed": hcfg.seed,
            "config_hash": cfgmod.config_hash(cfg)}
    ctrl_path = outdir / f"controller_{spec.name}.json"
    netzoo.save(controller, ctrl_path, metadata=meta)
    netzoo.save(value, outdir / f"value_{spec.name}.json", metadata=meta)
    hjbtrain.write_training_log(log, outdir / "training_log.csv", header=header)
    print(f"[train] {spec.name} epochs={hcfg.epochs} "
          f"final total={log[-1]['loss_total']:.4f} nfe={log[-1]['nfe_cumulative']} "
          f"-> {ctrl_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    overrides: dict = {"eval": {}}
    if args.starts is not None:
        overrides["eval"]["starts"] = args.starts
    if args.seed is not None:
        overrides["eval"]["seed"] = args.seed
    if args.threshold is not None:
        overrides["eval"]["threshold"] = args.threshold
    cfg = _effective(args, overrides)
    spec = _system_from(cfg, args.system)
    hcfg = cfgmod.hjb_config(cfg)
    ecfg = cfg["eval"]
    outdir = _outdir(args, "eval")
    cfgmod.echo_config(cfg, outdir)
    header = _header(cfg, ecfg["seed"])

    controller = _load_controller(args.controller)
    if controller.in_dim != spec.d:
        raise UsageError(
            f"controller expects d={controller.in_dim}, system '{spec.name}' has d={spec.d}"
        )
    rho = hcfg.rho if hcfg.rho is not None else default_rho(spec)
    report = evaluate(
        spec, controller, n_starts=int(ecfg["starts"]), seed=int(ecfg["seed"]),
        K=hcfg.K, threshold=float(ecfg["threshold"]), metric=ecfg["metric"], rho=rho,
    )
    write_eval_csv(report, outdir / "eval_report.csv", header=header)

    if args.export_trajectories > 0:
        rng = np.random.default_rng(int(ecfg["seed"]))
        x0 = rho.sample(rng, args.export_trajectories)
        traj = rollout(spec, AnalyticTransition(spec), controller, x0,
                       K=hcfg.K, count_nfe=False)
        export_trajectories(traj, spec, outdir, prefix="eval_traj", header=header,
                            manifest={"seed": ecfg["seed"],
                                      "config_hash": cfgmod.config_hash(cfg)})
    print(f"[eval] {spec.name} starts={report.n_starts} "
          f"success={report.success_rate:.3f} "
          f"terminal_err={report.terminal_error_mean:.4f}"
          + (f" len={report.traj_length_mean:.3f}" if report.traj_length_mean is not None else "")
          + f" violations={report.obstacle_violations}")
    return EXIT_OK


def cmd_rollout(args) -> int:
    cfg = _effective(args, {})
    spec = _system_from(cfg, args.system)
    hcfg = cfgmod.hjb_config(cfg)
    outdir = _outdir(args, "rollout")
    cfgmod.echo_config(cfg, outdir)

    try:
        x0 = np.array([float(v) for v in args.x0.split(",")], dtype=np.float64)
    except ValueError:
        raise UsageError(f"--x0 must be {spec.d} comma-separated numbers, got {args.x0!r}")
    if x0.shape[0] != spec.d:
        raise UsageError(f"--x0 needs {spec.d} values for '{spec.name}', got {x0.shape[0]}")

    controller = _load_controller(args.controller)
    if controller.in_dim != spec.d:
        raise UsageError(
            f"controller expects d={controller.in_dim}, system '{spec.name}' has d={spec.d}"
        )
    traj = rollout(spec, AnalyticTransition(spec), controller, x0[None, :],
                   K=hcfg.K, count_nfe=False)
    header = _header(cfg, "-")
    paths = export_trajectories(traj, spec, outdir, prefix="rollout", header=header,
                                manifest={"x0": x0.tolist(),
                                          "config_hash": cfgmod.config_hash(cfg)})
    print(f"[rollout] {spec.name} x0={args.x0} -> {paths[0]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hjbctrl",
        description="Neural optimal control: system identification, HJB controller "
                    "training, evaluation, trajectory export.",
    )
    p.add_argument("--version", action="version", version=f"hjbctrl {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, system_required: bool):
        sp.add_argument("--system", required=system_required,
                        help=f"one of: {', '.join(system_names())}")
        sp.add_argument("--preset", help=f"shipped preset: {', '.join(cfgmod.preset_names())}")
        sp.add_argument("--config", help="JSON config file (merged over the preset)")
        sp.add_argument("--outdir", help="output directory (default $HJBCTRL_OUTDIR or ./runs)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--log-every", type=int, default=0,
                        help="print progress every N epochs (0: silent)")

    sp = sub.add_parser("sysid", help="train a dynamics model on sampled transitions")
    common(sp, system_required=False)
    sp.add_argument("--activation", choices=["sine", "tanh", "relu"])
    sp.add_argument("--grad-supervision", dest="grad_supervision",
                    action="store_true", default=None)
    sp.add_argument("--no-grad-supervision", dest="grad_supervision",
                    action="store_false")
    sp.add_argument("--epochs", type=int, default=None)
    sp.set_defaults(func=cmd_sysid)

    sp = sub.add_parser("train", help="train controller and value nets (HJB losses)")
    common(sp, system_required=False)
    sp.add_argument("--transition", help="'analytic' or path to a dynamics checkpoint")
    sp.add_argument("--epochs", type=int, default=None)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a trained controller under analytic f")
    common(sp, system_required=False)
    sp.add_argument("--controller", required=True, help="controller checkpoint path")
    sp.add_argument("--starts", type=int, default=None)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--export-trajectories", type=int, default=0,
                    help="also export this many trajectories as CSV")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("rollout", help="roll out one trajectory from a given state")
    common(sp, system_required=False)
    sp.add_argument("--controller", required=True)
    sp.add_argument("--x0", required=True, help="comma-separated initial state")
    sp.set_defaults(func=cmd_rollout)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, cfgmod.ConfigError, netzoo.CheckpointError, KeyError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDiverged, NumericError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
