"""Command-line front end: sysid / train / eval / rollout.

The library modules compute and return results; this module owns every
output file format.  Every command writes into an output directory
(--outdir, or the HJBCTRL_OUTDIR environment variable, or
./runs/<command>).  Every CSV comes from :func:`_write_csv`: a
``# header`` comment with the seed and a hash of the effective config, so
identical (seed, config) pairs reproduce identical outputs, then the
column row, then the rows, with each float as the shortest text that reads
back to it in its own precision (``repr`` of a float64, and of a float32
the text that rounds to it in float32) and None as an empty cell.  A
report's columns are its dataclass fields.

A flag that sets a config value declares it as ``dest="section.key"``
(``--epochs`` of ``train`` is ``hjb.epochs``), and :func:`_setup` turns
every such flag into a config override.  Evaluation and trajectory
integration live in :mod:`hjbctrl.rollout`, always under the analytic
dynamics and in ``diffkit.COMPUTE``.  A controller's output box must be
the system's action box.

Exit codes: 0 ok, 2 usage/config error, 3 numeric failure (reported by
diffkit's checks; numpy's floating-point warnings are silenced).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod, hjbtrain, netzoo, rollout, sysid
from .diffkit import NumericError
from .dynzoo import SystemSpec, system_names
from .sysid import TrainingDiverged

# the library's evaluation entry point, timed as ``cli.evaluate`` by the benchmark
evaluate = rollout.evaluate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# Command helpers
# ---------------------------------------------------------------------------


def _setup(args, command: str) -> tuple[dict, SystemSpec, Path]:
    """Effective config (flags with a ``section.key`` dest override it), the
    system it names, and the command's output directory."""
    if getattr(args, "log_every", 0) < 0:
        raise ValueError(f"--log-every must be >= 0, got {args.log_every}")
    overrides: dict = {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            overrides.setdefault(section, {})[key] = value
    cfg = cfgmod.effective_config(args.preset, args.config, overrides)
    spec = cfgmod.system_spec(cfg)
    base = os.environ.get("HJBCTRL_OUTDIR") or "runs"
    outdir = Path(args.outdir) if args.outdir else Path(base) / command
    cfgmod.echo_config(cfg, outdir)
    return cfg, spec, outdir


def _header(cfg: dict, seed) -> str:
    return f"hjbctrl {__version__} seed={seed} config_hash={cfgmod.config_hash(cfg)}"


def _load_controller(path, spec: SystemSpec) -> netzoo.Mlp:
    net, _ = netzoo.load(path)
    if net.in_dim != spec.d:
        raise ValueError(f"{path}: controller expects d={net.in_dim}, system '{spec.name}' "
                         f"has d={spec.d}")
    if net.out_dim != spec.m:
        raise ValueError(f"{path}: controller outputs m={net.out_dim}, system '{spec.name}' "
                         f"has m={spec.m}")
    # exact: a checkpoint's box round-trips bit-exactly
    box, want = net.output_transform, spec.action_box
    if box is None or not (np.array_equal(box.lo, want.lo) and np.array_equal(box.hi, want.hi)):
        got = "none" if box is None else f"lo {box.lo.tolist()}, hi {box.hi.tolist()}"
        raise ValueError(f"{path}: output_transform: the controller's box ({got}) is not the "
                         f"action box of system '{spec.name}' (lo {want.lo.tolist()}, "
                         f"hi {want.hi.tolist()})")
    return net


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, np.floating):
        return str(value)  # shortest round-trip text in the value's own dtype
    return repr(value) if isinstance(value, float) else value


def _write_csv(path: Path, header: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {header}\n")
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([_cell(v) for v in row] for row in rows)


def _write_report(path: Path, header: str, report) -> None:
    """One dataclass record as a one-row CSV; its fields are the columns."""
    _write_csv(path, header, [f.name for f in fields(report)], [astuple(report)])


def _write_trajectories(traj: rollout.TrajectoryBatch, spec: SystemSpec, outdir: Path,
                        prefix: str, header: str, manifest: dict) -> list[Path]:
    """One CSV per batch element plus a JSON manifest.

    Columns: t, x_0..x_{d-1}, u_0..u_{m-1}, running_cost (the rate
    L(x_k, u_k); its left Riemann sum over the first K rows times h
    reproduces the integral).  The terminal row carries no control.
    """
    # rows keep numpy scalars, so each value is written in its own precision
    times = traj.times.tolist()
    xs = traj.states_array
    us = traj.controls_array
    # one call on the K steps' states and controls, stacked step-major
    rates = spec.running_cost(np.concatenate([s.data for s in traj.states[:-1]]),
                              np.concatenate([c.data for c in traj.controls])).data
    rates = rates.reshape(traj.steps, traj.batch).T
    columns = (["t"] + [f"x_{i}" for i in range(spec.d)] + [f"u_{i}" for i in range(spec.m)]
               + ["running_cost"])
    paths = []
    for b in range(traj.batch):
        rows = [[t, *x, *u, r] for t, x, u, r in zip(times, xs[b], us[b], rates[b])]
        rows.append([times[-1], *xs[b][-1]] + [None] * (spec.m + 1))
        paths.append(outdir / f"{prefix}_{b:04d}.csv")
        _write_csv(paths[-1], header, columns, rows)
    manifest = {**manifest, "nfe": traj.nfe, "steps": traj.steps, "batch": traj.batch,
                "system": spec.name}
    (outdir / f"{prefix}_manifest.json").write_text(json.dumps(manifest, indent=2))
    return paths


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_sysid(args) -> int:
    cfg, spec, outdir = _setup(args, "sysid")
    scfg = cfgmod.sysid_config(cfg)
    header = _header(cfg, scfg.seed)

    net, report, losses = sysid.train_sysid(spec, scfg, log_every=args.log_every)
    ckpt = outdir / f"ftheta_{spec.name}_{scfg.activation}.json"
    netzoo.save(net, ckpt, metadata={
        "system": spec.name, "d": spec.d, "m": spec.m,
        "seed": scfg.seed, "config_hash": cfgmod.config_hash(cfg),
    })
    _write_report(outdir / "sysid_report.csv", header, report)
    _write_csv(outdir / "sysid_losses.csv", header, ["loss"], ([v] for v in losses))
    print(f"[sysid] {spec.name}/{scfg.activation} mean={report.mean:.6f} "
          f"median={report.median:.6f} -> {ckpt}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, spec, outdir = _setup(args, "train")
    hcfg = cfgmod.hjb_config(cfg)
    header = _header(cfg, hcfg.seed)

    controller, value, log = hjbtrain.train_controller(spec, hcfg,
                                                       log_every=args.log_every)
    meta = {"system": spec.name, "d": spec.d, "m": spec.m, "seed": hcfg.seed,
            "config_hash": cfgmod.config_hash(cfg)}
    ctrl_path = outdir / f"controller_{spec.name}.json"
    netzoo.save(controller, ctrl_path, metadata=meta)
    netzoo.save(value, outdir / f"value_{spec.name}.json", metadata=meta)
    _write_csv(outdir / "training_log.csv", header, hjbtrain.LOG_COLUMNS,
               ([row[c] for c in hjbtrain.LOG_COLUMNS] for row in log))
    final = (f"final total={log[-1]['loss_total']:.4f} nfe={log[-1]['nfe_cumulative']}"
             if log else "untrained")
    print(f"[train] {spec.name} epochs={hcfg.epochs} {final} -> {ctrl_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, spec, outdir = _setup(args, "eval")
    hcfg = cfgmod.hjb_config(cfg)
    ecfg = cfgmod.eval_config(cfg, spec)
    header = _header(cfg, ecfg.seed)

    n_export = args.export_trajectories
    if not 0 <= n_export <= ecfg.starts:
        raise ValueError(f"--export-trajectories must be between 0 and the {ecfg.starts} "
                         f"evaluation starts, got {n_export}")
    controller = _load_controller(args.controller, spec)
    # the first scored trajectories, not a second rollout of their starts
    report, traj = rollout.evaluate_with_trajectories(
        spec, controller, ecfg.starts, ecfg.seed, hcfg.K, ecfg.threshold, ecfg.metric,
        keep=n_export)
    _write_report(outdir / "eval_report.csv", header, report)
    if traj is not None:
        _write_trajectories(traj, spec, outdir, "eval_traj", header,
                            {"seed": ecfg.seed, "config_hash": cfgmod.config_hash(cfg)})
    print(f"[eval] {spec.name} starts={report.n_starts} "
          f"success={report.success_rate:.3f} "
          f"terminal_err={report.terminal_error_mean:.4f}"
          + (f" len={report.traj_length_mean:.3f}" if report.traj_length_mean is not None else "")
          + f" violations={report.obstacle_violations}")
    return EXIT_OK


def cmd_rollout(args) -> int:
    cfg, spec, outdir = _setup(args, "rollout")
    hcfg = cfgmod.hjb_config(cfg)

    try:
        x0 = np.array([float(v) for v in args.x0.split(",")], dtype=np.float64)
    except ValueError:
        raise ValueError(f"--x0 must be {spec.d} comma-separated numbers, got {args.x0!r}")
    if x0.shape[0] != spec.d:
        raise ValueError(f"--x0 needs {spec.d} values for '{spec.name}', got {x0.shape[0]}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"--x0 must be finite, got {args.x0!r}")

    controller = _load_controller(args.controller, spec)
    traj = rollout.analytic_rollout(spec, controller, x0[None, :], hcfg.K)
    paths = _write_trajectories(traj, spec, outdir, "rollout", _header(cfg, "-"),
                                {"x0": x0.tolist(), "config_hash": cfgmod.config_hash(cfg)})
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

    def common(sp, seed: str | None = None, log_every: bool = False):
        sp.add_argument("--system", dest="system.name",
                        help=f"one of: {', '.join(system_names())}")
        sp.add_argument("--preset", help=f"shipped preset: {', '.join(cfgmod.preset_names())}")
        sp.add_argument("--config", help="JSON config file (merged over the preset)")
        sp.add_argument("--outdir", help="output directory (default $HJBCTRL_OUTDIR or ./runs)")
        if seed:
            sp.add_argument("--seed", dest=seed, type=int)
        if log_every:
            sp.add_argument("--log-every", type=int, default=0,
                            help="print progress every N epochs (0: silent)")

    sp = sub.add_parser("sysid", help="train a dynamics model on sampled transitions")
    common(sp, seed="sysid.seed", log_every=True)
    sp.add_argument("--activation", dest="sysid.activation", choices=netzoo.ACTIVATIONS)
    sp.add_argument("--grad-supervision", dest="sysid.grad_supervision",
                    action="store_true", default=None)
    sp.add_argument("--no-grad-supervision", dest="sysid.grad_supervision",
                    action="store_false")
    sp.add_argument("--epochs", dest="sysid.epochs", type=int)
    sp.set_defaults(func=cmd_sysid)

    sp = sub.add_parser("train", help="train controller and value nets (HJB losses)")
    common(sp, seed="hjb.seed", log_every=True)
    sp.add_argument("--transition", dest="hjb.transition",
                    help="'analytic' or path to a dynamics checkpoint")
    sp.add_argument("--epochs", dest="hjb.epochs", type=int)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a trained controller under analytic f")
    common(sp, seed="eval.seed")
    sp.add_argument("--controller", required=True, help="controller checkpoint path")
    sp.add_argument("--starts", dest="eval.starts", type=int)
    sp.add_argument("--threshold", dest="eval.threshold", type=float)
    sp.add_argument("--export-trajectories", type=int, default=0,
                    help="also export the first N of the evaluated trajectories as CSV")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("rollout", help="roll out one trajectory from a given state")
    common(sp)
    sp.add_argument("--controller", required=True)
    sp.add_argument("--x0", required=True, help="comma-separated initial state")
    sp.set_defaults(func=cmd_rollout)

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads "--x0 -3,0.5" as two options; "--x0=-3,0.5" is one
    for i, arg in enumerate(argv[:-1]):
        if arg == "--x0":
            argv[i:i + 2] = [f"--x0={argv[i + 1]}"]
            break
    args = build_parser().parse_args(argv)
    try:
        # diffkit's own checks catch every non-finite value and name where it
        # arose, so numpy's floating-point warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (cfgmod.ConfigError, netzoo.CheckpointError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDiverged, NumericError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
