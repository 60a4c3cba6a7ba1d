import csv
import inspect
import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from hjbctrl import cli, config, dynzoo, hjbtrain, netzoo, rollout, sysid

# tiny budgets: every command finishes in well under a second on dubins
TINY = {
    "system": {"name": "dubins"},
    "sysid": {"n_train": 64, "n_test": 32, "batch": 16, "epochs": 2, "hidden": [8]},
    "hjb": {"epochs": 2, "batch": 4, "K": 5, "controller_hidden": [8], "value_hidden": [8]},
    "eval": {"starts": 12},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def csv_header(path) -> str:
    return path.read_text().splitlines()[0]


def read_report(path) -> dict:
    rows = list(csv.reader(line for line in path.read_text().splitlines()
                           if not line.startswith("#")))
    return dict(zip(rows[0], rows[1]))


def test_sysid_train_eval_rollout_round_trip(tiny_config, tmp_path):
    sysid_dir, train_dir = tmp_path / "sysid", tmp_path / "train"
    assert run("sysid", "--config", tiny_config, "--outdir", sysid_dir) == cli.EXIT_OK
    ckpt = sysid_dir / "ftheta_dubins_sine.json"
    assert ckpt.exists()
    lines = (sysid_dir / "sysid_report.csv").read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) == 3  # header comment, columns, one row
    assert lines[1].split(",") == [f.name for f in fields(sysid.SysIdReport)]
    assert read_report(sysid_dir / "sysid_report.csv")["system"] == "dubins"

    assert run("train", "--config", tiny_config, "--outdir", train_dir,
               "--transition", ckpt) == cli.EXIT_OK
    log = (train_dir / "training_log.csv").read_text().splitlines()
    assert len(log) == 1 + 1 + TINY["hjb"]["epochs"]  # header comment, columns, epochs
    controller = train_dir / "controller_dubins.json"

    eval_dir = tmp_path / "eval"
    assert run("eval", "--config", tiny_config, "--outdir", eval_dir,
               "--controller", controller, "--export-trajectories", 2) == cli.EXIT_OK
    report = read_report(eval_dir / "eval_report.csv")
    assert report["n_starts"] == "12" and report["ftheta_nfe"] == "0"
    assert (eval_dir / "eval_traj_0001.csv").exists()

    rollout_dir = tmp_path / "rollout"
    assert run("rollout", "--config", tiny_config, "--outdir", rollout_dir,
               "--controller", controller, "--x0=-3,0.5,0.1") == cli.EXIT_OK
    rows = (rollout_dir / "rollout_0000.csv").read_text().splitlines()
    assert len(rows) == 1 + 1 + TINY["hjb"]["K"] + 1  # header comment, columns, K+1 points


def test_unknown_system_is_a_usage_error(tmp_path, capsys):
    assert run("sysid", "--system", "unicycle", "--outdir", tmp_path) == cli.EXIT_USAGE
    assert capsys.readouterr().err == ("error: unknown system 'unicycle'; known: acrobot, "
                                       "cartpole, dubins, lq1d, quadrotor\n")


def test_unknown_parameter_is_printed_without_quotes(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"system": {"overrides": {"foo": 1}}}))
    assert run("sysid", "--system", "dubins", "--config", path,
               "--outdir", tmp_path / "out") == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown parameter(s) for dubins: ['foo']\n"


def test_malformed_x0_is_a_usage_error(tiny_config, tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert run("train", "--config", tiny_config, "--outdir", train_dir) == cli.EXIT_OK
    controller = train_dir / "controller_dubins.json"
    for x0 in ("1,2,oops", "1,2"):
        assert run("rollout", "--config", tiny_config, "--outdir", tmp_path / "r",
                   "--controller", controller, "--x0", x0) == cli.EXIT_USAGE
        assert "--x0" in capsys.readouterr().err


def test_echoed_config_reproduces_its_hash(tiny_config, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run("sysid", "--config", tiny_config, "--outdir", first, "--seed", 5) == cli.EXIT_OK
    echoed = first / "effective_config.json"
    assert run("sysid", "--config", echoed, "--outdir", second) == cli.EXIT_OK
    assert json.loads(echoed.read_text()) == json.loads(
        (second / "effective_config.json").read_text())
    assert "config_hash=" in csv_header(first / "sysid_report.csv")
    assert csv_header(first / "sysid_report.csv") == csv_header(second / "sysid_report.csv")


@pytest.mark.parametrize("system", dynzoo.system_names())
def test_the_echo_holds_every_physical_parameter_used(system, tmp_path):
    # a parameter missing from the echo would change a run but not its hash
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"system": {"name": system, "overrides": {"tf": 2.5}},
                                "hjb": {"controller_hidden": [4], "value_hidden": [4]}}))
    first, second = tmp_path / "first", tmp_path / "second"
    assert run("train", "--config", path, "--outdir", first, "--epochs", 0) == cli.EXIT_OK
    echoed = first / "effective_config.json"
    maker = inspect.signature(dynzoo._MAKERS[system]).parameters
    want = {key: p.default for key, p in maker.items()} | {"tf": 2.5}
    assert json.loads(echoed.read_text())["system"]["overrides"] == json.loads(json.dumps(want))
    assert run("train", "--config", echoed, "--outdir", second) == cli.EXIT_OK
    assert echoed.read_text() == (second / "effective_config.json").read_text()
    assert (csv_header(first / "training_log.csv")
            == csv_header(second / "training_log.csv"))


def test_same_seed_evals_write_identical_reports(tiny_config, tmp_path):
    train_dir = tmp_path / "train"
    assert run("train", "--config", tiny_config, "--outdir", train_dir) == cli.EXIT_OK
    controller = train_dir / "controller_dubins.json"
    paths = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("eval", "--config", tiny_config, "--outdir", out,
                   "--controller", controller, "--seed", 3) == cli.EXIT_OK
        paths.append(out / "eval_report.csv")
    reports = [read_report(p) for p in paths]
    for rep in reports:
        rep.pop("compute_time_per_traj_s")
    assert reports[0] == reports[1]
    assert csv_header(paths[0]) == csv_header(paths[1])


def test_x0_with_negative_first_coordinate_takes_either_spelling(tiny_config, tmp_path):
    train_dir = tmp_path / "train"
    assert run("train", "--config", tiny_config, "--outdir", train_dir) == cli.EXIT_OK
    controller = train_dir / "controller_dubins.json"
    outs = []
    for name, x0_args in (("joined", ["--x0=-3,0.5,0.1"]), ("split", ["--x0", "-3,0.5,0.1"])):
        out = tmp_path / name
        assert run("rollout", "--config", tiny_config, "--outdir", out,
                   "--controller", controller, *x0_args) == cli.EXIT_OK
        outs.append((out / "rollout_0000.csv").read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["eval", "--export-trajectories", -3], "--export-trajectories must be between 0",
                 id="negative-export"),
    pytest.param(["eval", "--export-trajectories", 8, "--starts", 5],
                 "--export-trajectories must be between 0 and the 5", id="export-beyond-starts"),
    pytest.param(["train", "--log-every", -5], "--log-every must be >= 0", id="negative-log-every"),
    pytest.param(["train", "--seed", -1], "bad hjb config: seed must be >= 0",
                 id="negative-train-seed"),
    pytest.param(["sysid", "--seed", -1], "bad sysid config: seed must be >= 0",
                 id="negative-sysid-seed"),
    pytest.param(["eval", "--seed", -1], "bad eval config: seed must be >= 0",
                 id="negative-eval-seed"),
])
def test_out_of_range_flag_is_a_usage_error(argv, message, tiny_config, tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert run("train", "--config", tiny_config, "--outdir", train_dir) == cli.EXIT_OK
    if argv[0] == "eval":
        argv = argv + ["--controller", train_dir / "controller_dubins.json"]
    out = tmp_path / "out"
    assert run(*argv, "--config", tiny_config, "--outdir", out) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--preset", "no_such_preset"], "unknown preset 'no_such_preset'",
                 id="unknown-preset"),
    pytest.param(["--config", "{tmp}/missing.json"], "config file not found", id="missing-file"),
    pytest.param(["--config", "{tmp}/broken.json"], "is not valid JSON", id="invalid-json"),
    pytest.param(["--config", "{tmp}/list.json"], "list.json must be a JSON object, got [1, 2]",
                 id="top-level-list"),
    pytest.param(["--config", "{tmp}"], "cannot read config file", id="config-directory"),
    pytest.param(["--outdir", "{tmp}/broken.json"], "broken.json is not a directory",
                 id="outdir-file"),
    # as HJBCTRL_OUTDIR naming a file: the command's directory goes under it
    pytest.param(["--outdir", "{tmp}/broken.json/sysid"], "broken.json/sysid is not a directory",
                 id="outdir-under-a-file"),
])
def test_unreadable_config_is_a_usage_error(argv, message, tmp_path, capsys):
    (tmp_path / "broken.json").write_text('{"system": ')
    (tmp_path / "list.json").write_text("[1, 2]")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run("sysid", "--system", "dubins", "--outdir", tmp_path / "out",
               *argv) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, section, message", [
    pytest.param("sysid", {"sysid": {"widths": [8]}}, "unknown sysid option(s): ['widths']",
                 id="unknown-sysid-key"),
    pytest.param("train", {"hjb": {"epoch": 2}}, "unknown hjb option(s): ['epoch']",
                 id="unknown-hjb-key"),
    pytest.param("eval", {"eval": {"start": 12}}, "unknown eval option(s): ['start']",
                 id="unknown-eval-key"),
    pytest.param("sysid", {"rho": {"kind": "uniform"}}, "rho kind must be 'box' or 'gaussian'",
                 id="rho-kind"),
    pytest.param("sysid", {"rho": {"kind": "box", "lo": [0, 0, 0]}},
                 "rho section missing field 'hi'", id="rho-box-field"),
    pytest.param("sysid", {"rho": {"kind": "gaussian", "mean": [0, 0, 0]}},
                 "rho section missing field 'std'", id="rho-gaussian-field"),
    pytest.param("sysid", {"rho": {"kind": "box", "lo": [0, 0, 0], "hi": [1, 0, 1]}},
                 "lo < hi", id="rho-box-empty"),
    pytest.param("sysid", {"rho": {"kind": "gaussian", "mean": [0, 0, 0], "std": [1, 1]}},
                 "one shape", id="rho-gaussian-shapes"),
    pytest.param("sysid", {"rho": {"kind": "box", "lo": [0, 0], "hi": [1, 1]}},
                 "rho has dim 2, system 'dubins' has d=3", id="rho-dim"),
    pytest.param("train", {"hjb": {"K": 0}}, "K must be >= 1", id="hjb-K-zero"),
    pytest.param("train", {"hjb": {"batch": 0}}, "batch must be >= 1", id="hjb-batch-zero"),
    pytest.param("train", {"hjb": {"epochs": -1}}, "epochs must be >= 0",
                 id="hjb-epochs-negative"),
    pytest.param("train", {"hjb": {"lr": 0}}, "lr must be > 0", id="hjb-lr-zero"),
    # every command parses every section, and eval's own does not excuse the others
    pytest.param("eval", {"hjb": {"lr": 0}}, "lr must be > 0", id="eval-hjb-lr-zero"),
    pytest.param("sysid", {"system": {"name": "cartpole"}, "eval": {"metric": "position"}},
                 "needs a position subspace", id="sysid-eval-metric-position-on-cartpole"),
    pytest.param("train", {"hjb": {"lr_final": 0}}, "lr_final must be > 0",
                 id="hjb-lr-final-zero"),
    pytest.param("sysid", {"sysid": {"batch": 0}}, "batch must be >= 1", id="sysid-batch-zero"),
    pytest.param("sysid", {"sysid": {"lr": 0}}, "lr must be > 0", id="sysid-lr-zero"),
    pytest.param("sysid", {"sysid": {"lr_decay": 0}}, "lr_decay must be > 0",
                 id="sysid-lr-decay-zero"),
    pytest.param("sysid", {"sysid": {"omega0": 0}}, "omega0 must be > 0",
                 id="sysid-omega0-zero"),
    pytest.param("sysid", {"sysid": {"hidden": [8, 0]}}, "hidden widths must be >= 1",
                 id="sysid-hidden-zero"),
    # grad_supervision is the one Sobolev switch; the term has no weight
    pytest.param("sysid", {"sysid": {"jac_weight": 1}}, "unknown sysid option(s): ['jac_weight']",
                 id="sysid-jac-weight"),
    pytest.param("sysid", {"sysid": {"lr": float("nan")}}, "lr must be finite",
                 id="sysid-lr-nan"),
    pytest.param("train", {"hjb": {"controller_hidden": [0]}},
                 "controller_hidden widths must be >= 1", id="hjb-controller-hidden-zero"),
    pytest.param("train", {"hjb": {"value_hidden": [0]}},
                 "value_hidden widths must be >= 1", id="hjb-value-hidden-zero"),
    pytest.param("train", {"hjb": {"lr": float("nan")}}, "lr must be finite", id="hjb-lr-nan"),
    pytest.param("train", {"hjb": {"alpha_hjb": float("inf")}}, "alpha_hjb must be finite",
                 id="hjb-alpha-hjb-infinite"),
    pytest.param("train", {"hjb": {"epochs": 1.5}}, "hjb.epochs must be an integer, got 1.5",
                 id="hjb-epochs-float"),
    pytest.param("train", {"hjb": {"K": True}}, "hjb.K must be an integer, got True",
                 id="hjb-K-bool"),
    pytest.param("sysid", {"sysid": {"hidden": [8.5]}},
                 "sysid.hidden must be a list of integers, got [8.5]", id="sysid-hidden-float"),
    pytest.param("eval", {"eval": {"starts": 12.7}}, "eval.starts must be an integer, got 12.7",
                 id="eval-starts-float"),
    pytest.param("train", {"hjb": {"lr": True}}, "hjb.lr must be a number, got True",
                 id="hjb-lr-bool"),
    pytest.param("sysid", {"sysid": {"grad_supervision": 1}},
                 "sysid.grad_supervision must be true or false, got 1",
                 id="sysid-grad-supervision-int"),
    pytest.param("train", {"hjb": {"transition": 3}}, "hjb.transition must be a string, got 3",
                 id="hjb-transition-number"),
    pytest.param("eval", {"eval": {"starts": 0}}, "starts must be >= 1", id="eval-starts-zero"),
    pytest.param("eval", {"eval": {"threshold": -0.1}}, "threshold must be finite and >= 0",
                 id="eval-threshold-negative"),
    pytest.param("eval", {"eval": {"threshold": float("inf")}},
                 "threshold must be finite and >= 0", id="eval-threshold-infinite"),
    pytest.param("sysid", {"system": {"name": "cartpole",
                                      "overrides": {"obstacles": [[[0, 0], 0.5]]}}},
                 "system 'cartpole' has none", id="system-obstacles-without-position"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": {"R": [[1]]}}},
                 "R must be (2, 2) for 'dubins', got (1, 1)", id="system-R-shape"),
    pytest.param("sysid", {"system": {"name": "cartpole", "overrides": {"P": [1, 2, 3, 4]}}},
                 "P must be (4, 4) for 'cartpole', got (4,)", id="system-P-shape"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": {"x_star": [0, 0]}}},
                 "x_star must be (3,) for 'dubins', got (2,)", id="system-x-star-length"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": {"turn_radius": 0}}},
                 "turn_radius must be finite and > 0, got 0", id="system-turn-radius-zero"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": {"turn_radius": "2"}}},
                 "turn_radius must be finite and > 0, got '2'", id="system-turn-radius-string"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": {"tf": 0}}},
                 "tf must be finite and > 0, got 0", id="system-tf-zero"),
    pytest.param("sysid", {"system": {"name": "quadrotor", "overrides": {"mass": 0}}},
                 "mass must be finite and > 0, got 0", id="system-quadrotor-mass-zero"),
    pytest.param("sysid", {"system": {"name": "quadrotor",
                                      "overrides": {"inertia": [0.01, 0, 0.02]}}},
                 "inertia must be finite and > 0", id="system-quadrotor-inertia-zero"),
    pytest.param("sysid", {"system": {"name": "cartpole",
                                      "overrides": {"pole_half_length": 0}}},
                 "pole_half_length must be finite and > 0", id="system-pole-half-length-zero"),
    pytest.param("sysid", {"system": {"name": "dubins",
                                      "overrides": {"obstacles": [[[0, 0, 0], 0.5]]}}},
                 "obstacles need a center [x, y] and a radius > 0", id="system-obstacle-center"),
    pytest.param("sysid", {"system": {"name": "dubins",
                                      "overrides": {"obstacles": [[[0, 0], -1]]}}},
                 "obstacles need a center [x, y] and a radius > 0",
                 id="system-obstacle-radius-negative"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": {"obstacles": 5}}},
                 "obstacles must be [[center, radius], ...], got 5", id="system-obstacles-number"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": {"obstacles": [[[0, 0]]]}}},
                 "obstacles must be [[center, radius], ...], got [[[0, 0]]]",
                 id="system-obstacle-without-radius"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": {"R": [[1, 0], [0]]}}},
                 "R must be a numeric array, got [[1, 0], [0]]", id="system-R-ragged"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": {"v_max": 0}}},
                 "v_max must be finite and > 0, got 0", id="system-v-max-zero"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": {"v_max": "fast"}}},
                 "v_max must be finite and > 0, got 'fast'", id="system-v-max-string"),
    pytest.param("sysid", {"system": {"name": "cartpole", "overrides": {"force_max": -1}}},
                 "force_max must be finite and > 0, got -1", id="system-force-max-negative"),
    pytest.param("sysid", {"system": {"name": "acrobot", "overrides": {"torque_max": 0}}},
                 "torque_max must be finite and > 0, got 0", id="system-acrobot-torque-max-zero"),
    pytest.param("sysid", {"system": {"name": "quadrotor", "overrides": {"torque_max": -2}}},
                 "torque_max must be finite and > 0, got -2",
                 id="system-quadrotor-torque-max-negative"),
    pytest.param("sysid", {"system": {"name": "lq1d", "overrides": {"u_max": 0}}},
                 "u_max must be finite and > 0, got 0", id="system-lq1d-u-max-zero"),
    pytest.param("sysid", {"sysid": {"n_test": 0}}, "n_test must be >= 1",
                 id="sysid-n-test-zero"),
    pytest.param("sysid", {"sysid": {"activation": "gelu"}},
                 "bad sysid config: activation must be one of ('sine', 'tanh', 'relu'), "
                 "got 'gelu'", id="sysid-activation-unknown"),
    pytest.param("sysid", {"system": {"name": "acrobot", "overrides": {"I1": "x"}}},
                 "I1 must be finite and > 0, got 'x'", id="system-acrobot-I1-string"),
    pytest.param("sysid", {"system": {"name": "acrobot", "overrides": {"m1": -1}}},
                 "m1 must be finite and > 0, got -1", id="system-acrobot-m1-negative"),
    pytest.param("sysid", {"system": {"name": "cartpole", "overrides": {"gravity": "g"}}},
                 "gravity must be finite, got 'g'", id="system-cartpole-gravity-string"),
    pytest.param("sysid", {"system": {"name": "quadrotor",
                                      "overrides": {"inertia": [0.01, 0.02]}}},
                 "inertia must be finite and > 0 and a list of 3 numbers, got [0.01, 0.02]",
                 id="system-quadrotor-inertia-length"),
    pytest.param("sysid", {"system": {"name": "quadrotor",
                                      "overrides": {"goal_position": [1, 2, 3]}}},
                 "unknown parameter(s) for quadrotor: ['goal_position']",
                 id="system-quadrotor-goal-position-unknown"),
    pytest.param("eval", {"eval": {"metric": "foo"}},
                 "metric must be one of ('position', 'state'), got 'foo'", id="eval-metric-unknown"),
    pytest.param("eval", {"system": {"name": "cartpole"}, "eval": {"metric": "position"}},
                 "eval metric 'position' needs a position subspace, and system 'cartpole' has none",
                 id="eval-metric-position-on-cartpole"),
    pytest.param("sysid", {"system": {"name": "quadrotor", "overrides": {"gravity": 0}}},
                 "gravity must be > 0 for quadrotor", id="system-quadrotor-gravity-zero"),
    pytest.param("sysid", {"system": {"name": "quadrotor", "overrides": {"gravity": -9.81}}},
                 "gravity must be > 0 for quadrotor", id="system-quadrotor-gravity-negative"),
    pytest.param("train", {"rho": {"kind": "box", "lo": [-float("inf"), 0, 0],
                                   "hi": [1, 1, 1]}},
                 "bad rho section: box lo must be finite, got [-inf, 0.0, 0.0]",
                 id="rho-box-lo-infinite"),
    pytest.param("eval", {"rho": {"kind": "box", "lo": [0, 0, 0],
                                  "hi": [1, float("nan"), 1]}},
                 "bad rho section: box hi must be finite", id="rho-box-hi-nan"),
    pytest.param("train", {"rho": {"kind": "gaussian", "mean": [float("nan"), 0, 0],
                                   "std": [0, 0, 0]}},
                 "bad rho section: gaussian mean must be finite, got [nan, 0.0, 0.0]",
                 id="rho-gaussian-mean-nan"),
    pytest.param("train", {"rho": {"kind": "gaussian", "mean": [0, 0, 0],
                                   "std": [0, float("inf"), 0]}},
                 "bad rho section: gaussian std must be finite", id="rho-gaussian-std-infinite"),
    pytest.param("eval", {"system": {"name": "dubins",
                                     "overrides": {"x_star": [0, 0, float("nan")]}}},
                 "override x_star must be finite, got [0.0, 0.0, nan]", id="system-x-star-nan"),
    pytest.param("train", {"system": {"name": "dubins",
                                      "overrides": {"P": [[1, 0, 0], [0, float("inf"), 0],
                                                          [0, 0, 1]]}}},
                 "override P must be finite", id="system-P-infinite"),
    pytest.param("sysid", {"system": {"name": "dubins",
                                      "overrides": {"R": [[float("nan"), 0], [0, 1]]}}},
                 "override R must be finite", id="system-R-nan"),
    pytest.param("sysid", {"system": {"name": "lq1d", "overrides": {"Q": [[float("inf")]]}}},
                 "override Q must be finite, got [[inf]]", id="system-lq1d-Q-infinite"),
    pytest.param("sysid", {"system": {"name": "dubins",
                                      "overrides": {"u_star": [float("nan"), 0]}}},
                 "override u_star must be finite, got [nan, 0.0]", id="system-u-star-nan"),
    pytest.param("eval", {"system": {"name": "dubins",
                                     "overrides": {"obstacles": [[[float("nan"), 0], 0.5]]}}},
                 "obstacle center must be finite, got [nan, 0.0]", id="system-obstacle-center-nan"),
    pytest.param("sysid", {"system": "lq1d"}, "system must be a JSON object, got 'lq1d'",
                 id="system-string"),
    pytest.param("sysid", {"system": {"name": "dubins", "overrides": 5}},
                 "system.overrides must be a JSON object, got 5", id="system-overrides-number"),
    pytest.param("sysid", {"rho": [1]}, "rho must be a JSON object, got [1]", id="rho-list"),
    pytest.param("sysid", {"rho": []}, "rho must be a JSON object, got []", id="rho-empty-list"),
    pytest.param("eval", {"eval": 5}, "eval must be a JSON object, got 5", id="eval-number"),
    pytest.param("sysid", {"sysid": "fast"}, "sysid must be a JSON object, got 'fast'",
                 id="sysid-string"),
    pytest.param("train", {"hjb": [2]}, "hjb must be a JSON object, got [2]", id="hjb-list"),
    pytest.param("sysid", {"rho": {"kind": "box", "lo": 0, "hi": 1}},
                 "bad rho section: box needs lists lo and hi", id="rho-box-scalar"),
    pytest.param("sysid", {"rho": {"kind": "gaussian", "mean": 0, "std": 1}},
                 "bad rho section: gaussian needs lists mean and std", id="rho-gaussian-scalar"),
])
def test_bad_config_section_is_a_usage_error(command, section, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TINY, **section}))
    # eval fails on its config before it reads the controller
    argv = ["--controller", tmp_path / "none.json"] if command == "eval" else []
    assert run(command, "--config", path, "--outdir", tmp_path / "out",
               *argv) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "effective_config.json").exists()  # no echo of a bad config


def test_metric_without_position_fails_before_the_controller_is_read(tmp_path, capsys):
    # cartpole has no position subspace
    path = tmp_path / "position.json"
    path.write_text(json.dumps({"eval": {"metric": "position"}}))
    assert run("eval", "--system", "cartpole", "--config", path, "--outdir", tmp_path,
               "--controller", tmp_path / "missing.json") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "metric 'position'" in err and "'cartpole'" in err
    assert "checkpoint not found" not in err


@pytest.mark.parametrize("name, metric", [("dubins", "position"), ("cartpole", "state"),
                                          ("acrobot", "state"), ("quadrotor", "position"),
                                          ("lq1d", "state")])
def test_eval_without_a_metric_uses_one_the_system_has(name, metric, tmp_path):
    assert run("train", "--system", name, "--epochs", 0, "--outdir", tmp_path) == cli.EXIT_OK
    assert run("eval", "--system", name, "--starts", 8, "--outdir", tmp_path,
               "--controller", tmp_path / f"controller_{name}.json") == cli.EXIT_OK
    assert read_report(tmp_path / "eval_report.csv")["metric"] == metric
    echo = json.loads((tmp_path / "effective_config.json").read_text())
    assert echo["eval"]["metric"] == metric


def test_every_echo_writes_out_every_section_field(tiny_config, tmp_path):
    controller = tmp_path / "train" / "controller_dubins.json"
    for command, argv in (("sysid", []), ("train", []), ("eval", ["--controller", controller]),
                          ("rollout", ["--controller", controller, "--x0=-3,0.5,0.1"])):
        outdir = tmp_path / command
        assert run(command, "--config", tiny_config, "--outdir", outdir, *argv) == cli.EXIT_OK
        echo = json.loads((outdir / "effective_config.json").read_text())
        for section, cls in (("sysid", sysid.SysIdConfig), ("hjb", hjbtrain.HjbConfig),
                             ("eval", config.EvalConfig)):
            assert set(echo[section]) == {f.name for f in fields(cls)}, (command, section)
        # the values set, the defaults, and the metric the run used
        assert echo["hjb"]["epochs"] == TINY["hjb"]["epochs"] and echo["hjb"]["lr"] == 0.01
        assert echo["sysid"]["hidden"] == [8] and echo["sysid"]["lr"] == 1e-3
        assert echo["eval"]["metric"] == "position" and echo["eval"]["starts"] == 12


@pytest.mark.parametrize("chunk_bytes, export", [(16 << 20, 3), (1500, 6)],
                         ids=["one-chunk", "three-chunks"])
def test_export_writes_the_scored_trajectories(chunk_bytes, export, tiny_config, tmp_path,
                                               monkeypatch):
    # 12 starts, K=5: 1500 bytes a chunk splits them 4/4/4, so 6 span two chunks
    monkeypatch.setattr(rollout, "_EVAL_CHUNK_BYTES", chunk_bytes)
    calls, trajs = [], []
    system_spec, roll = config.system_spec, rollout.rollout

    def counted_spec(cfg):
        spec = system_spec(cfg)
        return replace(spec, f=lambda x, u: calls.append(1) or spec.f(x, u))

    def recorded(*args, **kwargs):
        trajs.append(roll(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(config, "system_spec", counted_spec)
    # the cli integrates through the rollout module only, so a second
    # rollout of the exported starts would be recorded too
    monkeypatch.setattr(rollout, "rollout", recorded)
    path = tmp_path / "controller.json"
    netzoo.save(netzoo.controller_net(3, [0.0, -1.0], [1.0, 1.0], hidden=(8,)), path)
    assert run("eval", "--config", tiny_config, "--outdir", tmp_path, "--controller", path,
               "--export-trajectories", export) == cli.EXIT_OK
    # one rollout of every start, four evaluations of f per RK4 step
    chunks = len(trajs)
    assert chunks == (1 if chunk_bytes > 1500 else 3)
    assert len(calls) == 4 * TINY["hjb"]["K"] * chunks
    scored = np.concatenate([t.state_stack for t in trajs], axis=1)[:, :export]
    assert scored.dtype == np.float32
    for b in range(export):
        with open(tmp_path / f"eval_traj_{b:04d}.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        states = [[np.float32(r[f"x_{i}"]) for i in range(3)] for r in rows]
        assert np.array_equal(np.array(states, dtype=np.float32), scored[:, b])
    assert not (tmp_path / f"eval_traj_{export:04d}.csv").exists()


def test_controller_of_another_dimension_is_a_usage_error(tiny_config, tmp_path, capsys):
    path = tmp_path / "controller.json"
    netzoo.save(netzoo.controller_net(4, [-1.0], [1.0], hidden=(4,)), path)
    assert run("eval", "--config", tiny_config, "--outdir", tmp_path / "out",
               "--controller", path) == cli.EXIT_USAGE
    assert "controller expects d=4, system 'dubins' has d=3" in capsys.readouterr().err


def swap_box(doc):
    box = doc["output_transform"]
    box["lo"], box["hi"] = box["hi"], box["lo"]


def shorten_lo(doc):
    doc["output_transform"]["lo"] = doc["output_transform"]["lo"][:1]


def nan_weight(doc):
    doc["layers"][0]["weights"][0][0] = float("nan")


def no_layers(doc):
    doc["layers"] = []


def quoted_skips(doc):
    doc["skip_connections"] = "false"


@pytest.mark.parametrize("edit, message", [
    (swap_box, "output_transform: box upper bounds must exceed lower bounds"),
    (shorten_lo, "output_transform: box bounds lo and hi need one entry each per output"),
    (nan_weight, "layers[0].weights has non-finite entries"),
    (no_layers, "layers: a net has at least one layer"),
    (quoted_skips, "skip_connections must be a boolean, got 'false'"),
])
def test_controller_with_a_bad_field_is_a_usage_error(edit, message, tiny_config, tmp_path,
                                                      capsys):
    path = tmp_path / "controller.json"
    netzoo.save(netzoo.controller_net(3, [-1.0, -2.0], [1.0, 2.0], hidden=(4,)), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert run("eval", "--config", tiny_config, "--outdir", tmp_path / "out",
               "--controller", path) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(path) in err and message in err


@pytest.mark.parametrize("box, shown", [
    (([-50.0, -50.0], [50.0, 50.0]), "(lo [-50.0, -50.0], hi [50.0, 50.0])"),
    (None, "(none)"),
], ids=["wider-box", "no-box"])
def test_controller_without_the_action_box_is_a_usage_error(box, shown, tiny_config, tmp_path,
                                                            capsys):
    path = tmp_path / "controller.json"
    netzoo.save(netzoo.init(3, (4,), 2, box=box, seed=0), path)
    assert run("eval", "--config", tiny_config, "--outdir", tmp_path / "out",
               "--controller", path) == cli.EXIT_USAGE
    assert (f"{path}: output_transform: the controller's box {shown} is not the action box "
            f"of system 'dubins' (lo [0.0, -1.0], hi [1.0, 1.0])") in capsys.readouterr().err
    assert run("rollout", "--config", tiny_config, "--outdir", tmp_path / "out",
               "--controller", path, "--x0=0,0,0") == cli.EXIT_USAGE


def test_rollout_from_an_exported_start_is_the_exported_trajectory(tiny_config, tmp_path):
    # eval and rollout both integrate a float32 batch of one under analytic f
    path = tmp_path / "controller.json"
    netzoo.save(netzoo.controller_net(3, [0.0, -1.0], [1.0, 1.0], hidden=(8,), seed=2), path)
    assert run("eval", "--config", tiny_config, "--outdir", tmp_path / "eval", "--controller",
               path, "--starts", 1, "--export-trajectories", 1) == cli.EXIT_OK
    exported = (tmp_path / "eval" / "eval_traj_0000.csv").read_text().splitlines()
    x0 = ",".join(exported[2].split(",")[1:4])
    assert run("rollout", "--config", tiny_config, "--outdir", tmp_path / "rollout",
               "--controller", path, f"--x0={x0}") == cli.EXIT_OK
    rolled = (tmp_path / "rollout" / "rollout_0000.csv").read_text().splitlines()
    # the header comments differ in their seed; columns and rows do not
    assert len(rolled) == len(exported) == 1 + 1 + TINY["hjb"]["K"] + 1
    assert rolled[1:] == exported[1:]


def test_controller_of_another_action_dimension_is_a_usage_error(tiny_config, tmp_path, capsys):
    path = tmp_path / "controller.json"
    netzoo.save(netzoo.controller_net(3, [-1.0], [1.0], hidden=(4,)), path)
    assert run("eval", "--config", tiny_config, "--outdir", tmp_path / "out",
               "--controller", path) == cli.EXIT_USAGE
    assert f"{path}: controller outputs m=1, system 'dubins' has m=2" in capsys.readouterr().err


def infinite_omega0(doc):
    doc["omega0"] = float("inf")


def add_box(doc):
    doc["output_transform"] = {"kind": "tanh_box", "lo": [-9.0] * 3, "hi": [9.0] * 3}


def add_skips(doc):
    doc["skip_connections"] = True


@pytest.mark.parametrize("edit, message", [
    (infinite_omega0, "omega0 must be finite and > 0, got inf"),
    (add_box, "output_transform: a dynamics net has no output box"),
    (add_skips, "skip_connections: a dynamics net has no skip connections"),
    (no_layers, "layers: a net has at least one layer"),
    (quoted_skips, "skip_connections must be a boolean, got 'false'"),
])
def test_transition_with_a_bad_field_is_a_usage_error(edit, message, tiny_config, tmp_path,
                                                      capsys):
    path = tmp_path / "ftheta.json"
    netzoo.save(netzoo.dynamics_net(3, 2, hidden=(4,)), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert run("train", "--config", tiny_config, "--outdir", tmp_path / "out",
               "--transition", path) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(path) in err and message in err


def test_config_values_take_their_field_types():
    cfg = {"system": {"name": "dubins"}, "hjb": {"lr": 1, "controller_hidden": [8, 4]}}
    hcfg = config.sections(cfg, config.system_spec(cfg))[1].hjb
    assert type(hcfg.lr) is float and hcfg.lr == 1.0
    assert hcfg.controller_hidden == (8, 4)


def test_zero_epoch_train_writes_the_initial_nets(tiny_config, tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert run("train", "--config", tiny_config, "--outdir", train_dir,
               "--epochs", 0) == cli.EXIT_OK
    assert (train_dir / "controller_dubins.json").exists()
    assert len((train_dir / "training_log.csv").read_text().splitlines()) == 2
    assert "epochs=0 untrained" in capsys.readouterr().out


QUADROTOR_DIVERGES = pytest.mark.xfail(
    strict=True, reason="the untrained quadrotor policy leaves the Euler-angle chart: "
                        "numeric failure: loss_cost became inf at epoch 0, exit 3 "
                        "(ROADMAP open item 2)")


@pytest.mark.parametrize("preset", [
    pytest.param(name, marks=QUADROTOR_DIVERGES) if name.startswith("quadrotor") else name
    for name in config.preset_names()
])
def test_every_preset_trains_and_evaluates(preset, tmp_path):
    overlay = tmp_path / "small.json"
    overlay.write_text(json.dumps({"hjb": {"batch": 8}, "eval": {"starts": 20}}))
    train_dir = tmp_path / "train"
    assert run("train", "--preset", preset, "--config", overlay, "--outdir", train_dir,
               "--epochs", 2) == cli.EXIT_OK
    controller = next(train_dir.glob("controller_*.json"))
    assert run("eval", "--preset", preset, "--config", overlay, "--outdir", tmp_path / "eval",
               "--controller", controller) == cli.EXIT_OK


def test_rho_section_sets_the_start_distribution(tiny_config, tmp_path):
    train_dir = tmp_path / "train"
    assert run("train", "--config", tiny_config, "--outdir", train_dir) == cli.EXIT_OK
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps({**TINY, "rho": {"kind": "gaussian", "mean": [-3, 0.5, 0.1],
                                                "std": [0, 0, 0]}}))
    eval_dir = tmp_path / "eval"
    assert run("eval", "--config", path, "--outdir", eval_dir, "--controller",
               train_dir / "controller_dubins.json", "--export-trajectories", 1) == cli.EXIT_OK
    first_state = (eval_dir / "eval_traj_0000.csv").read_text().splitlines()[2].split(",")[1:4]
    assert [float(v) for v in first_state] == [-3.0, 0.5, 0.1]


@pytest.mark.parametrize("x0", ["nan,0,0", "0,inf,0", "0,0,-inf"])
def test_non_finite_x0_is_a_usage_error(x0, tiny_config, tmp_path, capsys):
    # rejected before the controller is read
    assert run("rollout", "--config", tiny_config, "--outdir", tmp_path,
               "--controller", tmp_path / "missing.json", "--x0", x0) == cli.EXIT_USAGE
    assert f"--x0 must be finite, got '{x0}'" in capsys.readouterr().err


def test_non_finite_rollout_exits_3(tiny_config, tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert run("train", "--config", tiny_config, "--system", "cartpole",
               "--outdir", train_dir) == cli.EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("rollout", "--config", tiny_config, "--system", "cartpole",
                   "--outdir", tmp_path / "r",
                   "--controller", train_dir / "controller_cartpole.json",
                   "--x0=0,0,0,1e200") == cli.EXIT_NUMERIC
    assert "non-finite state after rk4 step (rollout step 0)" in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
