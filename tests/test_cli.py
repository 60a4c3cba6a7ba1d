import csv
import json

import pytest

from hjbctrl import cli

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
    assert "unknown system" in capsys.readouterr().err


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
