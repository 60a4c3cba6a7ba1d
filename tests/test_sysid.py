import hashlib

import numpy as np
import pytest

from hjbctrl import dynzoo as dz
from hjbctrl import netzoo as nz
from hjbctrl import sysid as si

from conftest import assert_smoothed_decreasing


@pytest.fixture(scope="module")
def dubins():
    return dz.make_system("dubins")


def tiny_cfg(**kw):
    base = dict(n_train=2000, n_test=1000, epochs=120, batch=128, omega0=10.0, seed=0)
    base.update(kw)
    return si.SysIdConfig(**base)


# -- loss -----------------------------------------------------------------------


def test_loss_zero_when_predictions_match(dubins):
    data = dz.sample_dataset(dubins, 64, seed=0)
    # a "network" that is exactly the identity on its targets is not
    # expressible; instead check the loss formula on matching targets by
    # feeding the network's own outputs back as targets
    net = nz.dynamics_net(3, 2, hidden=(8,), seed=1)
    z = np.concatenate([data.x, data.u], axis=1)
    pred = nz.forward(net, z).data
    jac = nz.forward_with_jacobian(net, z)[1].data
    loss = si.sysid_loss(net, data.x, data.u, pred, jac)
    assert loss.item() < 1e-8


def test_loss_constant_residual_norm(dubins):
    net = nz.dynamics_net(3, 2, hidden=(8,), seed=1)
    data = dz.sample_dataset(dubins, 32, seed=1)
    z = np.concatenate([data.x, data.u], axis=1)
    pred = nz.forward(net, z).data
    c = 0.75
    shift = np.zeros_like(pred)
    shift[:, 0] = c  # residual vector of norm c for every sample
    loss = si.sysid_loss(net, data.x, data.u, pred + shift)
    assert abs(loss.item() - c) < 1e-12


def test_loss_hand_computed_one_layer_net(dubins):
    w = np.array([[0.1, 0.0, 0.2], [0.0, -0.1, 0.0], [0.3, 0.0, 0.1],
                  [0.0, 0.2, 0.0], [0.1, 0.1, -0.2]])
    b = np.array([0.05, -0.05, 0.0])
    net = nz.Mlp(layers=((w, b),), activation="sine")
    data = dz.sample_dataset(dubins, 16, seed=2)
    z = np.concatenate([data.x, data.u], axis=1)
    pred = z @ w + b
    want_val = np.mean(np.sqrt(np.sum((pred - data.xdot) ** 2, axis=1) + 1e-18))
    jac_resid = np.tile(w.T, (16, 1, 1)) - data.jac
    want_jac = np.mean(np.sqrt(np.sum(jac_resid**2, axis=(1, 2)) + 1e-18))
    got = si.sysid_loss(net, data.x, data.u, data.xdot, data.jac)
    assert abs(got.item() - (want_val + want_jac)) < 1e-12


def test_loss_without_target_is_the_value_term(dubins):
    net = nz.dynamics_net(3, 2, hidden=(8,), seed=1)
    data = dz.sample_dataset(dubins, 8, seed=3)
    without = si.sysid_loss(net, data.x, data.u, data.xdot).item()
    pred = nz.forward(net, np.concatenate([data.x, data.u], axis=1)).data
    want = np.mean(np.sqrt(np.sum((pred - data.xdot) ** 2, axis=1) + 1e-18))
    assert abs(without - want) < 1e-12
    assert si.sysid_loss(net, data.x, data.u, data.xdot, data.jac).item() > without


# -- training ----------------------------------------------------------------------


def test_zero_epoch_run_returns_initialized_net(dubins):
    cfg = tiny_cfg(epochs=0)
    net, report, losses = si.train_sysid(dubins, cfg)
    want = nz.dynamics_net(3, 2, activation=cfg.activation, omega0=cfg.omega0,
                           seed=cfg.seed)
    for (w1, b1), (w2, b2) in zip(net.layers, want.layers):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    assert losses == []
    assert np.isfinite(report.mean) and report.mean >= 0


def test_training_deterministic_per_seed(dubins):
    cfg = tiny_cfg(epochs=40)
    n1, r1, l1 = si.train_sysid(dubins, cfg)
    n2, r2, l2 = si.train_sysid(dubins, cfg)
    assert l1 == l2
    assert r1 == r2
    assert all(np.array_equal(a, b) for a, b in zip(n1.params(), n2.params()))


def test_training_reduces_error_and_loss_curve_decreases(dubins):
    cfg = tiny_cfg(epochs=400)
    net, report, losses = si.train_sysid(dubins, cfg)
    test = dz.sample_dataset(dubins, cfg.n_test, seed=cfg.seed + si.TEST_SEED_OFFSET)
    init = nz.dynamics_net(3, 2, activation=cfg.activation, omega0=cfg.omega0,
                           seed=cfg.seed)
    before = si.heldout_errors(init, test).mean()
    assert report.mean < 0.25 * before
    assert_smoothed_decreasing(losses, window=100, rise_tol=0.10)


def heldout_jac_errors(net, data):
    """Per-sample Frobenius errors of the net's stacked input-Jacobian."""
    z = np.concatenate([data.x, data.u], axis=1)
    jac = nz.forward_with_jacobian(net, z)[1].data
    return np.linalg.norm((jac - data.jac).reshape(len(data), -1), axis=1)


def test_grad_supervision_improves_jacobian_error(dubins):
    with_g, _, _ = si.train_sysid(dubins, tiny_cfg(epochs=400, grad_supervision=True))
    without_g, _, _ = si.train_sysid(dubins, tiny_cfg(epochs=400, grad_supervision=False))
    test = dz.sample_dataset(dubins, 2000, seed=si.TEST_SEED_OFFSET)
    e_with = heldout_jac_errors(with_g, test).mean()
    e_without = heldout_jac_errors(without_g, test).mean()
    assert e_with <= e_without


def test_train_and_test_sets_disjoint(dubins):
    cfg = tiny_cfg()
    train = dz.sample_dataset(dubins, cfg.n_train, seed=cfg.seed)
    test = dz.sample_dataset(dubins, cfg.n_test, seed=cfg.seed + si.TEST_SEED_OFFSET)

    def row_hashes(arr):
        return {hashlib.sha1(row.tobytes()).hexdigest() for row in arr}

    assert not (row_hashes(train.x) & row_hashes(test.x))


def test_divergence_aborts_with_diagnostic(dubins):
    # lr at overflow scale: parameters overflow to inf and the loss turns nan
    cfg = tiny_cfg(epochs=10, lr=1e308)
    with pytest.raises(si.TrainingDiverged, match="epoch"), np.errstate(all="ignore"):
        si.train_sysid(dubins, cfg)
