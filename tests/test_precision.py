"""The dtype rule: float32 data computes in float32, float64 data in float64.

Training and evaluation compute in ``diffkit.COMPUTE`` (float32) with
float64 master weights; every other caller keeps the dtype of its data.
These tests audit the dtype of every value a step computes, and compare
float32 training with the same run in float64.
"""

from collections import Counter

import numpy as np
import pytest

from hjbctrl import diffkit as dk
from hjbctrl import dynzoo as dz
from hjbctrl import hjbtrain as hj
from hjbctrl import netzoo as nz
from hjbctrl import rollout as ro
from hjbctrl import sysid as si

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


@pytest.fixture
def emitted(monkeypatch):
    """Counter of (taped?, dtype) over every op output computed from here on."""
    seen = Counter()
    emit = dk._emit

    def spy(op, out, *args, **kwargs):
        seen[(dk._ACTIVE_TAPE is not None, out.dtype)] += 1
        return emit(op, out, *args, **kwargs)

    monkeypatch.setattr(dk, "_emit", spy)
    return seen


@pytest.fixture
def grads(monkeypatch):
    """The dtypes of every gradient that ``diffkit.grad`` returns from here on."""
    seen = Counter()
    grad = dk.grad

    def spy(expr, wrt):
        out = grad(expr, wrt)
        seen.update(g.data.dtype for g in out.values())
        return out

    monkeypatch.setattr(dk, "grad", spy)
    return seen


def learned_config(tmp_path, **kw):
    path = tmp_path / "ftheta.json"
    nz.save(nz.dynamics_net(3, 2, hidden=(16, 16), omega0=8.0, seed=0), path)
    return hj.HjbConfig(transition=str(path), **kw)


STEP = dict(epochs=1, batch=8, K=5, controller_hidden=(8,), value_hidden=(8, 8))
TOL = 1e-4  # see test_float32_training_agrees_with_float64


# -- the kernel's rule ---------------------------------------------------------


@pytest.mark.parametrize("const", [0.5, np.float64(0.5), np.array(0.5), np.full((2, 3), 0.5),
                                   dk.tensor(0.5)],
                         ids=["python", "np-scalar", "0-d", "array", "tensor"])
@pytest.mark.parametrize("op", [dk.add, dk.sub, dk.mul, dk.div])
def test_a_float64_constant_takes_the_float32_operands_dtype(op, const, rng):
    x = dk.tensor(rng.uniform(1, 2, (2, 3)).astype(np.float32))
    assert op(x, const).data.dtype == F32
    assert op(const, x).data.dtype == F32
    y = dk.tensor(rng.uniform(1, 2, (2, 3)))
    assert op(y, const).data.dtype == F64


def test_tensor_keeps_a_float_arrays_dtype_and_lifts_the_rest_to_float64():
    assert dk.tensor(np.zeros(2, np.float32)).data.dtype == F32
    assert dk.tensor(np.float32(1.0)).data.dtype == F32
    for data in (1, 1.0, [1, 2], np.arange(3)):
        assert dk.tensor(data).data.dtype == F64


def test_n_ary_and_fused_ops_compute_in_the_narrowest_dtype(rng):
    x = dk.tensor(rng.standard_normal((4, 3)).astype(np.float32))
    w, b = rng.standard_normal((3, 5)), rng.standard_normal(5)
    assert dk.concat([x, np.zeros((4, 1))], axis=1).data.dtype == F32
    assert dk.stack([np.zeros((4, 3)), x]).data.dtype == F32
    assert dk.matmul(x, w).data.dtype == F32
    for act in ("sine", "tanh", "relu"):
        out = dk.mlp(x, [(w, b), (rng.standard_normal((5, 2)), b[:2])], act, 2.0,
                     box=(np.zeros(2), np.ones(2)))
        assert out.data.dtype == F32
    assert dk.chain(rng.standard_normal((2, 5)), rng.standard_normal((4, 5)).astype(np.float32),
                    w, 2.0).data.dtype == F32
    # a float64 state under a float32 slope
    assert dk.rk4(lambda x, u: x * u, np.zeros((4, 3)), x, 0.1).data.dtype == F32
    assert dk.rk4_mlp(np.zeros((4, 3)), x[:, :2], 0.1, [(rng.standard_normal((5, 3)), b[:3])],
                      "sine", 2.0).data.dtype == F32


def test_float32_gradients_and_tangents_are_float32_and_near_float64(rng):
    x0 = rng.uniform(-1, 1, (5, 3))
    spec = dz.make_system("dubins")
    u = rng.uniform(-1, 1, (5, 2))
    out = {}
    for dtype in (np.float32, np.float64):
        tape = dk.Tape()
        with tape:
            x = tape.leaf(x0.astype(dtype))
            # float64 cost arrays and jvp seeds meet the leaf's dtype
            jac = dk.jacobian(spec.f, x, u)
            loss = dk.sum_(spec.terminal_cost(x) * dk.sum_(jac, axis=(1, 2)))
        assert jac.data.dtype == loss.data.dtype == np.dtype(dtype)
        g = dk.grad(loss, [x])[x].data
        assert g.dtype == np.dtype(dtype)
        out[dtype] = g
    assert np.allclose(out[np.float32], out[np.float64], rtol=1e-5, atol=1e-5)


def test_a_tracked_float64_operand_gets_a_float32_adjoint(rng):
    tape = dk.Tape()
    with tape:
        a = tape.leaf(rng.standard_normal(3))
        b = tape.leaf(rng.standard_normal(3).astype(np.float32))
        loss = dk.sum_(a * b)
    assert loss.data.dtype == F32
    g = dk.grad(loss, [a, b])
    assert g[a].data.dtype == g[b].data.dtype == F32
    assert np.allclose(g[a].data, b.data) and np.allclose(g[b].data, a.data.astype(np.float32))


# -- the entry points compute in float32 ---------------------------------------


@pytest.mark.parametrize("learned", [False, True], ids=["analytic", "learned"])
def test_one_hjb_step_records_no_float64_value(learned, emitted, grads, tmp_path):
    spec = dz.make_system("dubins")
    cfg = learned_config(tmp_path, **STEP) if learned else hj.HjbConfig(**STEP)
    ctrl, value, _ = hj.train_controller(spec, cfg)
    assert emitted[(True, F32)] > 100
    # an analytic step's rk4 nodes also linearize f, untaped, inside grad
    assert set(emitted) == {(True, F32)} | ({(False, F32)} if not learned else set())
    assert set(grads) == {F32}
    # the master weights, and so the trained nets, stay float64
    assert {p.dtype for p in ctrl.params() + value.params()} == {F64}


def test_one_sysid_step_records_no_float64_value(emitted, grads):
    spec = dz.make_system("dubins")
    data = dz.sample_dataset(spec, 64, seed=0)  # set-up: float64 targets
    cfg = si.SysIdConfig(n_train=64, n_test=16, epochs=1, batch=16, hidden=(8, 8))
    emitted.clear()
    net, report, _ = si.train_sysid(spec, cfg, train_data=data)
    taped = {dt for taped, dt in emitted if taped}
    assert taped == {F32} and set(grads) == {F32}
    assert {p.dtype for p in net.params()} == {F64}
    assert np.isfinite(report.median)


def test_evaluation_rolls_out_in_float32(monkeypatch, emitted):
    spec = dz.make_system("dubins")
    controller = nz.controller_net(3, spec.action_box.lo, spec.action_box.hi, hidden=(8,))
    trajs = []
    rollout = ro.rollout

    def spy(*args, **kwargs):
        trajs.append(rollout(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(ro, "rollout", spy)
    ro.evaluate(spec, controller, n_starts=30, seed=0, K=10, threshold=0.15)
    assert len(trajs) == 1
    assert trajs[0].state_stack.dtype == trajs[0].control_stack.dtype == F32
    assert set(emitted) == {(False, F32)}


def test_float64_compute_keeps_every_value_and_gradient_float64(monkeypatch, emitted, grads,
                                                                  tmp_path):
    monkeypatch.setattr(dk, "COMPUTE", np.float64)
    spec = dz.make_system("dubins")
    hj.train_controller(spec, learned_config(tmp_path, **STEP))
    si.train_sysid(spec, si.SysIdConfig(n_train=64, n_test=16, epochs=1, batch=16,
                                        hidden=(8,)))
    controller = nz.controller_net(3, spec.action_box.lo, spec.action_box.hi, hidden=(8,))
    ro.evaluate(spec, controller, n_starts=10, seed=0, K=5, threshold=0.15)
    assert {dt for _, dt in emitted} == {F64}
    assert set(grads) == {F64}


def test_float32_training_agrees_with_float64(monkeypatch):
    # TOL: the largest relative float32/float64 gap of the final loss and of
    # the held-out sysid median measured over seeds 0-2 of table1_dubins and
    # table2_cartpole at a reduced budget (400 sysid and 150 HJB epochs, both
    # transitions; CHANGES.md) was 5.2e-5, rounded up to a decade.  Cartpole
    # trained under its 400-epoch learned model is excluded there: that run
    # is chaotic, and in float64 alone, rounding the model's weights through
    # float32 moved its final loss by 1.6%.
    spec = dz.make_system("dubins")
    hcfg = hj.HjbConfig(epochs=5, batch=16, K=20, controller_hidden=(16,),
                        value_hidden=(16, 16))
    scfg = si.SysIdConfig(n_train=512, n_test=256, epochs=30, batch=64, hidden=(16, 16))
    runs = {}
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(dk, "COMPUTE", dtype)
        log = hj.train_controller(spec, hcfg)[2]
        runs[dtype] = (np.array([row["loss_total"] for row in log]),
                       si.train_sysid(spec, scfg)[1].median)
    (l32, m32), (l64, m64) = runs[np.float32], runs[np.float64]
    assert np.max(np.abs(l32 / l64 - 1.0)) < TOL
    assert abs(m32 / m64 - 1.0) < TOL
