"""Memory guards: tracemalloc's peak over small training and evaluation runs.

The peaks count every array numpy allocates (numpy reports its buffers to
tracemalloc).  Each bound is the value measured on Python 3.11 with numpy
2.4 plus a 10% margin; earlier peaks of the same run are given next to it.
The runs compute in float32 (``diffkit.COMPUTE``), and the same runs in
float64 measure more than each bound, so a float64 array that leaks into
the float32 path fails them.  A bound that fails means a change keeps more
of a step alive than before, not that the margin needs widening.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from hjbctrl import diffkit as dk
from hjbctrl import dynzoo as dz
from hjbctrl import hjbtrain as hj
from hjbctrl import netzoo as nz
from hjbctrl import rollout as ro
from hjbctrl import sysid as si


def traced_peak_mb(fn) -> float:
    """Peak traced memory while ``fn`` runs, above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_learned_hjb_step_peak(tmp_path):
    # measured 6.45 MB (11.9 MB in float64, 14.8 MB before the Jacobian
    # chain kept one node per layer, 23.5 MB when every node kept its inputs)
    spec = dz.make_system("dubins")
    path = tmp_path / "ftheta.json"
    nz.save(nz.dynamics_net(spec.d, spec.m, omega0=8.0, seed=0), path)
    cfg = hj.HjbConfig(epochs=1, batch=32, K=20, transition=str(path))
    assert traced_peak_mb(lambda: hj.train_controller(spec, cfg)) < 7.1


def test_analytic_hjb_step_peak():
    # measured 3.86 MB (6.64 MB in float64, 6.90 MB before the Jacobian chain
    # kept one node per layer)
    spec = dz.make_system("dubins")
    cfg = hj.HjbConfig(epochs=1, batch=32, K=20)
    assert traced_peak_mb(lambda: hj.train_controller(spec, cfg)) < 4.25


def test_evaluation_peak_does_not_grow_with_starts():
    # measured 14.1 MB at 20k starts (108.5 MB when they were one batch); a
    # chunk holds as many bytes in float64, but float64 arrays in a chunk
    # sized for float32 starts measured 23.0 MB
    spec = dz.make_system("dubins")
    controller = nz.controller_net(spec.d, spec.action_box.lo, spec.action_box.hi,
                                   hidden=(16,), seed=0)
    peak = traced_peak_mb(lambda: ro.evaluate(spec, controller, n_starts=20_000, seed=0,
                                              K=50, threshold=0.15))
    assert peak < 15.5


def test_sobolev_sysid_peak():
    # measured 1.78 MB (3.25 MB in float64, 5.60 MB when every node kept
    # its inputs)
    spec = dz.make_system("dubins")
    cfg = si.SysIdConfig(n_train=1024, n_test=64, epochs=3, batch=256, seed=0)
    assert traced_peak_mb(lambda: si.train_sysid(spec, cfg)) < 1.96


def test_untaped_heldout_forward_peak():
    # the held-out errors of the benchmark's sysid net on 10,000 rows:
    # measured 4.92 MB as one network node, 9.77 MB as one node per layer
    spec = dz.make_system("dubins")
    net = nz.dynamics_net(spec.d, spec.m, omega0=8.0, seed=0).astype(np.float32)
    data = dz.sample_dataset(spec, 10_000, seed=1).astype(np.float32)
    z = np.concatenate([data.x, data.u], axis=1)
    assert traced_peak_mb(lambda: nz.forward(net, z)) < 10.7


def cyclic_garbage(fn) -> int:
    """Objects that only the cyclic collector would free after ``fn``."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


def record_step_without_backward(spec, transition) -> None:
    """Record one HJB step's rollout, Hamiltonian and loss on a tape, and
    drop the tape before any backward pass empties it."""
    ctrl = nz.controller_net(spec.d, spec.action_box.lo, spec.action_box.hi, hidden=(16,))
    value = nz.value_net(spec.d, hidden=(16, 16), seed=1)
    x0 = spec.rho.sample(np.random.default_rng(0), 16)
    tape = dk.Tape()
    with tape:
        ctrl = ctrl.with_params([tape.leaf(p) for p in ctrl.params()])
        value = hj.MlpValue(value.with_params([tape.leaf(p) for p in value.params()]), spec.tf)
        traj = ro.rollout(spec, transition, ctrl, x0, K=10)
        hj.loss_hjb(hj.grid_hamiltonian(value, ctrl, traj, transition, spec))


@pytest.mark.parametrize("learned", [False, True], ids=["analytic", "learned"])
def test_training_and_evaluation_leave_no_cyclic_garbage(learned, tmp_path):
    # a step is freed by reference counting alone, also when it is dropped
    # before its backward pass: a backward closure that kept a tensor
    # (tensor -> tape -> node -> closure) would keep the whole step alive
    # until a full collection
    spec = dz.make_system("dubins")
    transition = "analytic"
    if learned:
        transition = str(tmp_path / "ftheta.json")
        nz.save(nz.dynamics_net(spec.d, spec.m, hidden=(16, 16), omega0=8.0, seed=0),
                transition)
    cfg = hj.HjbConfig(epochs=2, batch=16, K=10, transition=transition)
    assert cyclic_garbage(lambda: hj.train_controller(spec, cfg)) == 0
    f = hj.build_transition(spec, transition, np.float64)
    assert cyclic_garbage(lambda: record_step_without_backward(spec, f)) == 0
    controller = nz.controller_net(spec.d, spec.action_box.lo, spec.action_box.hi,
                                   hidden=(16,), seed=0)
    assert cyclic_garbage(lambda: ro.evaluate(spec, controller, n_starts=200, seed=0, K=10,
                                              threshold=0.15)) == 0
