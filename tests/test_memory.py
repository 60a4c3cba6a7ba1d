"""Memory guards: tracemalloc's peak over small training runs.

The peaks count every array numpy allocates (numpy reports its buffers to
tracemalloc).  Each bound is the value measured on Python 3.11 with numpy
2.4 plus a 10% margin; the peak before the tape kept only what its adjoints
read is given next to it.  A bound that fails means a change keeps more of
a step alive than before, not that the margin needs widening.
"""

import tracemalloc

from hjbctrl import dynzoo as dz
from hjbctrl import hjbtrain as hj
from hjbctrl import netzoo as nz
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
    # measured 14.8 MB (23.5 MB when every node kept its inputs)
    spec = dz.make_system("dubins")
    path = tmp_path / "ftheta.json"
    nz.save(nz.dynamics_net(spec.d, spec.m, omega0=8.0, seed=0), path)
    cfg = hj.HjbConfig(epochs=1, batch=32, K=20, transition=str(path))
    assert traced_peak_mb(lambda: hj.train_controller(spec, cfg)) < 16.3


def test_sobolev_sysid_peak():
    # measured 4.53 MB (5.60 MB when every node kept its inputs)
    spec = dz.make_system("dubins")
    cfg = si.SysIdConfig(n_train=1024, n_test=64, epochs=3, batch=256, seed=0)
    assert traced_peak_mb(lambda: si.train_sysid(spec, cfg)) < 5.0
