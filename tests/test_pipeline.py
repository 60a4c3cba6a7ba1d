"""The pipeline's numbers, pinned: Sobolev sysid on dubins, HJB training under
the learned f_theta, then evaluation under the analytic f.

The constants were recorded on a 2-core x86-64 host with numpy 2.4.6, and a
change that leaves the computation as it is reproduces them bitwise.  The
tolerance rtol=1e-5 only absorbs the rounding differences of another BLAS
or host; a change that moves a loss by more than that changed the numbers.
"""

import numpy as np
import pytest

from hjbctrl import dynzoo as dz, hjbtrain as hj, netzoo as nz, sysid
from hjbctrl.rollout import evaluate

RTOL = 1e-5
SYSID_LAST_LOSS = 2.145326614379883
SYSID_MEDIAN = 0.6566737294197083
LOSS_TOTAL = [17.34358024597168, 17.07379913330078, 21.07070541381836]
TERMINAL_ERROR_MEAN = 4.210038258854356


def test_sysid_train_and_eval_reproduce_the_recorded_numbers(tmp_path):
    spec = dz.make_system("dubins")
    scfg = sysid.SysIdConfig(n_train=512, n_test=256, epochs=20, batch=64, hidden=(16, 16))
    net, report, losses = sysid.train_sysid(spec, scfg)
    nz.save(net, tmp_path / "ftheta.json")
    hcfg = hj.HjbConfig(epochs=3, batch=8, K=10, transition=str(tmp_path / "ftheta.json"),
                        controller_hidden=(16, 16), value_hidden=(16, 16, 16))
    controller, _, log = hj.train_controller(spec, hcfg)
    ev = evaluate(spec, controller, 50, seed=0, K=10, threshold=0.15)

    assert losses[-1] == pytest.approx(SYSID_LAST_LOSS, rel=RTOL)
    assert report.median == pytest.approx(SYSID_MEDIAN, rel=RTOL)
    np.testing.assert_allclose([row["loss_total"] for row in log], LOSS_TOTAL, rtol=RTOL)
    assert ev.terminal_error_mean == pytest.approx(TERMINAL_ERROR_MEAN, rel=RTOL)
