"""hjbctrl: neural optimal control with HJB-derived training losses.

Submodules:
    diffkit   autodiff kernel (tensors, tape, reverse-mode grad, forward-mode jvp)
    netzoo    MLP families (sine dynamics net, tanh-box controller, value net)
    dynzoo    analytic benchmark systems (f only; Jacobians derived), costs,
              start distributions, datasets
    optim     Adam and learning-rate schedules
    sysid     Sobolev system identification
    rollout   differentiable fixed-step RK4 closed-loop simulation and
              evaluation under the analytic dynamics
    hjbtrain  joint controller/value training from HJB losses
    config    JSON configs, shipped presets, typed section parsing
    cli       command-line front end (sysid / train / eval / rollout); writes
              every CSV and trajectory manifest
"""

__version__ = "0.1.0"
