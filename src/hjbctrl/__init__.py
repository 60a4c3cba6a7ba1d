"""hjbctrl: neural optimal control with HJB-derived training losses.

Submodules:
    diffkit   autodiff kernel (tensors, tape, reverse-mode grad, forward-mode jvp)
    netzoo    MLP families (sine dynamics net, tanh-box controller, value net)
    dynzoo    analytic benchmark systems (f only; Jacobians derived), costs,
              start distributions, datasets
    optim     Adam and learning-rate schedules
    sysid     Sobolev system identification
    rollout   differentiable fixed-step RK4 closed-loop simulation, evaluation
    hjbtrain  joint controller/value training from HJB losses
    cli       command-line front end (sysid / train / eval / rollout)
"""

__version__ = "0.1.0"
