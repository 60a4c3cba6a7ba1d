"""Outside-in layer tracing for the benchmark.

Every span comes from a wrapper that this module installs around one of the
package's public functions, for the duration of a traced run only; nothing
under ``src/`` knows about it.  The wrappers call the original function
with the original arguments, so tracing changes timing but not arithmetic
(the benchmark checks that traced and untraced losses are bitwise equal).

Spans are aggregated in memory per stage and name: call count, total time
and self time, where self time is the span's duration minus the time of
the spans nested inside it.  The stage ("setup", "sysid", "train",
"eval") is set by the benchmark around each call into the pipeline.
"""

from __future__ import annotations

import dataclasses
import gc
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from hjbctrl import cli, diffkit, dynzoo, hjbtrain, netzoo, optim, rollout, sysid

MODULES = (diffkit, dynzoo, netzoo, optim, sysid, rollout, hjbtrain, cli)

# public diffkit primitives -> the op name their tape nodes carry; sincos
# records one "sin" and one "cos" node but is timed as one forward call
PRIMITIVES = {
    "add": "add", "sub": "sub", "mul": "mul", "div": "div", "neg": "neg",
    "matmul": "matmul", "sin": "sin", "cos": "cos", "sincos": "sincos",
    "tanh": "tanh", "relu": "relu", "exp": "exp", "sqrt": "sqrt",
    "square": "square", "absval": "abs", "sum_": "sum", "mean_": "mean",
    "concat": "concat", "stack": "stack", "reshape": "reshape",
    "transpose": "transpose", "getitem": "getitem",
}

# (module, attribute) -> span name for the layer-boundary functions
BOUNDARIES = {
    (netzoo, "forward"): "netzoo.forward",
    (netzoo, "forward_with_jacobian"): "netzoo.forward_with_jacobian",
    (netzoo, "vjp"): "netzoo.vjp",
    (rollout, "rollout"): "rollout.rollout",
    (rollout, "rk4_step"): "rollout.rk4_step",
    (hjbtrain, "hamiltonian"): "hjbtrain.hamiltonian",
    (hjbtrain, "loss_cost"): "hjbtrain.loss_cost",
    (hjbtrain, "loss_final"): "hjbtrain.loss_final",
    (sysid, "sysid_loss"): "sysid.sysid_loss",
    (dynzoo, "sample_dataset"): "dynzoo.sample_dataset",
    (cli, "evaluate"): "cli.evaluate",
}

# (class, method) -> span name; both transition sources share span names so
# the metric exists whether f is analytic or learned
METHODS = {
    (optim.Adam, "step"): "optim.adam_step",
    (rollout.AnalyticTransition, "__call__"): "rollout.transition",
    (rollout.LearnedTransition, "__call__"): "rollout.transition",
    (rollout.AnalyticTransition, "costate_vjp_u"): "rollout.costate_vjp_u",
    (rollout.LearnedTransition, "costate_vjp_u"): "rollout.costate_vjp_u",
}


class _TimedCall:
    """Span around one callable; a slotted object rather than a closure, so
    wrapping every tape node adds one tracked object per node for the
    garbage collector to see instead of a function and its cells."""

    __slots__ = ("fn", "name", "tracer")

    def __init__(self, fn, name: str, tracer: "Tracer"):
        self.fn = fn
        self.name = name
        self.tracer = tracer

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        child = tracer._child
        child.append(0.0)
        t0 = perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            inner = child.pop()
            child[-1] += dt
            rec = tracer._spans[self.name]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - inner

    def __get__(self, obj, objtype=None):
        # bind like a function when installed as a method (see METHODS)
        return self if obj is None else types.MethodType(self, obj)


def _new_span() -> list:
    return [0, 0.0, 0.0]


class Tracer:
    """Span and count aggregates per stage and name."""

    def __init__(self) -> None:
        # stage -> name -> [calls, total seconds, self seconds]
        self.spans: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(_new_span))
        # stage -> name -> count
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        # one entry per open span: time covered by its finished children
        self._child = [0.0]
        self._gc_start = 0.0
        self.stage = "setup"

    @property
    def stage(self) -> str:
        return self._stage

    @stage.setter
    def stage(self, name: str) -> None:
        self._stage = name
        self._spans = self.spans[name]

    # -- spans --------------------------------------------------------------

    def timed(self, name: str, fn) -> _TimedCall:
        """Wrap ``fn`` so each call records a span called ``name``."""
        return _TimedCall(fn, name, self)

    def _traced_grad(self, grad):
        """dk.grad that first counts the tape's nodes by op and wraps each
        node's backward callable in a span named after its op."""
        timed_grad = self.timed("diffkit.grad", grad)

        def wrapper(expr, wrt):
            tape = expr.tape
            if tape is not None:
                counts = self.counts[self.stage]
                counts["diffkit.tape_nodes"] += len(tape.nodes)
                for node in tape.nodes:
                    counts["diffkit.nodes." + node.op] += 1
                    if node.backward is not None:
                        node.backward = _TimedCall(node.backward, "diffkit.bwd." + node.op, self)
            return timed_grad(expr, wrt)

        return wrapper

    def wrap_spec(self, spec: dynzoo.SystemSpec) -> dynzoo.SystemSpec:
        """Copy of ``spec`` whose dynamics and Jacobian record spans."""
        return dataclasses.replace(
            spec,
            f=self.timed("dynzoo.f", spec.f),
            jac=self.timed("dynzoo.jac", spec.jac),
        )

    # -- garbage collector --------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        rec = self._spans["gc.pause"]
        rec[0] += 1
        rec[1] += perf_counter() - self._gc_start
        self.counts[self.stage][f"gc.collections.gen{info['generation']}"] += 1

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every module binding of the traced functions; undo on exit.

        A function imported by name (``from .rollout import rollout``) is
        bound in several modules, so each binding that is the original
        function object is replaced.
        """
        originals = {getattr(diffkit, fn): "diffkit.fwd." + op for fn, op in PRIMITIVES.items()}
        originals.update({getattr(mod, attr): name for (mod, attr), name in BOUNDARIES.items()})
        wrappers = {id(fn): self.timed(name, fn) for fn, name in originals.items()}
        wrappers[id(diffkit.grad)] = self._traced_grad(diffkit.grad)

        patched = []
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for (cls, attr), name in METHODS.items():
            method = vars(cls)[attr]
            patched.append((cls, attr, method))
            setattr(cls, attr, self.timed(name, method))
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    # -- readout --------------------------------------------------------------

    def _span(self, stage: str, name: str):
        return self.spans[stage].get(name, (0, 0.0, 0.0))

    def calls(self, stage: str, name: str) -> int:
        return self._span(stage, name)[0]

    def ms(self, stage: str, name: str) -> float:
        return 1e3 * self._span(stage, name)[1]

    def self_ms(self, stage: str, name: str) -> float:
        return 1e3 * self._span(stage, name)[2]

    def count(self, stage: str, name: str) -> int:
        return self.counts[stage].get(name, 0)

    def op_table(self, stage: str, steps: int) -> list[dict]:
        """Per op kind, per step: forward calls and ms, tape nodes, backward ms."""
        ops = sorted(set(PRIMITIVES.values()) | {"leaf"})
        rows = []
        for op in ops:
            row = {
                "op": op,
                "fwd_calls": self.calls(stage, "diffkit.fwd." + op) / steps,
                "fwd_ms": self.ms(stage, "diffkit.fwd." + op) / steps,
                "nodes": self.count(stage, "diffkit.nodes." + op) / steps,
                "bwd_ms": self.ms(stage, "diffkit.bwd." + op) / steps,
            }
            if row["fwd_calls"] or row["nodes"]:
                rows.append(row)
        return rows
