"""The three MLP families used by the toolkit, plus portable checkpoints.

* dynamics model: sine activations (frequency omega0), linear output
* controller: tanh hidden activations, tanh-box output squashed into the
  action space
* value function: tanh hidden activations with the raw input concatenated
  onto every hidden layer's input (input-concatenation skip connections)

``forward``/``input_jacobian``/``vjp`` are built from diffkit primitives,
so their outputs are themselves differentiable with respect to the network
parameters when a tape is active.  Every layer is one ``diffkit.dense``
node (matmul, bias and activation fused); only a sine layer whose
derivative the Jacobian chain needs keeps its activation as a separate
``sincos`` node.  The input-Jacobian is exact (layer-wise chain rule), not
a finite-difference estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import diffkit as dk
from .diffkit import Tensor

ACTIVATIONS = ("sine", "tanh", "relu")


class CheckpointError(Exception):
    """Checkpoint file is missing, corrupt, or inconsistent with its metadata."""


@dataclass(frozen=True)
class TanhBox:
    """Output transform mapping pre-activations into the open box (lo, hi)."""

    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class MlpSpec:
    """Architecture description consumed by :func:`init`."""

    in_dim: int
    hidden: tuple[int, ...]
    out_dim: int
    activation: str = "tanh"
    omega0: float = 30.0
    skip_connections: bool = False
    box: tuple[Sequence[float], Sequence[float]] | None = None  # (lo, hi)


@dataclass(frozen=True)
class Mlp:
    """Immutable MLP: list of (W, b) with W of shape (fan_in, fan_out)."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    activation: str
    omega0: float = 30.0
    skip_connections: bool = False
    output_transform: TanhBox | None = None

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{self.activation}'")
        last = len(self.layers) - 1
        for k in range(last):
            w_out = self.layers[k][0].shape[1]
            w_in = self.layers[k + 1][0].shape[0]
            # skip concat feeds hidden layers only, never the output layer
            expected = w_out + (self.in_dim if self.skip_connections and k + 1 < last else 0)
            if w_in != expected:
                raise ValueError(
                    f"layer {k + 1} expects fan_in {w_in}, previous layer chains to {expected}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[1]

    def params(self) -> list[np.ndarray]:
        """Flat parameter list (W0, b0, W1, b1, ...)."""
        out: list[np.ndarray] = []
        for w, b in self.layers:
            out.append(w)
            out.append(b)
        return out

    def with_params(self, params: Sequence[np.ndarray]) -> "Mlp":
        """New network with the same architecture and replaced parameters."""
        if len(params) != 2 * len(self.layers):
            raise ValueError("parameter count mismatch")
        layers = tuple((params[2 * i], params[2 * i + 1]) for i in range(len(self.layers)))
        return replace(self, layers=layers)

    def __call__(self, x, params=None) -> Tensor:
        return forward(self, x, params=params)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def init(spec: MlpSpec, seed: int) -> Mlp:
    """Deterministic random init.

    Sine layers follow the sinusoidal-network scheme: first layer
    U(-1/fan_in, 1/fan_in), deeper layers U(-sqrt(6/fan_in)/omega0, +).
    Tanh/relu layers use Glorot-uniform U(-sqrt(6/(fan_in+fan_out)), +).
    """
    rng = np.random.default_rng(seed)
    dims_in: list[int] = []
    dims_out: list[int] = []
    prev = spec.in_dim
    for j, h in enumerate(spec.hidden):
        dims_in.append(prev)
        dims_out.append(h)
        prev = h + (spec.in_dim if spec.skip_connections and j + 1 < len(spec.hidden) else 0)
    dims_in.append(spec.hidden[-1] if spec.hidden else spec.in_dim)
    dims_out.append(spec.out_dim)

    layers = []
    for i, (fi, fo) in enumerate(zip(dims_in, dims_out)):
        if spec.activation == "sine":
            bound = 1.0 / fi if i == 0 else np.sqrt(6.0 / fi) / spec.omega0
        else:
            bound = np.sqrt(6.0 / (fi + fo))
        w = rng.uniform(-bound, bound, size=(fi, fo))
        b = rng.uniform(-1.0 / np.sqrt(fi), 1.0 / np.sqrt(fi), size=(fo,))
        layers.append((w, b))

    box = None
    if spec.box is not None:
        lo = np.asarray(spec.box[0], dtype=np.float64)
        hi = np.asarray(spec.box[1], dtype=np.float64)
        if lo.shape != (spec.out_dim,) or hi.shape != (spec.out_dim,):
            raise ValueError("box bounds must match the output dimension")
        if np.any(hi <= lo):
            raise ValueError("box upper bounds must exceed lower bounds")
        box = TanhBox(lo=lo, hi=hi)

    return Mlp(
        layers=tuple(layers),
        activation=spec.activation,
        omega0=spec.omega0,
        skip_connections=spec.skip_connections,
        output_transform=box,
    )


def dynamics_net(d: int, m: int, hidden=(64, 64, 64), activation="sine", omega0=30.0,
                 seed: int = 0) -> Mlp:
    """Transition model f(x, u) -> xdot as one MLP over the stacked input."""
    return init(MlpSpec(d + m, tuple(hidden), d, activation=activation, omega0=omega0), seed)


def controller_net(d: int, action_lo, action_hi, hidden=(64, 64), seed: int = 0) -> Mlp:
    """State-feedback controller with outputs squashed into the action box."""
    m = len(action_lo)
    return init(
        MlpSpec(d, tuple(hidden), m, activation="tanh", box=(action_lo, action_hi)),
        seed,
    )


def value_net(d: int, hidden=(64, 64, 64), seed: int = 0) -> Mlp:
    """Value function over (state, time): scalar output, skip connections."""
    return init(
        MlpSpec(d + 1, tuple(hidden), 1, activation="tanh", skip_connections=True),
        seed,
    )


# ---------------------------------------------------------------------------
# Forward / Jacobian / vjp
# ---------------------------------------------------------------------------


def _hidden_layer(net: Mlp, a: Tensor, w: Tensor, b: Tensor,
                  want_deriv: bool) -> tuple[Tensor, Tensor | None]:
    """One hidden layer's activation and (optionally) its derivative with
    respect to the pre-activation z = a @ w + b.

    Without the derivative, sine and tanh layers are one fused node.  The
    derivative of a tanh layer comes from that node's output; a sine layer
    that needs one is a fused linear node followed by sincos(omega0 z).
    """
    act = net.activation
    if act == "tanh":
        t = dk.dense(a, w, b, "tanh")
        return t, (1.0 - t * t) if want_deriv else None
    if act == "sine" and not want_deriv:
        return dk.dense(a, w, b, "sine", net.omega0), None
    z = dk.dense(a, w, b)
    if act == "sine":
        s, c = dk.sincos(net.omega0 * z)
        return s, net.omega0 * c
    h = dk.relu(z)
    if want_deriv:
        # a.e. constant step function, so it enters the tape as a constant
        return h, dk.tensor((z.data > 0.0).astype(np.float64), checked=False)
    return h, None


def _check_input(net: Mlp, x: Tensor) -> tuple[Tensor, bool]:
    squeeze = x.ndim == 1
    if squeeze:
        x = dk.reshape(x, (1, x.shape[0]))
    if x.shape[-1] != net.in_dim:
        raise dk.ShapeError(f"input dim {x.shape[-1]} != network fan-in {net.in_dim}")
    return x, squeeze


def _param_tensors(net: Mlp, params) -> list[tuple[Tensor, Tensor]]:
    if params is None:
        return [(dk.tensor(w, checked=False), dk.tensor(b, checked=False)) for w, b in net.layers]
    if len(params) != 2 * len(net.layers):
        raise ValueError("parameter count mismatch")
    return [(params[2 * i], params[2 * i + 1]) for i in range(len(net.layers))]


def _forward_core(net: Mlp, x, params, want_jac: bool, vjp_vec: Tensor | None = None):
    x = dk._lift(x)
    x, squeeze = _check_input(net, x)
    lp = _param_tensors(net, params)
    n_hidden = len(lp) - 1

    a = x
    derivs: list[Tensor] = []
    for i, (w, b) in enumerate(lp[:-1]):
        if net.skip_connections and i > 0:
            a = dk.concat([a, x], axis=-1)
        a, d = _hidden_layer(net, a, w, b, want_jac)
        if want_jac:
            derivs.append(d)
    w, b = lp[-1]
    y = dk.dense(a, w, b)

    box = net.output_transform
    box_deriv = None
    if box is not None:
        t = dk.tanh(y)
        if want_jac:
            box_deriv = (box.hi - box.lo) * 0.5 * (1.0 - t * t)
        y = box.lo + (box.hi - box.lo) * (t + 1.0) * 0.5

    jac = None
    if want_jac:
        # accumulate d(out)/d(input) from the output side: out_dim is never
        # larger than the hidden width, so these are the cheap GEMMs.  With a
        # vjp vector the "out" axis collapses to a single row immediately.
        batch = x.shape[0]
        n_rows = net.out_dim
        if vjp_vec is not None:
            vrow = vjp_vec if box_deriv is None else vjp_vec * box_deriv
            g = dk.matmul(dk.reshape(vrow, (batch, 1, net.out_dim)), dk.transpose(w))
            n_rows = 1
        else:
            g = dk.transpose(w)  # (out, w_last)
            if box_deriv is not None:
                g = dk.reshape(box_deriv, (batch, net.out_dim, 1)) * g
        jac = None
        for i in range(n_hidden - 1, -1, -1):
            wi, _ = lp[i]
            d = derivs[i]
            gz = g * dk.reshape(d, (batch, 1, d.shape[-1]))
            full = dk.matmul(gz, dk.transpose(wi))  # (B, n_rows, fan_in_i)
            if i == 0:
                jac = full if jac is None else jac + full
            elif net.skip_connections:
                width = lp[i - 1][0].shape[1]
                g = full[:, :, :width]
                tail = full[:, :, width:]
                jac = tail if jac is None else jac + tail
            else:
                g = full
        if n_hidden == 0:
            # single linear layer: jacobian is the (possibly box-scaled) weight
            jac = g if g.ndim == 3 else g + dk.tensor(
                np.zeros((batch, n_rows, net.in_dim)), checked=False
            )
        if vjp_vec is not None:
            jac = dk.reshape(jac, (batch, net.in_dim))

    if squeeze:
        y = dk.reshape(y, (y.shape[-1],))
        if jac is not None and vjp_vec is None:
            jac = dk.reshape(jac, (net.out_dim, net.in_dim))
    return y, jac


def forward(net: Mlp, x, params=None) -> Tensor:
    """Evaluate the network on a (B, in_dim) batch or a single (in_dim,) vector.

    ``params`` optionally overrides the stored parameters with taped leaf
    tensors (same flat layout as ``Mlp.params``), which is how training
    steps obtain parameter gradients.
    """
    y, _ = _forward_core(net, x, params, want_jac=False)
    return y


def forward_with_jacobian(net: Mlp, x, params=None) -> tuple[Tensor, Tensor]:
    """Output and exact input-Jacobian sharing one forward pass."""
    return _forward_core(net, x, params, want_jac=True)


def input_jacobian(net: Mlp, x, params=None) -> Tensor:
    """Exact Jacobian of the network output with respect to its input.

    Returns (out_dim, in_dim) for a single input, (B, out_dim, in_dim) for a
    batch.  Built as a taped composition (weight matrices interleaved with
    diagonal activation-derivative factors), so the result can appear inside
    a loss and be differentiated with respect to the parameters.
    """
    _, jac = _forward_core(net, x, params, want_jac=True)
    return jac


def vjp(net: Mlp, x, v, params=None) -> tuple[Tensor, Tensor]:
    """Output and v^T . d(net)/d(input), sharing one forward pass, without
    materializing the full Jacobian.

    The row equals matmul(v, input_jacobian(net, x)); taped.  It is (in_dim,)
    for single inputs, (B, in_dim) for batches (v broadcasts over the batch).
    """
    v = dk._lift(v)
    x = dk._lift(x)
    if v.shape[-1] != net.out_dim:
        raise dk.ShapeError(f"v has dim {v.shape[-1]}, network out_dim {net.out_dim}")
    single_x = x.ndim == 1
    batch = 1 if single_x else x.shape[0]
    if v.ndim == 1:
        v = dk.reshape(v, (1, net.out_dim)) + dk.tensor(
            np.zeros((batch, net.out_dim)), checked=False
        )
    y, row = _forward_core(net, x, params, want_jac=True, vjp_vec=v)
    if single_x:
        row = dk.reshape(row, (net.in_dim,))
    return y, row


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT_VERSION = 1


def save(net: Mlp, path, metadata: dict | None = None) -> None:
    """Write a JSON checkpoint; float repr round-trips bit-exactly."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "metadata": metadata or {},
        "activation": net.activation,
        "omega0": net.omega0,
        "skip_connections": net.skip_connections,
        "output_transform": (
            {"kind": "identity"}
            if net.output_transform is None
            else {
                "kind": "tanh_box",
                "lo": net.output_transform.lo.tolist(),
                "hi": net.output_transform.hi.tolist(),
            }
        ),
        "layers": [
            {"shape": list(w.shape), "weights": w.tolist(), "bias": b.tolist()}
            for w, b in net.layers
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load(path) -> tuple[Mlp, dict]:
    """Read a checkpoint, validating shapes; returns (net, metadata)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"corrupt checkpoint {path}: {e}")
    try:
        if doc["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(f"unsupported format_version {doc['format_version']}")
        layers = []
        for rec in doc["layers"]:
            w = np.asarray(rec["weights"], dtype=np.float64)
            b = np.asarray(rec["bias"], dtype=np.float64)
            if list(w.shape) != list(rec["shape"]) or b.shape != (w.shape[1],):
                raise CheckpointError(f"layer shape mismatch in {path}")
            layers.append((w, b))
        ot = doc["output_transform"]
        box = None
        if ot["kind"] == "tanh_box":
            box = TanhBox(
                lo=np.asarray(ot["lo"], dtype=np.float64),
                hi=np.asarray(ot["hi"], dtype=np.float64),
            )
        elif ot["kind"] != "identity":
            raise CheckpointError(f"unknown output transform '{ot['kind']}'")
        net = Mlp(
            layers=tuple(layers),
            activation=doc["activation"],
            omega0=float(doc["omega0"]),
            skip_connections=bool(doc["skip_connections"]),
            output_transform=box,
        )
    except KeyError as e:
        raise CheckpointError(f"corrupt checkpoint {path}: missing field {e}")
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"corrupt checkpoint {path}: {e}")
    return net, doc.get("metadata", {})
