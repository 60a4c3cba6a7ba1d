"""The three MLP families used by the toolkit, plus portable checkpoints.

* dynamics model: sine activations (frequency omega0), linear output
* controller: tanh hidden activations, tanh-box output squashed into the
  action space
* value function: tanh hidden activations with the raw input concatenated
  onto every hidden layer's input (input-concatenation skip connections)

``forward``/``forward_with_jacobian``/``vjp`` take inputs of shape
(B, in_dim) only and are built from diffkit primitives.  A net's weights
are arrays or taped leaves: training records its parameters as leaves,
builds ``net.with_params(leaves)`` and evaluates that net, so everything
it computes is differentiable with respect to those leaves.
Every layer is one ``diffkit.dense`` node (matmul, bias and activation
fused); only a sine layer whose derivative is needed keeps a separate
``sincos`` node.  Input derivatives come from one reverse chain seeded with
a matrix S that returns S . dy/dx, exact (layer-wise chain rule): the
identity seed gives the Jacobian and a row seed v gives the vjp.  The chain
records one ``diffkit.chain`` node per hidden layer; a sine layer hands it
its cos node and omega0, so omega0 cos is never stored.
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
    """Immutable MLP: list of (W, b) with W of shape (fan_in, fan_out),
    arrays or taped leaves (see :meth:`with_params`)."""

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

    def with_params(self, params: Sequence) -> "Mlp":
        """New network with the same architecture and replaced parameters
        in the flat layout of :meth:`params`: arrays, or taped leaf
        tensors, in which case every evaluation of the new net is taped."""
        if len(params) != 2 * len(self.layers):
            raise ValueError("parameter count mismatch")
        layers = tuple((params[2 * i], params[2 * i + 1]) for i in range(len(self.layers)))
        return replace(self, layers=layers)

    def astype(self, dtype) -> "Mlp":
        """The same network with its weight arrays and output box in
        ``dtype``, so that it computes in that dtype."""
        box = self.output_transform
        if box is not None:
            box = TanhBox(lo=box.lo.astype(dtype), hi=box.hi.astype(dtype))
        return replace(self, layers=tuple((np.asarray(w, dtype), np.asarray(b, dtype))
                                          for w, b in self.layers), output_transform=box)

    def __call__(self, x) -> Tensor:
        return forward(self, x)


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
                  want_deriv: bool) -> tuple[Tensor, tuple | None]:
    """One hidden layer's activation and (optionally) its derivative with
    respect to the pre-activation z = a @ w + b, as a pair (d, scale) for
    ``diffkit.chain``: the derivative is scale * d, or d if scale is None.

    Without the derivative, sine and tanh layers are one fused node.  The
    derivative of a tanh layer comes from that node's output; a sine layer
    that needs one is a fused linear node followed by sincos(omega0 z), and
    its derivative is the cos node scaled by omega0.
    """
    act = net.activation
    if act == "tanh":
        t = dk.dense(a, w, b, "tanh")
        return t, (1.0 - t * t, None) if want_deriv else None
    if act == "sine" and not want_deriv:
        return dk.dense(a, w, b, "sine", net.omega0), None
    z = dk.dense(a, w, b)
    if act == "sine":
        s, c = dk.sincos(net.omega0 * z)
        return s, (c, net.omega0)
    h = dk.relu(z)
    if want_deriv:
        # a.e. constant step function, so it enters the tape as a constant
        return h, (dk.tensor((z.data > 0.0).astype(z.data.dtype)), None)
    return h, None


def _forward_core(net: Mlp, x, seed=None) -> tuple[Tensor, Tensor | None]:
    """Output y (B, out_dim) and, given a seed S of shape (r, out_dim) or
    (B, r, out_dim), S . dy/dx of shape (B, r, in_dim), accumulated from the
    output side: r is never larger than the hidden width, so GEMMs are cheap.
    """
    x = dk.tensor(x)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise dk.ShapeError(f"input shape {x.shape} is not (B, {net.in_dim})")
    ws, bs = zip(*net.layers)
    batch = x.shape[0]

    a = x
    derivs: list[tuple] = []
    for i in range(len(ws) - 1):
        if net.skip_connections and i > 0:
            a = dk.concat([a, x], axis=-1)
        a, d = _hidden_layer(net, a, ws[i], bs[i], seed is not None)
        derivs.append(d)
    y = dk.dense(a, ws[-1], bs[-1])

    box = net.output_transform
    if box is not None:
        t = dk.tanh(y)
        if seed is not None:
            box_deriv = (box.hi - box.lo) * 0.5 * (1.0 - t * t)
            seed = seed * dk.reshape(box_deriv, (batch, 1, net.out_dim))
        y = box.lo + (box.hi - box.lo) * (t + 1.0) * 0.5
    if seed is None:
        return y, None

    g = dk.matmul(seed, dk.transpose(ws[-1]))
    jac = None
    for i in range(len(derivs) - 1, -1, -1):
        d, scale = derivs[i]
        g = dk.chain(g, d, ws[i], scale)
        if net.skip_connections and i > 0:
            # the tail columns are the skip input's share of d(out)/dx
            width = ws[i - 1].shape[1]
            tail = g[:, :, width:]
            jac = tail if jac is None else jac + tail
            g = g[:, :, :width]
    if g.ndim == 2:  # no hidden layer and no box: the seed never met the batch
        g = g + np.zeros((batch,) + g.shape)
    return y, g if jac is None else jac + g


def forward(net: Mlp, x) -> Tensor:
    """Evaluate the network on a (B, in_dim) batch."""
    y, _ = _forward_core(net, x)
    return y


def forward_with_jacobian(net: Mlp, x) -> tuple[Tensor, Tensor]:
    """Output (B, out_dim) and exact input-Jacobian (B, out_dim, in_dim),
    sharing one forward pass; the chain seeded with the identity."""
    return _forward_core(net, x, seed=np.eye(net.out_dim))


def vjp(net: Mlp, x, v) -> tuple[Tensor, Tensor]:
    """Output and the rows v_b^T . d(net)/d(input) at x_b, (B, in_dim) for
    v of shape (B, out_dim), sharing one forward pass; the chain seeded with
    v, so the full Jacobian is never materialized."""
    x, v = dk.tensor(x), dk.tensor(v)
    if v.shape != (x.shape[0], net.out_dim):
        raise dk.ShapeError(f"v has shape {v.shape}, expected ({x.shape[0]}, {net.out_dim})")
    y, row = _forward_core(net, x, seed=dk.reshape(v, (v.shape[0], 1, net.out_dim)))
    return y, dk.reshape(row, (row.shape[0], net.in_dim))


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
