"""The three MLP families used by the toolkit, plus portable checkpoints.

* dynamics model: sine activations (frequency omega0), linear output
* controller: tanh hidden activations, tanh-box output squashed into the
  action space
* value function: tanh hidden activations with the raw input concatenated
  onto the input of every hidden layer after the first, whose input it
  already is (input-concatenation skip connections)

``forward``/``forward_with_jacobian``/``vjp`` take inputs of shape
(B, in_dim) only and are built from diffkit primitives.  A net's weights
are arrays or taped leaves: training records its parameters as leaves,
builds ``net.with_params(leaves)`` and evaluates that net, so everything
it computes is differentiable with respect to those leaves.
A plain evaluation (``forward``) is one ``diffkit.mlp`` node, which reads
its input once; it serves the nets without skip connections.  The
per-layer path serves the derivatives that are themselves taped
(``forward_with_jacobian``, ``vjp``): every affine layer is a one-layer
``diffkit.mlp`` node, a skip layer's input is a ``concat`` node, and each
hidden layer adds its activation's node, ``tanh``, ``sincos`` or
``relu``.  The value net, the one net with skip connections, is only
ever evaluated with its derivatives (``hjbtrain.MlpValue``), so this path
is its evaluator, and ``forward`` refuses it.  Input derivatives come
from one reverse chain seeded with a matrix S that returns S . dy/dx,
exact (layer-wise chain rule): the identity seed gives the Jacobian and a
row seed v gives the vjp.  The chain records one ``diffkit.chain`` node
per hidden layer; a sine layer hands it its cos node and omega0, so
omega0 cos is never stored.  A boxed net (the controller) has no input
derivatives: nothing takes them, and both functions refuse it.  So no
net has both an output box and skip connections: neither path could
evaluate it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import diffkit as dk
from .diffkit import ACTIVATIONS, Tensor


class CheckpointError(Exception):
    """Checkpoint file is missing, corrupt, or inconsistent with its metadata."""


@dataclass(frozen=True)
class TanhBox:
    """Output transform mapping pre-activations into the open box (lo, hi)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if self.lo.ndim != 1 or self.lo.shape != self.hi.shape:
            raise ValueError(f"output_transform: box bounds lo and hi need one entry each per "
                             f"output, got shapes {self.lo.shape} and {self.hi.shape}")
        if not np.all(np.isfinite((self.lo, self.hi))):
            raise ValueError("output_transform: box bounds must be finite")
        if np.any(self.hi <= self.lo):
            raise ValueError("output_transform: box upper bounds must exceed lower bounds")


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
        if not self.layers:
            raise ValueError("layers: a net has at least one layer")
        if not isinstance(self.skip_connections, bool):
            raise ValueError(f"skip_connections must be a boolean, got {self.skip_connections!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{self.activation}'")
        # forward evaluates no skip net, and the per-layer path no boxed one
        if self.output_transform is not None and self.skip_connections:
            raise ValueError("output_transform: a net with skip connections has no output box")
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
        box = self.output_transform
        if box is not None and box.lo.shape != (self.out_dim,):
            raise ValueError(f"output_transform: box bounds must match the output dimension "
                             f"{self.out_dim}, got {box.lo.shape[0]} entries")

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[1]

    def params(self) -> list[np.ndarray]:
        """Flat parameter list (W0, b0, W1, b1, ...)."""
        return [t for layer in self.layers for t in layer]

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


def init(in_dim: int, hidden: Sequence[int], out_dim: int, *, activation: str = "tanh",
         omega0: float = 30.0, skip_connections: bool = False,
         box: tuple[Sequence[float], Sequence[float]] | None = None, seed: int) -> Mlp:
    """Deterministic random init of an MLP with ``hidden`` widths and an
    optional output box (lo, hi), validated like any :class:`Mlp`.

    Sine layers follow the sinusoidal-network scheme: first layer
    U(-1/fan_in, 1/fan_in), deeper layers U(-sqrt(6/fan_in)/omega0, +).
    Tanh/relu layers use Glorot-uniform U(-sqrt(6/(fan_in+fan_out)), +).
    With ``skip_connections``, the input is concatenated onto the input of
    every hidden layer but the first.
    """
    rng = np.random.default_rng(seed)
    dims_in: list[int] = []
    prev = in_dim
    for j, h in enumerate(hidden):
        dims_in.append(prev)
        prev = h + (in_dim if skip_connections and j + 1 < len(hidden) else 0)
    dims_in.append(hidden[-1] if hidden else in_dim)

    layers = []
    for i, (fi, fo) in enumerate(zip(dims_in, (*hidden, out_dim))):
        if activation == "sine":
            bound = 1.0 / fi if i == 0 else np.sqrt(6.0 / fi) / omega0
        else:
            bound = np.sqrt(6.0 / (fi + fo))
        w = rng.uniform(-bound, bound, size=(fi, fo))
        b = rng.uniform(-1.0 / np.sqrt(fi), 1.0 / np.sqrt(fi), size=(fo,))
        layers.append((w, b))

    if box is not None:
        box = TanhBox(lo=np.asarray(box[0], dtype=np.float64),
                      hi=np.asarray(box[1], dtype=np.float64))
    return Mlp(layers=tuple(layers), activation=activation, omega0=omega0,
               skip_connections=skip_connections, output_transform=box)


def dynamics_net(d: int, m: int, hidden=(64, 64, 64), activation="sine", omega0=30.0,
                 seed: int = 0) -> Mlp:
    """Transition model f(x, u) -> xdot as one MLP over the stacked input."""
    return init(d + m, hidden, d, activation=activation, omega0=omega0, seed=seed)


def controller_net(d: int, action_lo, action_hi, hidden=(64, 64), seed: int = 0) -> Mlp:
    """State-feedback controller with outputs squashed into the action box."""
    return init(d, hidden, len(action_lo), box=(action_lo, action_hi), seed=seed)


def value_net(d: int, hidden=(64, 64, 64), seed: int = 0) -> Mlp:
    """Value function over (state, time): scalar output, skip connections.

    The skips stay on a measurement against a plain tanh MLP of the same
    widths, each trained with the preset's ``hjb`` section over seeds 0-4
    and scored under analytic f on the preset's ``eval`` starts.  Medians
    over seeds, skip -> plain [the skip net's IQR]:

    * lq1d, 1000 epochs: success 1 -> 1; J 0.3964 -> 0.3965 [4.7e-4];
      |V(x0, 0) - J| 0.0193 -> 0.0195 [8.3e-4]; |V(x, 0) - tanh(tf) x^2|
      8.3e-4 -> 9.4e-4 [2.9e-4]; final loss_hjb 1.95e-4 -> 2.46e-4
      [8.7e-6]; final loss_final 3.29e-4 -> 3.38e-4 [2.0e-4].
    * dubins, 2000 epochs: success 0.597 -> 0.587 [0.099]; terminal error
      0.389 -> 0.393 [0.044]; J 0.482 -> 0.484 [0.024]; |V(x0, 0) - J|
      0.399 -> 0.400 [0.011]; loss_hjb 4.80e-4 -> 5.06e-4 [1.5e-4];
      loss_final 0.597 -> 0.595 [0.24].
    * dubins with the obstacle, 2500 epochs: the medians read the three
      seeds that train to a car that never moves in both nets (J 15.29);
      on the two that train, J 0.337 / 0.436 -> 0.308 / 1.226.

    lq1d's final loss_hjb is worse by more than the skip net's IQR, so a
    plain net does not replace this one.
    """
    return init(d + 1, hidden, 1, skip_connections=True, seed=seed)


# ---------------------------------------------------------------------------
# Forward / Jacobian / vjp
# ---------------------------------------------------------------------------


def _check_input(net: Mlp, x: Tensor) -> None:
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise dk.ShapeError(f"input shape {x.shape} is not (B, {net.in_dim})")


def _hidden_layer(net: Mlp, a: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, tuple]:
    """One hidden layer's activation and its derivative with respect to the
    pre-activation z = a @ w + b, as a pair (d, scale) for
    ``diffkit.chain``: the derivative is scale * d, or d if scale is None.

    z is a one-layer network node, which is linear.  The derivative of a
    tanh layer comes from its tanh node's output; that of a sine layer,
    sincos(omega0 z), is the cos node scaled by omega0.
    """
    act = net.activation
    z = dk.mlp(a, ((w, b),), act)
    if act == "tanh":
        t = dk.tanh(z)
        return t, (1.0 - t * t, None)
    if act == "sine":
        s, c = dk.sincos(net.omega0 * z)
        return s, (c, net.omega0)
    # a.e. constant step function, so it enters the tape as a constant
    return dk.relu(z), (dk.tensor((z.data > 0.0).astype(z.data.dtype)), None)


def _forward_core(net: Mlp, x, seed) -> tuple[Tensor, Tensor]:
    """Output y (B, out_dim) and, for a seed S of shape (r, out_dim) or
    (B, r, out_dim), S . dy/dx of shape (B, r, in_dim), accumulated from the
    output side: r is never larger than the hidden width, so GEMMs are cheap.
    """
    if net.output_transform is not None:
        raise ValueError("a net with an output box has no input derivatives")
    x = dk.tensor(x)
    _check_input(net, x)
    ws, bs = zip(*net.layers)

    a = x
    derivs: list[tuple] = []
    for i in range(len(ws) - 1):
        if net.skip_connections and i > 0:
            a = dk.concat([a, x], axis=-1)
        a, d = _hidden_layer(net, a, ws[i], bs[i])
        derivs.append(d)
    y = dk.mlp(a, ((ws[-1], bs[-1]),), net.activation)

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
    if g.ndim == 2:  # no hidden layer: the seed never met the batch
        g = g + np.zeros((x.shape[0],) + g.shape)
    return y, g if jac is None else jac + g


def forward(net: Mlp, x) -> Tensor:
    """Evaluate the network on a (B, in_dim) batch, as one tape node.
    Raises ValueError for a net with skip connections, which is evaluated
    with its derivatives (:func:`forward_with_jacobian`)."""
    if net.skip_connections:
        raise ValueError("a net with skip connections is evaluated with its derivatives, "
                         "not by forward")
    x = dk.tensor(x)
    _check_input(net, x)
    box = net.output_transform
    return dk.mlp(x, net.layers, net.activation, net.omega0,
                  None if box is None else (box.lo, box.hi))


def forward_with_jacobian(net: Mlp, x) -> tuple[Tensor, Tensor]:
    """Output (B, out_dim) and exact input-Jacobian (B, out_dim, in_dim),
    sharing one forward pass; the chain seeded with the identity.  Raises
    ValueError for a net with an output box."""
    return _forward_core(net, x, seed=np.eye(net.out_dim))


def vjp(net: Mlp, x, v) -> tuple[Tensor, Tensor]:
    """Output and the rows v_b^T . d(net)/d(input) at x_b, (B, in_dim) for
    v of shape (B, out_dim), sharing one forward pass; the chain seeded with
    v, so the full Jacobian is never materialized.  Raises ValueError for a
    net with an output box."""
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
    """Read a checkpoint, validated like a net that :func:`init` builds,
    with finite weights and a finite omega0 > 0; returns (net, metadata)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"corrupt checkpoint {path}: {e}")
    try:
        if doc["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(f"unsupported format_version {doc['format_version']} in {path}")
        layers = []
        for i, rec in enumerate(doc["layers"]):
            w = np.asarray(rec["weights"], dtype=np.float64)
            b = np.asarray(rec["bias"], dtype=np.float64)
            if w.ndim != 2 or list(w.shape) != list(rec["shape"]) or b.shape != (w.shape[1],):
                raise CheckpointError(f"layer shape mismatch in {path}")
            for name, arr in (("weights", w), ("bias", b)):
                if not np.all(np.isfinite(arr)):
                    raise CheckpointError(f"corrupt checkpoint {path}: layers[{i}].{name} "
                                          f"has non-finite entries")
            layers.append((w, b))
        omega0 = float(doc["omega0"])
        if not (math.isfinite(omega0) and omega0 > 0):
            raise CheckpointError(f"corrupt checkpoint {path}: omega0 must be finite and > 0, "
                                  f"got {omega0}")
        ot = doc["output_transform"]
        box = None
        if ot["kind"] == "tanh_box":
            box = TanhBox(
                lo=np.asarray(ot["lo"], dtype=np.float64),
                hi=np.asarray(ot["hi"], dtype=np.float64),
            )
        elif ot["kind"] != "identity":
            raise CheckpointError(f"unknown output transform '{ot['kind']}' in {path}")
        net = Mlp(
            layers=tuple(layers),
            activation=doc["activation"],
            omega0=omega0,
            skip_connections=doc["skip_connections"],
            output_transform=box,
        )
    except KeyError as e:
        raise CheckpointError(f"corrupt checkpoint {path}: missing field {e}")
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"corrupt checkpoint {path}: {e}")
    return net, doc.get("metadata", {})
