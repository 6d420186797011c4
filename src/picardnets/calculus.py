"""Structural operations on networks.

Every operation here builds a new network whose realized function relates to
the operands' realized functions by an exact identity (composition, sums of
equal- or different-depth operands, scalar multiples, parallel stacking).
Depth and width bookkeeping is deterministic: the shape of every result is a
function of the operand shapes alone. Every array an operation allocates is
marked read-only before the result is built, so `Network` adopts it without a
copy, and layers carried over from an operand are shared with it. An
operation that would only restack or re-multiply one operand by an identity
returns that operand (or its layers) unchanged, so no unit is held twice.

A sum is built in pieces (`_Sum`) and its stacked layers are written once by
`_write`; the compiler composes, shifts and sums such pieces all the way up
and writes only the root, so no intermediate sum is ever stacked. Every
float operation acts on the same arrays as on the stacked network, so the
written network is the same to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .activations import Activation
from .network import (
    Layer,
    Network,
    _zeros,
    depth,
    dims,
    hidden_count,
    input_dim,
    network,
    output_dim,
    read_only,
    realize,
)


def affine(w: object, b: object) -> Network:
    """Single-layer network realizing x -> w @ x + b (no activation is applied)."""
    return network((w, b))


def compose(first: Network, second: Network) -> Network:
    """Network realizing x -> first(second(x)).

    The junction merges the first layer of `first` into the last layer of
    `second` (one affine map composed with another is affine), so the result
    has depth depth(first) + depth(second) - 1 and hidden widths
    (hidden of second) ++ (hidden of first).
    """
    if input_dim(first) != output_dim(second):
        raise ValueError(
            f"composition mismatch: outer expects {input_dim(first)} inputs, "
            f"inner produces {output_dim(second)}"
        )
    return Network(second.layers[:-1] + _junction(first, second.layers[-1]))


def _junction(first: Network, last: Layer) -> tuple[Layer, ...]:
    """The layers of `first` on top of a network whose last layer is `last`: the two
    affine maps merged into one layer, then the rest of `first`."""
    w_in, b_in = last
    w_out, b_out = first.layers[0]
    return ((read_only(w_out @ w_in), read_only(w_out @ b_in + b_out)),) + first.layers[1:]


def shift_input(net: Network, shift: np.ndarray) -> Network:
    """Network realizing x -> net(x + shift).

    Only the first bias changes, to w @ shift + b, which is what composing
    with affine(eye, shift) computes; the first weight array is shared with
    `net`, not multiplied by the identity.
    """
    (w, b), rest = net.layers[0], net.layers[1:]
    if np.shape(shift) != (input_dim(net),):
        raise ValueError(f"shift of shape {np.shape(shift)} does not match input width {input_dim(net)}")
    return Network(((w, read_only(w @ shift + b)),) + rest)


def identity_affine(n: int) -> Network:
    """Single affine layer realizing the identity on R^n."""
    return affine(read_only(np.eye(n)), read_only(np.zeros(n)))


def power(net: Network, n: int) -> Network:
    """n-fold iterated composition of a square-interface network with itself.

    The zeroth power is the affine identity on the output space; the depth of
    the n-th power is n * (depth - 1) + 1.
    """
    if input_dim(net) != output_dim(net):
        raise ValueError("only networks with equal input and output width can be iterated")
    if n < 0:
        raise ValueError("power must be >= 0")
    result = identity_affine(output_dim(net))
    for _ in range(n):
        result = compose(net, result)
    return result


def extend(target_depth: int, filler: Network, net: Network) -> Network:
    """Pad `net` to exactly `target_depth` layers by composing powers of `filler` on top.

    `filler` must have a square interface matching the output width of `net`,
    and exactly one hidden layer whenever padding is actually needed, so the
    result's depth is exactly `target_depth`. When `filler` realizes the
    identity, the extension leaves the realized function unchanged. At gap 0
    `net` itself is returned: composing the affine identity on top would only
    copy its last layer.
    """
    gap = target_depth - depth(net)
    if gap < 0:
        raise ValueError(f"cannot extend a depth-{depth(net)} network down to depth {target_depth}")
    if output_dim(net) != input_dim(filler) or input_dim(filler) != output_dim(filler):
        raise ValueError("extension filler must be square on the network's output width")
    if gap == 0:
        return net
    if hidden_count(filler) != 1:
        raise ValueError("extension filler must have exactly one hidden layer")
    return compose(power(filler, gap), net)


@dataclass(frozen=True, eq=False)
class _Sum:
    """A sum of equal-depth networks (depth >= 2), kept in pieces until `_write` lays it out.

    Below its last layer a stacked sum only copies its operands: their first
    weights one under the other, their middle layers block-diagonal. Those
    layers stay with the operands, as `bodies`: each operand without its last
    layer, either a tuple of layers (a `Network`'s, with its first bias None)
    or a `_Sum` (with `first_b` None). Every float operation acts on what the
    sum holds itself, the same arrays the stacked network holds there:
    - `first_b`, the first layer's bias for all rows, which `_shift` moves
      (None inside another sum, which holds it);
    - `head`: the joint layer (the operands' last weights side by side, their
      biases summed), then the layers composed on top of it.
    """

    bodies: tuple
    body_dims: tuple[int, ...]  # the widths of the layers below the head
    first_b: np.ndarray | None
    head: tuple[Layer, ...]

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return self.body_dims + tuple(w.shape[0] for w, _ in self.head)


def _dims(x: Network | _Sum) -> tuple[int, ...]:
    return x.dims if isinstance(x, _Sum) else dims(x)


def _shape(x: _Sum | tuple[Layer, ...], k: int) -> tuple[int, int]:
    return (x.dims[k + 1], x.dims[k]) if isinstance(x, _Sum) else x[k][0].shape


def _place(x: _Sum | tuple[Layer, ...], k: int, w: np.ndarray, b: np.ndarray | None, row: int, col: int) -> None:
    """Copy layer k of `x` into `w` from (row, col) on, and its bias into `b` from row on.

    Biases that a sum holds for its operands (None in the operands) are not
    copied, nor any bias when `b` is None.
    """
    if isinstance(x, _Sum):
        body = len(x.body_dims) - 1
        if k < body:
            _stack(x.bodies, k, w, b, row, col, shared_input=k == 0)
            return
        lw, lb = x.head[k - body]
    else:
        lw, lb = x[k]
    w[row : row + lw.shape[0], col : col + lw.shape[1]] = lw
    if b is not None and lb is not None:
        b[row : row + lb.shape[0]] = lb


def _stack(
    pieces: Sequence, k: int, w: np.ndarray, b: np.ndarray | None, row: int, col: int, shared_input: bool
) -> None:
    """Copy layer k of each piece, one under the other: in the same input columns
    when `shared_input` (first layers of a sum), block-diagonal otherwise."""
    for piece in pieces:
        _place(piece, k, w, b, row, col)
        rows, cols = _shape(piece, k)
        row += rows
        if not shared_input:
            col += cols


def _write(x: Network | _Sum) -> Network:
    """The network `x` stands for, each stacked layer allocated once and filled in.

    The first bias and the head are the sum's own arrays, adopted as they are.
    Each stacked weight matrix starts as `network._zeros`, with huge-page
    advice off, and only its operands' blocks are written: the zeros between
    the blocks, most of a compiled layer, never become resident (unless the
    kernel backs every large array with huge pages; see `network`).
    """
    if isinstance(x, Network):
        return x
    layers = []
    for k in range(len(x.body_dims) - 1):
        w = _zeros((x.dims[k + 1], x.dims[k]))
        b = x.first_b if k == 0 else np.empty(x.dims[k + 1])
        _place(x, k, w, None if k == 0 else b, 0, 0)
        layers.append((read_only(w), read_only(b)))
    return Network(tuple(layers) + x.head)


def _sum(nets: Sequence[Network | _Sum]) -> Network | _Sum:
    """sum_same_depth of operands already checked, in pieces.

    One operand is returned as it is, and depth-1 operands, whose single
    layers add up, are summed at once.
    """
    if len(nets) == 1:
        return nets[0]
    if len(_dims(nets[0])) == 2:
        w = nets[0].layers[0][0].copy()
        b = nets[0].layers[0][1].copy()
        for net in nets[1:]:
            w = w + net.layers[0][0]
            b = b + net.layers[0][1]
        return network((read_only(w), read_only(b)))
    bodies, first_b, last = [], [], []
    # each operand's layers but the last go into the bodies: their widths add up
    widths = [sum(layer) for layer in zip(*(_dims(net)[1:-1] for net in nets))]
    for net in nets:
        if isinstance(net, Network):
            (w0, b0), *middle, top = net.layers
            bodies.append(((w0, None), *middle))
            first_b.append(b0)
            last.append(top)
        else:
            if len(net.head) == 1:  # a sum of sums stacks the inner operands directly
                bodies.extend(net.bodies)
            else:
                bodies.append(replace(net, first_b=None, head=net.head[:-1]))
            first_b.append(net.first_b)
            last.append(net.head[-1])
    last_b = last[0][1].copy()
    for _, b in last[1:]:
        last_b = last_b + b
    joint = (read_only(np.hstack([w for w, _ in last])), read_only(last_b))
    return _Sum(tuple(bodies), (_dims(nets[0])[0], *widths), read_only(np.concatenate(first_b)), (joint,))


def _shift(x: Network | _Sum, shift: np.ndarray) -> Network | _Sum:
    """shift_input of `x`: the stacked first weights are written for the product and dropped."""
    if isinstance(x, Network):
        return shift_input(x, shift)
    w = np.zeros((x.dims[1], x.dims[0]))
    _place(x, 0, w, None, 0, 0)
    return replace(x, first_b=read_only(w @ shift + x.first_b))


def _compose(first: Network, x: Network | _Sum) -> Network | _Sum:
    """compose(first, x); on a sum it acts on the head alone."""
    if isinstance(x, Network):
        return compose(first, x)
    return replace(x, head=x.head[:-1] + _junction(first, x.head[-1]))


def _offset(x: Network | _Sum, bias: float) -> Network | _Sum:
    """`x` with `bias` added to its output."""
    layers = x.layers if isinstance(x, Network) else x.head
    w, b = layers[-1]
    layers = layers[:-1] + ((w, read_only(b + bias)),)
    return Network(layers) if isinstance(x, Network) else replace(x, head=layers)


def parallelize(nets: Sequence[Network]) -> Network:
    """Stack equal-depth networks into one block-diagonal network.

    The result realizes (x_1, ..., x_n) -> (f_1(x_1), ..., f_n(x_n)) with each
    layer's weights the block diagonal of the operands' weights and biases
    concatenated.
    """
    if len(nets) == 0:
        raise ValueError("parallelize needs at least one network")
    depths = {depth(net) for net in nets}
    if len(depths) != 1:
        raise ValueError(f"parallelize needs equal depths, got {sorted(depths)}")
    widths = [sum(layer) for layer in zip(*(dims(net) for net in nets))]
    layers = []
    for k in range(depths.pop()):
        w, b = np.zeros((widths[k + 1], widths[k])), np.empty(widths[k + 1])
        _stack([net.layers for net in nets], k, w, b, 0, 0, shared_input=False)
        layers.append((read_only(w), read_only(b)))
    return network(*layers)


def fan_in(width: int, copies: int) -> Network:
    """Affine map (x_1, ..., x_n) -> x_1 + ... + x_n on blocks of the given width."""
    if width < 1 or copies < 1:
        raise ValueError("fan_in needs width >= 1 and copies >= 1")
    return affine(read_only(np.hstack([np.eye(width)] * copies)), read_only(np.zeros(width)))


def fan_out(width: int, copies: int) -> Network:
    """Affine map x -> (x, ..., x) with the given number of copies."""
    if width < 1 or copies < 1:
        raise ValueError("fan_out needs width >= 1 and copies >= 1")
    return affine(read_only(np.vstack([np.eye(width)] * copies)), read_only(np.zeros(width * copies)))


def sum_same_depth(nets: Sequence[Network]) -> Network:
    """Sum of equal-depth networks with shared input and output widths.

    The result is the composition fan_in o parallelize(nets) o fan_out; since
    the fan matrices are stacked identity blocks, those junction products are
    exact picks and sums, and the composition collapses to: first layers
    stacked vertically, middle layers block-diagonal, last layers stacked
    horizontally with biases summed. This function builds that collapsed form
    directly (it is value-identical to composing the three factors, which a
    unit test checks) to avoid materializing the quadratic-size intermediate,
    and writes each stacked layer once (`_write`). The sum of one operand is
    that operand.
    """
    if len(nets) == 0:
        raise ValueError("sum needs at least one operand")
    if len({depth(net) for net in nets}) != 1:
        raise ValueError("sum operands must share one depth")
    if len({input_dim(net) for net in nets}) != 1 or len({output_dim(net) for net in nets}) != 1:
        raise ValueError("sum operands must share input and output widths")
    return _write(_sum(nets))


def scalar_mul(scale: float, net: Network) -> Network:
    """Network realizing x -> scale * net(x); composes a scaling layer on top."""
    return _scaled(scale, net)


def _scaled(scale: float, x: Network | _Sum) -> Network | _Sum:
    out = _dims(x)[-1]
    return _compose(affine(read_only(float(scale) * np.eye(out)), read_only(np.zeros(out))), x)


def linear_combination_same(
    weights: Sequence[float],
    input_scales: Sequence[float],
    input_shifts: Sequence[object],
    nets: Sequence[Network],
) -> Network:
    """Sum of h_k * net_k(s_k * x + shift_k) over equal-shape operands.

    All operands must share dims; the result keeps the common hidden shape
    with widths summed, exactly like `sum_same_depth`.
    """
    if not (len(weights) == len(input_scales) == len(input_shifts) == len(nets)):
        raise ValueError("weights, scales, shifts, and nets must have equal lengths")
    if len(nets) == 0:
        raise ValueError("linear combination needs at least one term")
    if len({dims(net) for net in nets}) != 1:
        raise ValueError("linear combination operands must share dims")
    d_in = input_dim(nets[0])
    terms = []
    for h, s, shift, net in zip(weights, input_scales, input_shifts, nets):
        shift = np.broadcast_to(np.asarray(shift, dtype=np.float64), (d_in,))
        shifted = compose(net, affine(read_only(float(s) * np.eye(d_in)), shift))
        terms.append(scalar_mul(h, shifted))
    return sum_same_depth(terms)


_GUARD_PROBES = np.linspace(-1.0e6, 1.0e6, 32)
# filler -> the activations under which it passed the check; a Network is immutable
_IDENTITY_FILLERS: WeakKeyDictionary[Network, set] = WeakKeyDictionary()


def _check_identity_filler(filler: Network, act: Activation | Callable) -> None:
    """Reject fillers that do not realize the identity on scalars.

    Tolerance scales as (1 + |x|)^g with g the polynomial degree of the
    activation (the exponent for repu, 1 otherwise): algebraically exact
    identity nets accumulate float error at that scale near |x| = 1e6, while
    structurally wrong fillers deviate with O(1) constants at the same scale.
    A pair that passed once is not probed again.
    """
    if act in _IDENTITY_FILLERS.get(filler, ()):
        return
    if input_dim(filler) != 1 or output_dim(filler) != 1:
        raise ValueError("depth filler must map scalars to scalars")
    if hidden_count(filler) != 1:
        raise ValueError("depth filler must have exactly one hidden layer")
    deg = act.gamma if isinstance(act, Activation) and act.kind == "repu" else 1
    got = realize(filler, act, _GUARD_PROBES[:, None])[:, 0]
    tol = 1.0e-8 * (1.0 + np.abs(_GUARD_PROBES)) ** deg
    bad = np.abs(got - _GUARD_PROBES) > tol
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"depth filler does not realize the identity: at x={_GUARD_PROBES[i]!r} "
            f"it returns {got[i]!r}"
        )
    _IDENTITY_FILLERS.setdefault(filler, set()).add(act)


def sum_diff_depth(
    nets: Sequence[Network],
    filler: Network,
    act: Activation | Callable,
) -> Network:
    """Sum of networks with possibly different depths.

    Every operand is first extended to the maximum operand depth with powers
    of `filler` (which must realize the identity under `act`, checked on probe
    points), then the equal-depth sum applies. Operands must share input
    width, have scalar output, and match the filler's interface.
    """
    if len(nets) == 0:
        raise ValueError("sum needs at least one operand")
    if len({input_dim(net) for net in nets}) != 1:
        raise ValueError("sum operands must share input width")
    for net in nets:
        if output_dim(net) != input_dim(filler):
            raise ValueError("operand output width must match the filler interface")
    return _write(_padded_sum(nets, filler, act))


def _padded_sum(nets: Sequence[Network | _Sum], filler: Network, act: Activation | Callable) -> Network | _Sum:
    """sum_diff_depth of operands already checked, in pieces."""
    _check_identity_filler(filler, act)
    target = max(len(_dims(net)) - 1 for net in nets)
    gaps = [target - (len(_dims(net)) - 1) for net in nets]
    return _sum([_compose(power(filler, gap), net) if gap else net for gap, net in zip(gaps, nets)])


def activation_wrapper(width: int) -> Network:
    """Two identity layers; realizes one elementwise application of the activation."""
    if width < 1:
        raise ValueError("width must be >= 1")
    eye = read_only(np.eye(width))
    zero = read_only(np.zeros(width))
    return network((eye, zero), (eye, zero))
