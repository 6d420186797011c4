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
"""

from __future__ import annotations

from typing import Callable, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .activations import Activation
from .network import (
    Network,
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
    w_in, b_in = second.layers[-1]
    w_out, b_out = first.layers[0]
    junction = (read_only(w_out @ w_in), read_only(w_out @ b_in + b_out))
    return Network(second.layers[:-1] + (junction,) + first.layers[1:])


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


def _block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrix of 2-D `blocks`, zero elsewhere; each block is copied in, never computed on."""
    out = np.zeros((sum(a.shape[0] for a in blocks), sum(a.shape[1] for a in blocks)))
    row = col = 0
    for a in blocks:
        out[row : row + a.shape[0], col : col + a.shape[1]] = a
        row, col = row + a.shape[0], col + a.shape[1]
    return out


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
    layers = []
    for k in range(depths.pop()):
        w = _block_diag([net.layers[k][0] for net in nets])
        b = np.concatenate([net.layers[k][1] for net in nets])
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
    unit test checks) to avoid materializing the quadratic-size intermediate.
    The sum of one operand is that operand.
    """
    if len(nets) == 0:
        raise ValueError("sum needs at least one operand")
    if len({depth(net) for net in nets}) != 1:
        raise ValueError("sum operands must share one depth")
    if len({input_dim(net) for net in nets}) != 1 or len({output_dim(net) for net in nets}) != 1:
        raise ValueError("sum operands must share input and output widths")
    if len(nets) == 1:
        return nets[0]
    n_layers = depth(nets[0])
    if n_layers == 1:
        w = nets[0].layers[0][0].copy()
        b = nets[0].layers[0][1].copy()
        for net in nets[1:]:
            w = w + net.layers[0][0]
            b = b + net.layers[0][1]
        return network((read_only(w), read_only(b)))
    first_w = np.vstack([net.layers[0][0] for net in nets])
    first_b = np.concatenate([net.layers[0][1] for net in nets])
    layers = [(first_w, first_b)]
    for k in range(1, n_layers - 1):
        layers.append(
            (
                _block_diag([net.layers[k][0] for net in nets]),
                np.concatenate([net.layers[k][1] for net in nets]),
            )
        )
    last_w = np.hstack([net.layers[-1][0] for net in nets])
    last_b = nets[0].layers[-1][1].copy()
    for net in nets[1:]:
        last_b = last_b + net.layers[-1][1]
    layers.append((last_w, last_b))
    return network(*((read_only(w), read_only(b)) for w, b in layers))


def scalar_mul(scale: float, net: Network) -> Network:
    """Network realizing x -> scale * net(x); composes a scaling layer on top."""
    out = output_dim(net)
    return compose(affine(read_only(float(scale) * np.eye(out)), read_only(np.zeros(out))), net)


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
    _check_identity_filler(filler, act)
    target = max(depth(net) for net in nets)
    return sum_same_depth([extend(target, filler, net) for net in nets])


def activation_wrapper(width: int) -> Network:
    """Two identity layers; realizes one elementwise application of the activation."""
    if width < 1:
        raise ValueError("width must be >= 1")
    eye = read_only(np.eye(width))
    zero = read_only(np.zeros(width))
    return network((eye, zero), (eye, zero))
