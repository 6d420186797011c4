"""Small fixed networks that realize the scalar identity under each activation.

These are the depth fillers used when summing networks of different depths:
each has exactly one hidden layer, maps scalars to scalars, and realizes
x -> x exactly (in exact arithmetic) under its target activation.
"""

from __future__ import annotations

import numpy as np

from .activations import Activation
from .calculus import affine, compose, scalar_mul, sum_same_depth
from .network import Network, network

_CONDITION_LIMIT = 1.0e12


def monomial_net(gamma: int) -> Network:
    """Two-layer width-2 block; under x -> max(x, 0)**gamma it realizes x**gamma.

    Layers: x -> (x, -x) -> first + (-1)**gamma * second. Under a leaky slope
    alpha it realizes (1 + alpha) * x when gamma = 1, and under softplus the
    gamma = 1 block realizes x exactly (log(1+e^x) - log(1+e^-x) = x).
    """
    if int(gamma) != gamma or gamma < 0:
        raise ValueError("monomial exponent must be a nonnegative integer")
    sign = -1.0 if gamma % 2 else 1.0
    return network(([[1.0], [-1.0]], [0.0, 0.0]), ([[1.0, sign]], [0.0]))


def identity_leaky(alpha: float) -> Network:
    """Identity filler for leaky slopes alpha >= 0, alpha != 1 (alpha = 0 is plain max)."""
    Activation("leaky_relu", alpha=alpha)  # validates the slope range
    return scalar_mul(1.0 / (1.0 + alpha), monomial_net(1))


def identity_softplus() -> Network:
    return monomial_net(1)


def _shift_coefficients(gamma: int, nodes: np.ndarray) -> tuple[float, np.ndarray]:
    """Solve for c_0, c_1..c_gamma with c_0 + sum_i c_i (x + b_i)**gamma = x.

    Matching powers of x gives gamma + 1 equations: sum_i c_i b_i**k = 0 for
    k = 0..gamma-2, equals 1/gamma at k = gamma - 1, and c_0 absorbs the
    constant term at k = gamma. Distinct nodes make the system nonsingular
    (Vandermonde); an infinity-norm condition estimate above 1e12 is rejected.
    """
    m = gamma + 1
    a = np.zeros((m, m))
    rhs = np.zeros(m)
    for k in range(m):
        if k == gamma:
            a[k, 0] = 1.0
        a[k, 1:] = nodes**k
        if k == gamma - 1:
            rhs[k] = 1.0 / gamma
    cond = np.linalg.cond(a, np.inf)
    if not np.isfinite(cond) or cond > _CONDITION_LIMIT:
        raise ValueError(
            f"shift nodes {nodes.tolist()} give an ill-conditioned system (cond ~ {cond:.3e})"
        )
    sol = np.linalg.solve(a, rhs)
    return float(sol[0]), sol[1:]


def identity_repu(gamma: int) -> Network:
    """Identity filler under x -> max(x, 0)**gamma; width 2*gamma, one hidden layer.

    Sums gamma monomial blocks shifted by the nodes 1..gamma, with coefficients
    from the power-matching system, then adds the constant c_0. From gamma = 8
    on, that system is ill-conditioned and the call is a ValueError.
    """
    if int(gamma) != gamma or gamma < 2:
        raise ValueError("repu identity needs an integer exponent >= 2")
    nodes = np.arange(1, gamma + 1, dtype=np.float64)
    c0, coeffs = _shift_coefficients(gamma, nodes)
    terms = [
        scalar_mul(c, compose(monomial_net(gamma), affine([[1.0]], [b])))
        for c, b in zip(coeffs, nodes)
    ]
    return compose(affine([[1.0]], [c0]), sum_same_depth(terms))


def default_identity(act: Activation) -> Network:
    """The identity filler conventionally paired with each activation family."""
    if act.kind == "relu":
        return identity_leaky(0.0)
    if act.kind == "leaky_relu":
        return identity_leaky(act.alpha)
    if act.kind == "softplus":
        return identity_softplus()
    return identity_repu(act.gamma)
