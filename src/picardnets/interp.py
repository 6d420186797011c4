"""One-hidden-layer networks that interpolate or approximate scalar functions.

`interp_net_relu` reproduces the piecewise-linear interpolant of given knot
values exactly on all of R (clamped to the boundary values outside the grid).
`interp_net_leaky` realizes the same function under a leaky slope, and
`interp_net_softplus` a smoothed variant whose distance to the piecewise
interpolant is controlled by the sharpness parameter. Each is one hidden
layer with a unit per knot (two under the leaky slope), built directly from
the knots' arrays, so a grid of 100,000 cells builds in milliseconds. The
`approx_net_*` constructors pick the grid from a Lipschitz bound and a
growth-weighted error target and return the network together with its
audited guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .compiler import PARAM_BOUND_LIMIT
from .network import Network, network, param_count


@dataclass(frozen=True)
class Grid:
    """Strictly increasing knot locations, at least two of them."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a grid needs at least two knots in a 1-D array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid knots must be finite")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid knots must be strictly increasing")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def cells(self) -> int:
        return self.points.size - 1


@dataclass(frozen=True)
class LipschitzFn:
    """A scalar function together with a declared Lipschitz constant."""

    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.lipschitz) or self.lipschitz < 0:
            raise ValueError("Lipschitz constant must be finite and >= 0")


@dataclass(frozen=True)
class ApproxGuarantee:
    """Audited size and accuracy data for an approximation network."""

    eps: float
    q: float
    b: float
    K: int
    width: int
    params: int


def _values_array(grid: Grid, values: object) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != grid.points.shape:
        raise ValueError(f"need one value per knot, got {vals.shape} for {grid.points.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("knot values must be finite")
    return vals


def lin_interp(grid: Grid, values: object, x: object) -> np.ndarray:
    """Piecewise-linear interpolant through the knots, clamped outside the grid."""
    vals = _values_array(grid, values)
    pts = grid.points
    xs = np.asarray(x, dtype=np.float64)
    cell = np.clip(np.searchsorted(pts, xs, side="right") - 1, 0, pts.size - 2)
    x0 = pts[cell]
    x1 = pts[cell + 1]
    frac = np.clip((xs - x0) / (x1 - x0), 0.0, 1.0)
    return vals[cell] + frac * (vals[cell + 1] - vals[cell])


def empirical_modulus(fn: Callable[[np.ndarray], np.ndarray], xs: object, h: float) -> float:
    """Largest |f(x_i) - f(x_j)| over sample pairs closer than h (a test oracle)."""
    xs = np.asarray(xs, dtype=np.float64)
    fx = np.asarray(fn(xs), dtype=np.float64)
    dx = np.abs(xs[:, None] - xs[None, :])
    df = np.abs(fx[:, None] - fx[None, :])
    mask = dx <= h
    return float(df[mask].max()) if np.any(mask) else 0.0


def _kink_coefficients(grid: Grid, values: object) -> np.ndarray:
    """Slope changes c_k of the clamped interpolant at each knot.

    c_k is the outgoing cell slope minus the incoming cell slope, with the two
    boundary knots using a flat (clamped) outer slope, so that
    f_0 + sum_k c_k * max(x - knot_k, 0) equals the interpolant everywhere.
    """
    vals = _values_array(grid, values)
    pts = grid.points
    k = np.arange(pts.size)
    up = np.minimum(k + 1, pts.size - 1)
    lo = np.maximum(k - 1, 0)
    right_slope = (vals[up] - vals[k]) / (pts[up] - pts[np.minimum(k, pts.size - 2)])
    left_slope = (vals[k] - vals[lo]) / (pts[np.maximum(k, 1)] - pts[lo])
    return right_slope - left_slope


def _one_hidden_layer(scales: np.ndarray, shifts: np.ndarray, heights: np.ndarray, offset: float) -> Network:
    """The (1, n, 1) net x -> offset + sum_k heights[k] * act(scales[k] * x + shifts[k]).

    Its entries are those of the sum of one composed unit per knot, bit for
    bit: each junction of that composition adds 0.0 to the shifts, the
    heights and the offset, which turns -0.0 into 0.0. An entry that is not
    finite (a kink slope or a sharpness past the float range) is a ValueError.
    """
    if not all(np.all(np.isfinite(part)) for part in (scales, shifts, heights, offset)):
        raise ValueError("interpolation net entries overflow: a kink slope or the sharpness is too large")
    return network((scales[:, None], shifts + 0.0), ((heights + 0.0)[None, :], [offset + 0.0]))


def interp_net_relu(grid: Grid, values: object) -> Network:
    """Width K+1 single-hidden-layer net; under max(x, 0) it realizes
    the clamped piecewise-linear interpolant exactly on all of R."""
    coeffs = _kink_coefficients(grid, values)
    vals = _values_array(grid, values)
    return _one_hidden_layer(np.ones(coeffs.size), -grid.points, coeffs, vals[0])


def interp_net_leaky(grid: Grid, values: object, alpha: float) -> Network:
    """Width 2(K+1) net realizing the same clamped interpolant under a leaky slope.

    Each ReLU kink max(z, 0) is rebuilt from the two-sided identity
    (alpha * a(-s z) + a(s z)) * s / (1 - alpha^2) with s = |1-alpha|/(1-alpha),
    which holds pointwise for every alpha >= 0 except 1. The units a(-s z) of
    every knot come first, then the units a(s z).
    """
    if alpha < 0 or alpha == 1.0 or not np.isfinite(alpha):
        raise ValueError("leaky slope must be finite, >= 0, and != 1")
    coeffs = _kink_coefficients(grid, values)
    vals = _values_array(grid, values)
    s = abs(1.0 - alpha) / (1.0 - alpha)
    denom = (1.0 - alpha) * (1.0 - alpha**2)
    pts = grid.points
    return _one_hidden_layer(
        np.repeat([-s, s], pts.size),
        np.concatenate([s * pts, -s * pts]),
        np.concatenate([coeffs * abs(1.0 - alpha) * alpha / denom, coeffs * abs(1.0 - alpha) / denom]),
        vals[0],
    )


def interp_net_softplus(grid: Grid, values: object, beta: float) -> Network:
    """Width K+1 net; under softplus it realizes the interpolant smoothed at
    scale 1/beta, within (log 2 / beta) * sum_k |c_k| of the exact one."""
    if beta <= 0 or not np.isfinite(beta):
        raise ValueError("sharpness must be finite and > 0")
    coeffs = _kink_coefficients(grid, values)
    vals = _values_array(grid, values)
    return _one_hidden_layer(np.full(coeffs.size, beta), -beta * grid.points, coeffs / beta, vals[0])


def _approx_grid(
    fn: LipschitzFn, q: float, eps: float, units_per_knot: int = 1
) -> tuple[Grid, np.ndarray, float, int]:
    """Pick the symmetric grid for a growth-weighted error target.

    The half-width b solves max(1, 2L) = eps * b**(q-1), so outside [-b, b] the
    clamped interpolant's error is absorbed by the weight max(1, |x|**q); the
    cell count K = max(1, ceil(2 L b / eps)) makes the on-grid error <= eps.
    q must be finite, and b and 2 L b / eps must be finite floats.

    The net built on the grid has `units_per_knot` (K + 1) hidden units and
    3 units_per_knot (K + 1) + 1 parameters; a grid whose net would exceed
    PARAM_BOUND_LIMIT parameters is a ValueError, raised before any knot is
    allocated.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("error target must lie in (0, 1]")
    if not (math.isfinite(q) and q > 1.0):
        raise ValueError(f"growth exponent must be finite and exceed 1, got {q}")
    L = fn.lipschitz
    try:
        b = (max(1.0, 2.0 * L) / eps) ** (1.0 / (q - 1.0))
    except OverflowError:  # a finite power past the float range
        b = math.inf
    cells = 2.0 * L * b / eps
    if not (math.isfinite(b) and math.isfinite(cells)):
        raise ValueError(
            f"grid half-width {b} or cell count {cells} is not finite at q={q}, eps={eps}, L={L}"
        )
    K = max(1, math.ceil(cells))
    params = 3 * units_per_knot * (K + 1) + 1
    if params > PARAM_BOUND_LIMIT:
        raise ValueError(
            f"{K} grid cells at q={q}, eps={eps}, L={L} give a net of {params} parameters, "
            f"over the limit of {PARAM_BOUND_LIMIT}"
        )
    pts = np.linspace(-b, b, K + 1)
    vals = np.asarray(fn.fn(pts), dtype=np.float64)
    return Grid(pts), vals, b, K


def approx_net_relu(fn: LipschitzFn, q: float, eps: float) -> tuple[Network, ApproxGuarantee]:
    """ReLU approximation with |net(x) - f(x)| <= eps * max(1, |x|**q) on all of R."""
    grid, vals, b, K = _approx_grid(fn, q, eps)
    net = interp_net_relu(grid, vals)
    return net, ApproxGuarantee(eps=eps, q=q, b=b, K=K, width=K + 1, params=param_count(net))


def approx_net_leaky(
    fn: LipschitzFn, q: float, eps: float, alpha: float
) -> tuple[Network, ApproxGuarantee]:
    """Leaky-slope approximation realizing exactly the ReLU interpolant; double width."""
    grid, vals, b, K = _approx_grid(fn, q, eps, units_per_knot=2)
    net = interp_net_leaky(grid, vals, alpha)
    return net, ApproxGuarantee(eps=eps, q=q, b=b, K=K, width=2 * (K + 1), params=param_count(net))


def approx_net_softplus(fn: LipschitzFn, q: float, eps: float) -> tuple[Network, ApproxGuarantee]:
    """Softplus approximation with |net(x) - f(x)| <= 2 * eps * max(1, |x|**q).

    The sharpness beta = max(2, 2 K^2 L log(2) / eps) keeps the smoothing gap
    to the exact interpolant below eps, which doubles the weighted error bound
    relative to the piecewise-linear constructions.
    """
    grid, vals, b, K = _approx_grid(fn, q, eps)
    beta = max(2.0, 2.0 * K * K * fn.lipschitz * math.log(2.0) / eps)
    net = interp_net_softplus(grid, vals, beta)
    return net, ApproxGuarantee(eps=eps, q=q, b=b, K=K, width=K + 1, params=param_count(net))
