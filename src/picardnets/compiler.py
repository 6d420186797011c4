"""Compile the multilevel Picard estimator into one explicit network.

For fixed level, branching factor, path, and evaluation time, the estimator's
value at x is an explicit finite expression in x: terminal-datum evaluations at
shifted points, plus nonlinearity evaluations of recursively defined lower
levels. The compiler reads the same sample tree the estimator reads
(`engine.draw_tree`) and turns each piece into a network (datum net composed
with a shift, nonlinearity net composed with a recursively compiled child), so
the whole estimate compiles into a single network via parallel sums with depth
padding. It makes no oracle draw of its own: the compiled network realizes
exactly the estimator's value function for the same tree, and its shape does
not depend on path, time, or seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .calculus import affine, compose, scalar_mul, sum_diff_depth, sum_same_depth
from .engine import MlpConfig, ProblemFns, Tree, draw_tree, mlp_eval
from .network import (
    Network,
    depth,
    dims,
    hidden_count,
    input_dim,
    max_width,
    output_dim,
    param_count,
    realize,
)
from .sampling import RandomOracle, ThetaPath, probe_point

PARAM_BOUND_LIMIT = 10**8


@dataclass(frozen=True)
class CompileInputs:
    """Everything the compiler needs besides the path and evaluation time.

    The datum network maps R^d to R, the nonlinearity network maps R to R, and
    the filler network must realize the scalar identity under `activation`
    with exactly one hidden layer (its width is the padding width used when
    summing subnetworks of different depths).
    """

    n: int
    M: int
    horizon: float
    d: int
    g_net: Network
    f_net: Network
    j_net: Network
    activation: Activation
    oracle: RandomOracle

    def __post_init__(self) -> None:
        if self.n < 0 or self.M < 1 or self.d < 1:
            raise ValueError("need level >= 0, branching >= 1, dimension >= 1")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and positive")
        if input_dim(self.g_net) != self.d or output_dim(self.g_net) != 1:
            raise ValueError(
                f"datum network must map R^{self.d} to R, has dims {dims(self.g_net)}"
            )
        if input_dim(self.f_net) != 1 or output_dim(self.f_net) != 1:
            raise ValueError(f"nonlinearity network must map R to R, has dims {dims(self.f_net)}")
        if (
            input_dim(self.j_net) != 1
            or output_dim(self.j_net) != 1
            or hidden_count(self.j_net) != 1
        ):
            raise ValueError(f"filler network must have dims (1, w, 1), has {dims(self.j_net)}")
        if self.oracle.d != self.d:
            raise ValueError(f"oracle dimension {self.oracle.d} != problem dimension {self.d}")

    @property
    def filler_width(self) -> int:
        return dims(self.j_net)[1]


def _width_base(inputs: CompileInputs) -> int:
    return max(inputs.filler_width, max_width(inputs.f_net), max_width(inputs.g_net))


def bound_depth(inputs: CompileInputs) -> int:
    return max(inputs.filler_width, depth(inputs.g_net)) + inputs.n * hidden_count(inputs.f_net)


def bound_width(inputs: CompileInputs) -> int:
    return _width_base(inputs) * (3 * inputs.M) ** inputs.n


def bound_params(inputs: CompileInputs) -> int:
    return 2 * bound_depth(inputs) * _width_base(inputs) ** 2 * (3 * inputs.M) ** (2 * inputs.n)


def compile_mlp(
    inputs: CompileInputs,
    theta: ThetaPath,
    t: float,
    allow_large: bool = False,
) -> Network:
    """Network whose realization under inputs.activation equals the estimator.

    The compiled network evaluates level inputs.n at time t along the given
    path: realize(compiled, act, x) == mlp_eval at (t, x) with the same oracle,
    exactly in exact arithmetic. Refuses to build when the a-priori parameter
    bound exceeds 10**8 unless `allow_large` is set.
    """
    cfg = MlpConfig(n=inputs.n, M=inputs.M, horizon=inputs.horizon, t=t, d=inputs.d)
    limit = bound_params(inputs)
    if limit > PARAM_BOUND_LIMIT and not allow_large:
        raise ValueError(
            f"parameter bound {limit} exceeds {PARAM_BOUND_LIMIT}; "
            "pass allow_large=True to compile anyway"
        )
    return _compile(draw_tree(cfg, theta, inputs.oracle), t, inputs)


def _compile(tree: Tree, t: float, inputs: CompileInputs) -> Network:
    shifts, levels = tree
    if not levels:
        return affine(np.zeros((1, inputs.d)), np.zeros(1))
    act = inputs.activation
    eye = np.eye(inputs.d)

    block_datum = sum_same_depth(
        [scalar_mul(1.0 / len(shifts), compose(inputs.g_net, affine(eye, shift))) for shift in shifts]
    )

    # f of the level-i children, and (for i >= 1) minus f of the level-(i-1)
    # children, one depth-padded sum per level; level 0 has no subtracted term
    level_terms = []
    below_terms = []
    for branches in levels:
        inner = []
        inner_below = []
        for s, shift, child, below in branches:
            shift_net = affine(eye, shift)
            inner.append(compose(compose(inputs.f_net, _compile(child, s, inputs)), shift_net))
            if below is not None:
                inner_below.append(
                    compose(compose(inputs.f_net, _compile(below, s, inputs)), shift_net)
                )
        scale = (inputs.horizon - t) / len(branches)
        level_terms.append(scalar_mul(scale, sum_diff_depth(inner, inputs.j_net, act)))
        if inner_below:
            below_terms.append(scalar_mul(-scale, sum_diff_depth(inner_below, inputs.j_net, act)))
    blocks = [block_datum, sum_diff_depth(level_terms, inputs.j_net, act)]
    if below_terms:
        blocks.append(sum_diff_depth(below_terms, inputs.j_net, act))
    return sum_diff_depth(blocks, inputs.j_net, act)


@dataclass(frozen=True)
class SizeReport:
    """Measured shape of a compiled network next to its a-priori bounds."""

    dims: tuple[int, ...]
    depth: int
    max_width: int
    params: int
    bound_depth: int
    bound_width: int
    bound_params: int

    def within_bounds(self) -> bool:
        return (
            self.depth <= self.bound_depth
            and self.max_width <= self.bound_width
            and self.params <= self.bound_params
        )

    def to_json_obj(self) -> dict:
        return {
            "dims": list(self.dims),
            "depth": self.depth,
            "max_width": self.max_width,
            "params": self.params,
            "bound_depth": self.bound_depth,
            "bound_width": self.bound_width,
            "bound_params": self.bound_params,
        }


def size_report(inputs: CompileInputs, compiled: Network) -> SizeReport:
    return SizeReport(
        dims=dims(compiled),
        depth=depth(compiled),
        max_width=max_width(compiled),
        params=param_count(compiled),
        bound_depth=bound_depth(inputs),
        bound_width=bound_width(inputs),
        bound_params=bound_params(inputs),
    )


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    max_residual: float
    tol: float
    probe_count: int
    worst_probe: int

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "probe_count": self.probe_count,
            "worst_probe": self.worst_probe,
        }


def verify_equivalence(
    inputs: CompileInputs,
    theta: ThetaPath,
    t: float,
    probes: int = 20,
    tol: float = 1.0e-8,
    probe_low: float = -3.0,
    probe_high: float = 3.0,
    allow_large: bool = False,
) -> EquivalenceReport:
    """Compare the compiled network against the estimator on oracle-drawn probes.

    Both sides read one drawn sample tree: the compiler builds its network
    from `draw_tree`, and the estimator evaluates the same tree at all probes
    in one `mlp_eval` call, with realize() closures of the very datum and
    nonlinearity networks the compiler assembles. The probe points come from a
    stream whose kind tag never collides with the estimator's draws. The
    residual is |compiled(x) - estimate| / (1 + |estimate|). At least one
    probe is required: comparing nothing proves nothing.
    """
    if probes < 1:
        raise ValueError(f"need at least one probe, got {probes}")
    compiled = compile_mlp(inputs, theta, t, allow_large=allow_large)
    act = inputs.activation
    fns = ProblemFns(
        f=lambda v: float(realize(inputs.f_net, act, np.array([v]))[0]),
        g=lambda pt: float(realize(inputs.g_net, act, pt)[0]),
    )
    cfg = MlpConfig(n=inputs.n, M=inputs.M, horizon=inputs.horizon, t=t, d=inputs.d)
    xs = np.array([probe_point(inputs.oracle, idx, probe_low, probe_high) for idx in range(probes)])
    xs = xs.reshape(-1, inputs.d)
    estimates = mlp_eval(cfg, xs, theta, fns, inputs.oracle)
    residuals = np.abs(realize(compiled, act, xs)[:, 0] - estimates) / (1.0 + np.abs(estimates))
    worst_idx = int(np.argmax(residuals))
    worst = float(residuals[worst_idx])
    return EquivalenceReport(
        passed=bool(worst <= tol),
        max_residual=worst,
        tol=tol,
        probe_count=probes,
        worst_probe=worst_idx,
    )


def prune_zero_blocks(net: Network) -> Network:
    """Drop hidden units whose outgoing weights are all zero.

    Such units contribute exactly zero downstream, so the realized function is
    unchanged for every activation and input (dropping zero summands can still
    reorder the remaining float additions, moving results by an ulp); the
    parameter count can only shrink. One sweep from the last hidden layer down
    catches cascades (removing a unit can expose an all-zero column one layer
    below). Input and output widths are never touched, and a layer keeps at
    least one unit.
    """
    layers = [(w.copy(), b.copy()) for w, b in net.layers]
    for k in range(len(layers) - 2, -1, -1):
        w_next = layers[k + 1][0]
        keep = np.any(w_next != 0.0, axis=0)
        if not np.any(keep):
            keep[0] = True
        if np.all(keep):
            continue
        w_k, b_k = layers[k]
        layers[k] = (w_k[keep], b_k[keep])
        layers[k + 1] = (w_next[:, keep], layers[k + 1][1])
    return Network(tuple(layers))


def report_json(report: SizeReport | EquivalenceReport) -> str:
    return json.dumps(report.to_json_obj(), sort_keys=True, allow_nan=False)
