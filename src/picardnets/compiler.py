"""Compile the multilevel Picard estimator into one explicit network.

For fixed level, branching factor, path, and evaluation time, the estimator's
value at x is an explicit finite expression in x: terminal-datum evaluations at
shifted points, plus nonlinearity evaluations of recursively defined lower
levels. The compiler reads the same sample tree the estimator reads
(`engine.draw_tree`) and turns each piece into a network (datum net composed
with a shift, nonlinearity net composed with a recursively compiled child), so
the whole estimate compiles into a single network via parallel sums with depth
padding. It makes no oracle draw of its own: the compiled network realizes
exactly the estimator's value function for the same tree.

It builds neither dead units (outgoing weights all zero) nor f units fed by
the zero network. The operands' dead units are pruned first; f of a level-0
recursion (identically 0) is f(0), so tier 0 and tier 1's subtracted terms
are one output bias per node, as in `mlp_eval`. The tree holds no draws for
them: tier 0 is only its scale, with one f(0) per datum shift, and tier 1's
`below` is None. A tier i >= 1 that is exactly 0 (scale 0 at t = horizon, or
f constant) gets no units. The shape ignores path, seed and t < horizon and
depends on the operands' live units; a constant f gives the same datum-only
shape as t = horizon.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

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
    read_only,
    realize,
)
from .sampling import RandomOracle, ThetaPath, probe_point

PARAM_BOUND_LIMIT = 10**8
PROBE_BOX = (-3.0, 3.0)  # verify_equivalence draws its probes from this cube


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
    exactly in exact arithmetic. Level-0 terms are one output bias per node
    (module docstring); the shape ignores path, seed and t < horizon, and a
    constant f gives the same datum-only shape as t = horizon.
    Refuses to build when the a-priori parameter bound exceeds 10**8 unless
    `allow_large` is set.
    """
    cfg = MlpConfig(n=inputs.n, M=inputs.M, horizon=inputs.horizon, t=t, d=inputs.d)
    limit = bound_params(inputs)
    if limit > PARAM_BOUND_LIMIT and not allow_large:
        raise ValueError(
            f"parameter bound {limit} exceeds {PARAM_BOUND_LIMIT}; "
            "pass allow_large=True to compile anyway"
        )
    # the operands' units that feed nothing would be copied into every term
    f_net, g_net = prune_zero_blocks(inputs.f_net), prune_zero_blocks(inputs.g_net)
    inputs = replace(inputs, f_net=f_net, g_net=g_net)
    f_zero = float(realize(f_net, inputs.activation, np.zeros((1, 1)))[0, 0])
    f_constant = not all(np.any(w) for w, _ in f_net.layers)  # f(x) == f(0)
    return _compile(draw_tree(cfg, theta, inputs.oracle), inputs, f_zero, f_constant)


def _compile(tree: Tree, inputs: CompileInputs, f_zero: float, f_constant: bool) -> Network:
    # a tree drawn for one oracle: every seed axis has length 1
    shifts, tiers = tree
    if not tiers:  # only the root, for n = 0: no level-0 tree below it is compiled
        return affine(np.zeros((1, inputs.d)), np.zeros(1))
    act = inputs.activation
    eye = read_only(np.eye(inputs.d))  # shared by every shift layer

    def f_term(node: Tree, shift: np.ndarray) -> Network:
        return compose(compose(inputs.f_net, _compile(node, inputs, f_zero, f_constant)), affine(eye, shift))

    block_datum = sum_same_depth(
        [
            scalar_mul(1.0 / len(shifts), compose(inputs.g_net, affine(eye, shift)))
            for shift in shifts[:, 0, 0]
        ]
    )

    # f of a level-0 recursion, which is identically 0, is f(0) (as in mlp_eval):
    # tier 0, which holds no branches, adds scale * len(shifts) * f(0), and tier 1,
    # whose `below` is None, subtracts scale * len(branches) * f(0), both in the
    # output bias. The rest are depth-padded sums of f terms; a tier i >= 1 is
    # exactly 0, and gets no units, at scale 0 (t = horizon) or constant f.
    bias = tiers[0][0][0] * len(shifts) * f_zero
    level_terms, below_terms = [], []
    for i, (scale, branches) in enumerate(tiers[1:], start=1):
        if scale[0] == 0.0 or f_constant:
            continue
        inner = [f_term(child, shift[0]) for shift, child, _ in branches]
        level_terms.append(scalar_mul(scale[0], sum_diff_depth(inner, inputs.j_net, act)))
        if i == 1:
            bias -= scale[0] * len(branches) * f_zero
        else:
            inner_below = [f_term(below, shift[0]) for shift, _, below in branches]
            below_terms.append(scalar_mul(-scale[0], sum_diff_depth(inner_below, inputs.j_net, act)))
    blocks = [block_datum] + [
        sum_diff_depth(terms, inputs.j_net, act) for terms in (level_terms, below_terms) if terms
    ]
    net = sum_diff_depth(blocks, inputs.j_net, act)
    w, b = net.layers[-1]
    return Network(net.layers[:-1] + ((w, read_only(b + bias)),))


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
        return {**asdict(self), "dims": list(self.dims)}


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
        return asdict(self)


def verify_equivalence(
    inputs: CompileInputs,
    theta: ThetaPath,
    t: float,
    probes: int = 20,
    tol: float = 1.0e-8,
    allow_large: bool = False,
    *,
    compiled: Network | None = None,
) -> EquivalenceReport:
    """Compare the compiled network against the estimator on oracle-drawn probes.

    Both sides read one drawn sample tree: the compiler builds its network
    from `draw_tree`, and the estimator evaluates the same tree at all probes
    in one `mlp_eval` call, with batched realize() closures of the datum and
    nonlinearity networks the compiler assembles. The probe points come from a
    stream whose kind tag never collides with the estimator's draws. The
    residual is |compiled(x) - estimate| / (1 + |estimate|). At least one
    probe is required: comparing nothing proves nothing. A network already
    compiled from `inputs`, `theta` and `t` may be passed as `compiled`; it is
    then checked instead of a fresh compile, and `allow_large` plays no part.
    """
    if probes < 1:
        raise ValueError(f"need at least one probe, got {probes}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    if compiled is None:
        compiled = compile_mlp(inputs, theta, t, allow_large=allow_large)
    elif input_dim(compiled) != inputs.d or output_dim(compiled) != 1:
        raise ValueError(f"compiled network must map R^{inputs.d} to R, has dims {dims(compiled)}")
    act = inputs.activation
    fns = ProblemFns(
        f=lambda v: realize(inputs.f_net, act, v.reshape(-1, 1)).reshape(v.shape),
        g=lambda pts: realize(inputs.g_net, act, pts)[:, 0],
    )
    cfg = MlpConfig(n=inputs.n, M=inputs.M, horizon=inputs.horizon, t=t, d=inputs.d)
    xs = np.array([probe_point(inputs.oracle, idx, *PROBE_BOX) for idx in range(probes)])
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
    layers = list(net.layers)
    for k in range(len(layers) - 2, -1, -1):
        w_next = layers[k + 1][0]
        keep = np.any(w_next != 0.0, axis=0)
        if not np.any(keep):
            keep[0] = True
        if np.all(keep):
            continue
        w_k, b_k = layers[k]
        # fresh owned arrays: marked read-only, Network adopts them uncopied
        layers[k] = (read_only(w_k[keep]), read_only(b_k[keep]))
        layers[k + 1] = (read_only(w_next.compress(keep, axis=1)), layers[k + 1][1])
    return Network(tuple(layers))


def report_json(report: SizeReport | EquivalenceReport) -> str:
    return json.dumps(report.to_json_obj(), sort_keys=True, allow_nan=False)
