"""Full-history recursive multilevel Picard estimator.

`mlp_eval` evaluates the level-n estimate of the terminal-form semilinear heat
equation u_t + (1/2) Lap(u) + f(u) = 0, u(horizon, x) = g(x), at space-time
points. Level 0 is identically zero. Level n averages M**n samples of the
terminal datum over Brownian endpoints, plus for each earlier level i a
time-averaged difference of the nonlinearity evaluated on the level-i and
level-(i-1) recursions. Both nonlinearity evaluations inside one summand share
the same drawn time and the same Brownian displacement; only the subtracted
recursion descends along its own sign-flipped path.

All randomness comes from the stateless oracle and none of it depends on x,
so `draw_tree` makes every oracle call of one estimate up front, as two
block calls per depth of the recursion, and returns the draws as a tree of
plain tuples. The estimator here and the compiler in
`compiler.py` only read that tree, so both see the same draws by
construction. With the array-valued f and g of `ProblemFns`, one read of a
tree serves a whole (N, d) block of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sampling import RandomOracle, ThetaPath, brownian_increment, theta_bytes, uniform_time

ROOT_PATH: ThetaPath = (0,)


@dataclass(frozen=True)
class MlpConfig:
    """Level n, branching factor M, horizon, evaluation time, and dimension."""

    n: int
    M: int
    horizon: float
    t: float
    d: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("level must be >= 0")
        if self.M < 1:
            raise ValueError("branching factor must be >= 1")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not (np.isfinite(self.horizon) and np.isfinite(self.t)):
            raise ValueError("times must be finite")
        if not 0.0 <= self.t <= self.horizon:
            raise ValueError(f"need 0 <= t <= horizon, got t={self.t}, horizon={self.horizon}")


@dataclass(frozen=True)
class ProblemFns:
    """Nonlinearity f: R -> R and terminal datum g: R^d -> R, in array form.

    `f` maps an array elementwise to an array of the same shape; `g` maps
    points of shape (..., d) to values of shape (...), so (N, d) gives (N,).
    `f_lipschitz` is accepted for existing callers and ignored.
    """

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    f_lipschitz: float | None = None


# A level-n tree is (shifts, levels): the M**n datum shifts drawn along
# (theta, 0, -k), as the rows of an (M**n, d) array, and for each level i < n
# the branches drawn along (theta, i, k), each (s, shift, child, below). `child`
# is the level-i tree at time s along the branch path; `below` is the level-(i-1)
# tree at time s along (theta, -i, k) when i >= 1, and None for i = 0. Level 0 is ((), ()).
Tree = tuple


_LEAF: Tree = ((), ())


def draw_tree(cfg: MlpConfig, theta: ThetaPath, oracle: RandomOracle) -> Tree:
    """Every oracle draw of the level-cfg.n estimate at (cfg.t, theta), as a tree.

    The draws are made breadth first. Every path drawn at one depth of the tree
    has the same length, and a node's time is its parent's branch time, so one
    depth is two block calls: `uniform_time` for the times of all its branches,
    then `brownian_increment` for all its datum shifts and branch displacements.
    Block rows equal per-path draws bit for bit, so this is the tree that the
    definition's recursion draws path by path.
    """
    theta_bytes(theta)  # rejects entries that are not 64-bit integers
    M, horizon = cfg.M, cfg.horizon
    # path suffixes of a level-m node's datum draws (0, -k) and branches (i, k), in layout order
    datum_sfx, branch_sfx = [], []
    for m in range(cfg.n + 1):
        datum_sfx.append(np.array([(0, -k) for k in range(1, M**m + 1)], dtype=np.int64))
        pairs = [(i, k) for i in range(m) for k in range(1, M ** (m - i) + 1)]
        branch_sfx.append(np.array(pairs, dtype=np.int64).reshape(-1, 2))

    # one depth of nodes: their levels, and their times and paths as array rows
    levels = [cfg.n]
    times = np.array([cfg.t], dtype=np.float64)
    paths = np.array(theta, dtype=np.int64).reshape(1, len(theta))
    depths = []
    while any(levels):
        drawn = [j for j, m in enumerate(levels) if m]
        datum_owner, datum_paths = _extend(paths, levels, drawn, datum_sfx)
        branch_owner, branch_paths = _extend(paths, levels, drawn, branch_sfx)
        s = uniform_time(oracle, branch_paths, times[branch_owner], horizon)
        moves = brownian_increment(
            oracle,
            np.vstack([datum_paths, branch_paths]),
            np.concatenate([horizon - times[datum_owner], s - times[branch_owner]]),
        )
        i, k = branch_paths[:, -2], branch_paths[:, -1]
        depths.append((levels, s.tolist(), moves, len(datum_paths), i.tolist()))
        # the next depth: every branch's child along (theta, i, k), then the
        # level-(i-1) tree along (theta, -i, k) of every branch with i >= 1
        below = i >= 1
        below_sfx = np.stack([-i[below], k[below]], axis=1)
        below_paths = np.hstack([paths[branch_owner[below]], below_sfx])
        levels = i.tolist() + (i[below] - 1).tolist()
        times = np.concatenate([s, s[below]])
        paths = np.vstack([branch_paths, below_paths])

    # assemble from the deepest depth up; `nodes` are the trees of the depth below
    nodes = [_LEAF] * len(levels)
    for levels, s, moves, n_datum, branch_levels in reversed(depths):
        belows = iter(nodes[len(s) :])
        branches = [
            (time, move, child, next(belows) if i else None)
            for time, move, child, i in zip(s, list(moves[n_datum:]), nodes, branch_levels)
        ]
        parents = []
        datum_at = branch_at = 0
        for m in levels:
            if not m:
                parents.append(_LEAF)
                continue
            tiers = []
            for i in range(m):
                tiers.append(tuple(branches[branch_at : branch_at + M ** (m - i)]))
                branch_at += M ** (m - i)
            parents.append((moves[datum_at : datum_at + M**m], tuple(tiers)))
            datum_at += M**m
        nodes = parents
    return nodes[0]


def _extend(
    paths: np.ndarray, levels: list[int], drawn: list[int], suffixes: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Each drawn node's path once per suffix of its level, with that suffix
    appended, and the node each new path comes from."""
    owner = np.repeat(drawn, [len(suffixes[levels[j]]) for j in drawn])
    return owner, np.hstack([paths[owner], np.concatenate([suffixes[levels[j]] for j in drawn])])


def mlp_eval(
    cfg: MlpConfig,
    x: object,
    theta: ThetaPath,
    fns: ProblemFns,
    oracle: RandomOracle,
) -> float | np.ndarray:
    """Level-cfg.n estimate at time cfg.t along `theta`.

    `x` is one point of shape (d,), which gives a float, or a block of points
    of shape (N, d), which gives an array of N estimates. The sample tree is
    drawn once and read once for the block: `fns.g` gets a node's (M**n * N, d)
    shifted points, `fns.f` (N,) arrays. Each estimate equals the one its point
    gets alone if f and g give a row the same bits in a block. Points must be finite.
    """
    points = np.asarray(x, dtype=np.float64)
    if points.shape[-1:] != (cfg.d,) or points.ndim not in (1, 2):
        raise ValueError(f"point has shape {points.shape}, expected ({cfg.d},) or (N, {cfg.d})")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    tree = draw_tree(cfg, theta, oracle)
    block = np.atleast_2d(points)
    # every level-0 recursion is identically zero, so its f term is f(0)
    f_zero = fns.f(np.zeros(len(block)))

    def read(node: Tree, t: float, x: np.ndarray) -> np.ndarray:
        shifts, levels = node
        # g on every shift of every point at once, summed over shifts in
        # drawing order (cumsum adds sequentially; sum may pair terms up)
        g_vals = fns.g((x + shifts[:, None, :]).reshape(-1, cfg.d)).reshape(len(shifts), -1)
        total = np.cumsum(g_vals, axis=0)[-1] / len(shifts)
        for i, branches in enumerate(levels):
            acc_i = 0.0
            for s, shift, child, below in branches:
                if i == 0:  # the child is level 0, and there is no subtracted term
                    acc_i = acc_i + f_zero
                    continue
                y = x + shift
                f_below = fns.f(read(below, s, y)) if i >= 2 else f_zero
                acc_i = acc_i + (fns.f(read(child, s, y)) - f_below)
            total = total + (cfg.horizon - t) / len(branches) * acc_i
        return total

    values = read(tree, cfg.t, block) if cfg.n else np.zeros(len(block))
    return values[0] if points.ndim == 1 else values


def mlp_estimate_batch(
    cfg: MlpConfig,
    points: object,
    root_seeds: Sequence[int],
    fns: ProblemFns,
) -> np.ndarray:
    """Independent estimates for every (seed, point) pair.

    Returns an array of shape (len(root_seeds), len(points)): row i holds the
    estimates produced by the oracle seeded with root_seeds[i], one per point,
    all starting from the root path; each seed's tree is drawn once.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != cfg.d:
        raise ValueError(f"points must have shape (N, {cfg.d}), got {pts.shape}")
    out = np.empty((len(root_seeds), pts.shape[0]))
    for i, seed in enumerate(root_seeds):
        out[i] = mlp_eval(cfg, pts, ROOT_PATH, fns, RandomOracle(int(seed), cfg.d))
    return out
