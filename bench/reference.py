"""Independent checks for the benchmark: a reference recursion, closed-form
work counts and golden oracle draws.

The reference recursion re-derives the multilevel Picard estimate from its
definition using only the public sampling functions `uniform_time` and
`brownian_increment`, so a faster estimator or compiler can be checked
against something that does not share its code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import numpy as np

from picardnets import sampling

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_draws.json"


def oracle_calls(n: int, M: int) -> int:
    """Oracle calls one level-n estimate makes: C(n) = M^n + sum_{i<n} M^(n-i) (2 + C(i) + C(i-1))."""
    calls = [0]
    for level in range(1, n + 1):
        total = M**level
        for i in range(level):
            below = calls[i - 1] if i >= 1 else 0
            total += M ** (level - i) * (2 + calls[i] + below)
        calls.append(total)
    return calls[n]


def time_draws(n: int, M: int) -> int:
    """Recursion nodes (KIND_TIME draws) of one level-n estimate: N(n) = sum_{i<n} M^(n-i) (1 + N(i) + N(i-1))."""
    nodes = [0]
    for level in range(1, n + 1):
        total = 0
        for i in range(level):
            below = nodes[i - 1] if i >= 1 else 0
            total += M ** (level - i) * (1 + nodes[i] + below)
        nodes.append(total)
    return nodes[n]


def reference_estimate(
    n: int,
    M: int,
    horizon: float,
    t: float,
    x: np.ndarray,
    theta: tuple[int, ...],
    f: Callable[[float], float],
    g: Callable[[np.ndarray], float],
    oracle: sampling.RandomOracle,
) -> float:
    """Level-n estimate at (t, x) along `theta`, written out from the definition."""
    if n == 0:
        return 0.0
    acc_g = 0.0
    for k in range(1, M**n + 1):
        acc_g += g(x + sampling.brownian_increment(oracle, theta + (0, -k), horizon - t))
    total = acc_g / M**n
    for i in range(n):
        acc = 0.0
        for k in range(1, M ** (n - i) + 1):
            branch = theta + (i, k)
            s = sampling.uniform_time(oracle, branch, t, horizon)
            y = x + sampling.brownian_increment(oracle, branch, s - t)
            term = f(reference_estimate(i, M, horizon, s, y, branch, f, g, oracle))
            if i >= 1:
                term -= f(reference_estimate(i - 1, M, horizon, s, y, theta + (-i, k), f, g, oracle))
            acc += term
        total += (horizon - t) / M ** (n - i) * acc
    return total


def _golden_draws() -> dict[str, np.ndarray]:
    """Fixed draws from every public sampling entry point; they must never change."""
    oracle = sampling.RandomOracle(20_230_924, 5)
    return {
        "uniform01": oracle.uniform01((0, 3, -2), sampling.KIND_TIME, 11),
        "gaussians": oracle.gaussians((0, 1, 4), 5),
        "uniform_time": np.array([sampling.uniform_time(oracle, (0, 2, 7), 0.25, 1.0)]),
        "brownian_increment": sampling.brownian_increment(oracle, (0, 0, -9), 0.5),
        "box_point": sampling.box_point(oracle, 17, 0.0, 1.0),
        "probe_point": sampling.probe_point(oracle, 5, -3.0, 3.0),
    }


def golden_failures() -> list[str]:
    """Names of the golden draws whose bytes differ from the stored ones."""
    stored = json.loads(GOLDEN_PATH.read_text())
    drawn = _golden_draws()
    if set(stored) != set(drawn):
        return [f"golden draw names {sorted(stored)} != {sorted(drawn)}"]
    return [
        f"golden draw {name} changed"
        for name, values in drawn.items()
        if np.asarray(values, dtype="<f8").tobytes().hex() != stored[name]
    ]


if __name__ == "__main__":
    # Regenerates the golden file; run only when the oracle is meant to change.
    draws = {name: np.asarray(v, dtype="<f8").tobytes().hex() for name, v in _golden_draws().items()}
    GOLDEN_PATH.write_text(json.dumps(draws, indent=1, sort_keys=True) + "\n")
