"""Desk-scale experiment harness: reference solutions, error metrics, trends.

Problems are semilinear heat equations with diffusion coefficient c, either in
terminal form (u_t + c Lap(u) + f(u) = 0 with datum at t = horizon) or initial
form (u_t = c Lap(u) + f(u) with datum at t = 0). The estimator itself is
fixed to the terminal form with c = 1/2, so problems are first rescaled in
time (and initial-form problems flipped) before estimation. Closed-form
references exist for the squared-norm datum with zero or linear nonlinearity
and are gated by a finite-difference residual check before any experiment
runs.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .engine import MlpConfig, ProblemFns, mlp_estimate_batch
from .sampling import RandomOracle, box_points, brownian_increment

CSV_HEADER = ("n", "M", "seed", "p", "error", "wall_ms")


@dataclass(frozen=True)
class PdeProblem:
    """A semilinear heat problem on a box, with tagged nonlinearity and datum.

    f_kind: "zero", "linear" (f(u) = lam * u), or "custom" (callable f_custom).
    g_kind: "quadratic" (||x||^2), "gaussian-bump" (exp(-||x||^2)), or
    "custom" (callable g_custom). direction: "terminal" or "initial". All
    f and g callables are array-valued, as `ProblemFns` describes.
    """

    d: int
    horizon: float
    c: float
    f_kind: str = "zero"
    lam: float = 0.0
    f_custom: Callable[[np.ndarray], np.ndarray] | None = None
    g_kind: str = "quadratic"
    g_custom: Callable[[np.ndarray], np.ndarray] | None = None
    box: tuple[float, float] = (0.0, 1.0)
    direction: str = "terminal"

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and positive")
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError("diffusion coefficient must be finite and positive")
        if not np.isfinite(self.lam):
            raise ValueError("the linear slope lam must be finite")
        if self.f_kind not in ("zero", "linear", "custom"):
            raise ValueError(f"unknown nonlinearity kind {self.f_kind!r}")
        if self.g_kind not in ("quadratic", "gaussian-bump", "custom"):
            raise ValueError(f"unknown datum kind {self.g_kind!r}")
        if self.direction not in ("terminal", "initial"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.f_kind == "custom" and self.f_custom is None:
            raise ValueError("custom nonlinearity needs f_custom")
        if self.g_kind == "custom" and self.g_custom is None:
            raise ValueError("custom datum needs g_custom")
        if not (np.all(np.isfinite(self.box)) and self.box[0] < self.box[1]):
            raise ValueError("box needs finite low < high")

    def f_callable(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.f_kind == "zero":
            return lambda v: np.zeros_like(v, dtype=np.float64)
        if self.f_kind == "linear":
            lam = self.lam
            return lambda v: lam * v
        return self.f_custom  # type: ignore[return-value]

    def g_callable(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.g_kind == "quadratic":
            return lambda x: (x * x).sum(axis=-1)
        if self.g_kind == "gaussian-bump":
            return lambda x: np.exp(-(x * x).sum(axis=-1))
        return self.g_custom  # type: ignore[return-value]


def reference_solution(problem: PdeProblem, t: float, x: object) -> float | np.ndarray:
    """Closed form for the squared-norm datum with zero or linear nonlinearity.

    Terminal form: u(t, x) = exp(lam * (horizon - t)) * (||x||^2 + 2 c d (horizon - t)).
    Initial form:  u(t, x) = exp(lam * t) * (||x||^2 + 2 c d t).
    The linear factor cancels exactly against the nonlinearity term, so no
    further correction is needed; `pde_residual_check` verifies this.
    A point x of shape (d,) gives a float, a block (N, d) gives (N,) values.
    """
    if problem.g_kind != "quadratic" or problem.f_kind not in ("zero", "linear"):
        raise ValueError("closed-form reference needs the quadratic datum and zero/linear f")
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim not in (1, 2) or pts.shape[-1] != problem.d:
        raise ValueError(f"points need shape ({problem.d},) or (N, {problem.d}), not {pts.shape}")
    lam = problem.lam if problem.f_kind == "linear" else 0.0
    if problem.direction == "terminal":
        tau = problem.horizon - t
    else:
        tau = t
    if not 0.0 <= t <= problem.horizon:
        raise ValueError(f"time {t} outside [0, {problem.horizon}]")
    try:
        growth = math.exp(lam * tau)
    except OverflowError:
        raise ValueError(f"growth factor exp({lam} * {tau}) overflows float64") from None
    # vecdot rounds each row as the (d,) product x @ x does
    values = growth * (np.vecdot(pts, pts) + 2.0 * problem.c * problem.d * tau)
    return float(values) if pts.ndim == 1 else values


def pde_residual_check(problem: PdeProblem) -> float:
    """Max finite-difference residual of the closed-form reference on 16 probe points.

    Central differences of step h = 1e-3 in space, and in time with one
    Richardson step (4 D(h/2) - D(h)) / 3 that cancels the O(h^2 lam^3 u)
    truncation error of the central difference D, each on the whole probe
    block at four times; raises when the residual exceeds 1e-6 or is not
    finite, so experiments can hard-gate on a verified reference. Returns the
    measured maximum.
    """
    lam = problem.lam if problem.f_kind == "linear" else 0.0
    h = 1.0e-3
    lo, hi = problem.box
    oracle = RandomOracle(20_160_913, problem.d)
    pts = box_points(oracle, 16, lo, hi)
    times = np.linspace(0.25 * problem.horizon, 0.75 * problem.horizon, 4)
    # the initial form is the terminal equation with time reversed
    sign = 1.0 if problem.direction == "terminal" else -1.0
    residuals = []
    for t in times:
        half, full = (
            (reference_solution(problem, t + k, pts) - reference_solution(problem, t - k, pts))
            / (2.0 * k)
            for k in (0.5 * h, h)
        )
        u_t = sign * (4.0 * half - full) / 3.0
        lap = 0.0
        center = reference_solution(problem, t, pts)
        for step in h * np.eye(problem.d):
            lap += (
                reference_solution(problem, t, pts + step)
                - 2.0 * center
                + reference_solution(problem, t, pts - step)
            ) / h**2
        residuals.append(np.abs(u_t + problem.c * lap + lam * center))
    worst = float(np.max(residuals))
    if not worst <= 1.0e-6:
        raise ValueError(f"reference residual {worst:.3e} exceeds 1.0e-06")
    return worst


@dataclass(frozen=True)
class EngineForm:
    """A problem mapped onto the estimator's native setting (terminal, c = 1/2).

    Time rescaling: v(s, x) = u(s / (2c), x) solves the c' = 1/2 equation with
    horizon 2 c * horizon and nonlinearity f / (2c). Initial-form problems are
    flipped first (w(t, x) = u(horizon - t, x)), which turns the datum at
    t = 0 into a terminal datum. `engine_time(t)` maps a native time to the
    engine's clock.
    """

    problem: PdeProblem
    horizon: float
    fns: ProblemFns
    time_scale: float

    def engine_time(self, t: float) -> float:
        if self.problem.direction == "terminal":
            return self.time_scale * t
        return self.time_scale * (self.problem.horizon - t)


def time_rescale(problem: PdeProblem) -> EngineForm:
    scale = 2.0 * problem.c
    f_native = problem.f_callable()
    fns = ProblemFns(f=lambda v: f_native(v) / scale, g=problem.g_callable())
    return EngineForm(
        problem=problem, horizon=scale * problem.horizon, fns=fns, time_scale=scale
    )


@dataclass(frozen=True)
class ErrorEstimate:
    p: float
    value: float
    stderr: float
    samples: int


def _check_exponent(p: float) -> None:
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"the L^p exponent must be finite and > 0, got {p}")


def lp_error(
    reference: Callable[[np.ndarray], np.ndarray],
    approximation: Callable[[np.ndarray], np.ndarray],
    box: tuple[float, float],
    d: int,
    p: float,
    n_samples: int,
    seed: int,
) -> ErrorEstimate:
    """Monte Carlo estimate of the L^p distance under the uniform box measure.

    Each callable maps the (N, d) block of sample points to (N,) values.
    Returns ((1/N) sum |diff|^p)^(1/p) with a delta-method standard error. The
    power-mean inequality (the p/2 estimate never exceeds the p estimate on
    the same samples) is asserted on every call as a self-check.
    """
    _check_exponent(p)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    oracle = RandomOracle(seed, d)
    pts = box_points(oracle, n_samples, box[0], box[1])
    ref, approx = (np.asarray(fn(pts), dtype=np.float64) for fn in (reference, approximation))
    if ref.shape != (n_samples,) or approx.shape != (n_samples,):
        raise ValueError(f"callables must map (N, d) to (N,), got {ref.shape} and {approx.shape}")
    diffs = np.abs(ref - approx)
    powered = diffs**p
    mean = float(powered.mean())
    value = mean ** (1.0 / p)
    if mean > 0.0:
        spread = float(powered.std(ddof=1)) / math.sqrt(n_samples) if n_samples > 1 else 0.0
        stderr = spread * (1.0 / p) * mean ** ((1.0 - p) / p)
    else:
        stderr = 0.0
    half = float((diffs ** (p / 2.0)).mean()) ** (2.0 / p)
    if half > value * (1.0 + 1.0e-12) + 1.0e-300:
        raise AssertionError(f"power-mean check failed: L^{p/2} {half} > L^{p} {value}")
    return ErrorEstimate(p=p, value=value, stderr=stderr, samples=n_samples)


def brownian_moment_check(
    d: int, s: float, gamma: int, n_samples: int, seed: int
) -> dict:
    """Compare sampled E||W_s||^(2 gamma) with the exact chi-squared moment.

    The exact value is (2 s)^gamma * prod_{k=0}^{gamma-1} (d/2 + k). Passes
    when the sampled mean is within max(3 standard errors, 3%) of exact.
    Raises ValueError when the exact or the sampled moment is not finite.
    """
    if gamma < 1 or n_samples < 2:
        raise ValueError("need gamma >= 1 and at least two samples")
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"elapsed time s must be finite and > 0, got {s}")
    oracle = RandomOracle(seed, d)
    # sample i is drawn along the path (i,); one block draws them all
    paths = np.arange(n_samples, dtype=np.int64)[:, None]
    increments = brownian_increment(oracle, paths, np.full(n_samples, float(s)))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        values = np.vecdot(increments, increments) ** gamma
        mean = float(values.mean())
        stderr = float(values.std(ddof=1)) / math.sqrt(n_samples)
    try:
        exact = (2.0 * s) ** gamma * math.prod(d / 2.0 + k for k in range(gamma))
    except OverflowError:  # a finite power past the float range
        exact = math.inf
    if not all(map(math.isfinite, (exact, mean, stderr))):
        raise ValueError(
            f"moment of order {2 * gamma} is not finite in float64 at d={d}, s={s}: "
            f"exact {exact}, sampled {mean} with standard error {stderr}"
        )
    slack = max(3.0 * stderr, 0.03 * abs(exact))
    return {
        "d": d,
        "s": s,
        "gamma": gamma,
        "samples": n_samples,
        "sampled": mean,
        "exact": exact,
        "stderr": stderr,
        "passed": bool(abs(mean - exact) <= slack),
    }


def convergence_experiment(
    problem: PdeProblem,
    levels: Sequence[tuple[int, int]],
    seeds: Sequence[int],
    n_points: int,
    p: float,
    t_native: float = 0.0,
) -> list[tuple]:
    """One row per (level, seed): empirical L^p error against the reference.

    Evaluation points are the first `n_points` of the uniform box stream keyed
    by seeds[0]; they are shared by every row so errors are comparable. The
    reference is hard-gated by the finite-difference residual check. Rows are
    computed serially in deterministic order (levels outer, seeds inner).
    wall_ms is honest timing and is the one column that varies between runs.
    `t_native` is the problem-native evaluation time; for initial-form
    problems the interesting choice is the horizon, which the engine clock
    maps to 0.
    """
    _check_exponent(p)
    if n_points < 1:
        raise ValueError("need at least one evaluation point")
    if not seeds:
        raise ValueError("need at least one seed")
    if not 0.0 <= t_native <= problem.horizon:
        raise ValueError(f"evaluation time {t_native} outside [0, {problem.horizon}]")
    pde_residual_check(problem)
    form = time_rescale(problem)
    oracle = RandomOracle(seeds[0], problem.d)
    pts = box_points(oracle, n_points, problem.box[0], problem.box[1])
    refs = reference_solution(problem, t_native, pts)
    rows = []
    for n, m in levels:
        cfg = MlpConfig(n=n, M=m, horizon=form.horizon, t=form.engine_time(t_native), d=problem.d)
        for seed in seeds:
            start = time.perf_counter()
            estimates = mlp_estimate_batch(cfg, pts, [seed], form.fns)[0]
            wall_ms = int(round((time.perf_counter() - start) * 1000.0))
            err = float(np.mean(np.abs(estimates - refs) ** p) ** (1.0 / p))
            rows.append((n, m, int(seed), p, err, wall_ms))
    return rows


def rows_to_csv(rows: Sequence[tuple]) -> str:
    """Render experiment rows as CSV with the pinned header and repr floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for n, m, seed, p, err, wall_ms in rows:
        writer.writerow([n, m, seed, repr(float(p)), repr(float(err)), wall_ms])
    return buf.getvalue()
