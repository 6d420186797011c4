import math

import numpy as np
import pytest

import picardnets.pde as pde_mod
from picardnets import (
    CSV_HEADER,
    ErrorEstimate,
    MlpConfig,
    PdeProblem,
    RandomOracle,
    box_points,
    brownian_moment_check,
    convergence_experiment,
    lp_error,
    mlp_estimate_batch,
    pde_residual_check,
    reference_solution,
    rows_to_csv,
    time_rescale,
)


def zeros(x):
    return np.zeros(len(x))


def heat_problem(**kw):
    base = dict(d=2, horizon=1.0, c=0.5, f_kind="zero", g_kind="quadratic")
    base.update(kw)
    return PdeProblem(**base)


def reference_point(problem, t, x):
    """The closed form as it was written for one point at a time."""
    pt = np.asarray(x, dtype=np.float64)
    lam = problem.lam if problem.f_kind == "linear" else 0.0
    tau = problem.horizon - t if problem.direction == "terminal" else t
    return math.exp(lam * tau) * (float(pt @ pt) + 2.0 * problem.c * problem.d * tau)


def residual_loop(problem, n_probes=16, h=1.0e-3):
    """The residual check's maximum computed point by point (Richardson step in time)."""
    lam = problem.lam if problem.f_kind == "linear" else 0.0
    pts = box_points(RandomOracle(20_160_913, problem.d), n_probes, *problem.box)
    residuals = []
    for t in np.linspace(0.25 * problem.horizon, 0.75 * problem.horizon, 4):
        for row in pts:
            half, full = (
                (reference_point(problem, t + k, row) - reference_point(problem, t - k, row))
                / (2.0 * k)
                for k in (0.5 * h, h)
            )
            u_t = (4.0 * half - full) / 3.0
            lap = 0.0
            center = reference_point(problem, t, row)
            for axis in range(problem.d):
                step = np.zeros(problem.d)
                step[axis] = h
                lap += (
                    reference_point(problem, t, row + step)
                    - 2.0 * center
                    + reference_point(problem, t, row - step)
                ) / h**2
            if problem.direction == "terminal":
                residual = u_t + problem.c * lap + lam * center
            else:
                residual = u_t - problem.c * lap - lam * center
            residuals.append(abs(residual))
    return float(np.max(residuals))


def test_problem_validation():
    with pytest.raises(ValueError):
        heat_problem(d=0)
    with pytest.raises(ValueError):
        heat_problem(c=0.0)
    with pytest.raises(ValueError):
        heat_problem(f_kind="cubic")
    with pytest.raises(ValueError):
        heat_problem(g_kind="sine")
    with pytest.raises(ValueError):
        heat_problem(direction="sideways")
    with pytest.raises(ValueError):
        heat_problem(f_kind="custom")  # missing callable
    with pytest.raises(ValueError):
        heat_problem(box=(1.0, 1.0))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_problem_rejects_a_non_finite_slope(lam):
    with pytest.raises(ValueError, match="lam"):
        heat_problem(f_kind="linear", lam=lam)


@pytest.mark.parametrize("box", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
def test_problem_rejects_a_non_finite_box(box):
    with pytest.raises(ValueError, match="box"):
        heat_problem(box=box)


def test_reference_solution_hand_values():
    # terminal form: u(t, x) = exp(lam tau) (||x||^2 + 2 c d tau), tau = T - t
    prob = heat_problem(d=2, c=1.0)
    x = np.array([1.0, 2.0])
    assert reference_solution(prob, 0.25, x) == pytest.approx(5.0 + 2.0 * 1.0 * 2.0 * 0.75)
    lin = heat_problem(d=2, c=1.0, f_kind="linear", lam=0.4)
    assert reference_solution(lin, 0.25, x) == pytest.approx(math.exp(0.4 * 0.75) * 8.0)
    # initial form runs on tau = t instead
    init = heat_problem(d=2, c=1.0, direction="initial")
    assert reference_solution(init, 0.25, x) == pytest.approx(5.0 + 2.0 * 1.0 * 2.0 * 0.25)
    assert reference_solution(init, 0.0, x) == pytest.approx(5.0)


def test_reference_solution_guards():
    prob = heat_problem(g_kind="gaussian-bump")
    with pytest.raises(ValueError):
        reference_solution(prob, 0.5, np.zeros(2))
    with pytest.raises(ValueError):
        reference_solution(heat_problem(), 1.5, np.zeros(2))


@pytest.mark.parametrize("d", [1, 2, 5, 32])
@pytest.mark.parametrize("direction", ["terminal", "initial"])
@pytest.mark.parametrize("f_kw", [{}, {"f_kind": "linear", "lam": -0.7}])
def test_reference_solution_blocks_equal_point_calls(d, direction, f_kw):
    prob = heat_problem(d=d, c=1.5, direction=direction, **f_kw)
    pts = np.random.default_rng(d).uniform(-1.0, 2.0, size=(200, d))
    for t in (0.0, 0.3, 1.0):
        block = reference_solution(prob, t, pts)
        assert block.shape == (200,) and block.dtype == np.float64
        singles = [reference_solution(prob, t, row) for row in pts]
        assert all(type(v) is float for v in singles)
        want = np.array([reference_point(prob, t, row) for row in pts])
        assert np.array_equal(block, want)
        assert np.array_equal(np.array(singles), want)


def test_reference_solution_rejects_other_shapes():
    prob = heat_problem(d=2)
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), 1.0):
        with pytest.raises(ValueError, match="shape"):
            reference_solution(prob, 0.5, bad)


def test_reference_solution_refuses_an_overflowing_growth_factor():
    prob = heat_problem(f_kind="linear", lam=1e6)
    assert reference_solution(prob, 1.0, np.zeros(2)) == 0.0  # tau = 0: exp(0)
    with pytest.raises(ValueError, match="overflows"):
        reference_solution(prob, 0.5, np.zeros(2))


@pytest.mark.parametrize(
    "kw",
    [
        {},
        {"f_kind": "linear", "lam": 0.3},
        {"direction": "initial"},
        {"direction": "initial", "f_kind": "linear", "lam": -0.2, "c": 2.0},
        {"d": 5, "c": 1.5, "box": (-1.0, 2.0), "f_kind": "linear", "lam": 0.1},
        # fast growth: the O(h^2 lam^3 u) error of a plain central time
        # difference passes 1e-6 on these, and the Richardson step cancels it
        {"d": 3, "c": 1.5, "box": (-1.0, 2.0), "horizon": 0.5, "f_kind": "linear", "lam": -0.7},
        *({"d": 5, "f_kind": "linear", "lam": lam} for lam in (-2.0, 0.5, 1.0, 2.0)),
    ],
)
def test_residual_check_passes_for_exact_references(kw):
    prob = heat_problem(**kw)
    worst = pde_residual_check(prob)
    assert worst <= 1e-6
    # the block form gives the point-by-point maximum bit for bit
    assert worst == residual_loop(prob)


def test_residual_check_catches_a_wrong_reference(monkeypatch):
    wrong = lambda problem, t, x: np.vecdot(x, x) * math.exp(t)
    monkeypatch.setattr(pde_mod, "reference_solution", wrong)
    with pytest.raises(ValueError, match="residual"):
        pde_mod.pde_residual_check(heat_problem())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_residual_check_fails_on_a_non_finite_residual(monkeypatch):
    # ||x||^2 overflows on this box, so the differences are inf - inf = nan
    with pytest.raises(ValueError, match="residual nan"):
        pde_residual_check(heat_problem(box=(0.0, 1e200)))
    monkeypatch.setattr(pde_mod, "reference_solution", lambda problem, t, x: math.nan)
    with pytest.raises(ValueError, match="residual"):
        pde_mod.pde_residual_check(heat_problem())


def test_time_rescale_is_identity_at_native_diffusion():
    prob = heat_problem(c=0.5, f_kind="linear", lam=0.8)
    form = time_rescale(prob)
    assert form.horizon == prob.horizon
    assert form.engine_time(0.3) == 0.3
    assert form.fns.f(2.0) == pytest.approx(0.8 * 2.0)


@pytest.mark.parametrize("f_kind", ["zero", "linear"])
@pytest.mark.parametrize("g_kind", ["quadratic", "gaussian-bump"])
def test_problem_functions_are_array_valued(f_kind, g_kind):
    # f elementwise, g from points (..., d) to values (...); a block's rows
    # equal single-point calls bit for bit, floats and (d,) points included
    fns = time_rescale(heat_problem(d=3, c=1.5, f_kind=f_kind, lam=-0.7, g_kind=g_kind)).fns
    v = np.array([[0.5, -2.0], [3.25, 0.0]])
    assert fns.f(v).shape == v.shape
    assert [fns.f(e) for e in v.ravel()] == fns.f(v).ravel().tolist()
    pts = np.random.default_rng(3).normal(size=(4, 7, 3))
    values = fns.g(pts)
    assert values.shape == (4, 7)
    assert [fns.g(p) for p in pts.reshape(-1, 3)] == values.ravel().tolist()


def test_time_rescale_scales_clock_and_nonlinearity():
    prob = heat_problem(c=2.0, f_kind="linear", lam=1.0)
    form = time_rescale(prob)
    assert form.horizon == 4.0 * prob.horizon
    assert form.engine_time(0.25) == 1.0
    assert form.fns.f(3.0) == pytest.approx(3.0 / 4.0)
    init = heat_problem(c=1.0, direction="initial")
    iform = time_rescale(init)
    # the initial-form datum time (native horizon) lands at engine time zero
    assert iform.engine_time(init.horizon) == 0.0
    assert iform.engine_time(0.0) == iform.horizon


def test_rescaled_estimator_tracks_the_closed_form():
    # c = 1 heat equation, zero f: one estimator level with many samples must
    # land near u(0, x) = ||x||^2 + 2 c d horizon within Monte Carlo noise
    prob = heat_problem(c=1.0, d=3)
    form = time_rescale(prob)
    x = np.array([0.4, -0.2, 0.9])
    want = reference_solution(prob, 0.0, x)
    cfg = MlpConfig(n=1, M=64, horizon=form.horizon, t=form.engine_time(0.0), d=3)
    table = mlp_estimate_batch(cfg, x[None, :], list(range(20)), form.fns)
    stderr = table.std(ddof=1) / math.sqrt(20)
    assert abs(table.mean() - want) <= 4.0 * stderr + 1e-9


def test_lp_error_exact_for_constant_offset():
    est = lp_error(
        reference=lambda x: x[:, 0] + 0.75,
        approximation=lambda x: x[:, 0],
        box=(0.0, 1.0),
        d=1,
        p=2.0,
        n_samples=500,
        seed=4,
    )
    assert isinstance(est, ErrorEstimate)
    assert est.value == pytest.approx(0.75, rel=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)
    odd = lp_error(lambda x: np.full(len(x), 0.75), zeros, (0.0, 1.0), 1, 1.5, 100, 4)
    assert odd.value == pytest.approx(0.75, rel=1e-12)


def test_lp_error_calibrates_against_uniform_moment():
    # |x - 0| on U[0, 1]: the L^2 distance is (1/3)^(1/2)
    est = lp_error(
        reference=lambda x: x[:, 0],
        approximation=zeros,
        box=(0.0, 1.0),
        d=1,
        p=2.0,
        n_samples=10_000,
        seed=11,
    )
    assert abs(est.value - math.sqrt(1.0 / 3.0)) <= 3.0 * est.stderr


def test_lp_error_validation():
    with pytest.raises(ValueError):
        lp_error(zeros, zeros, (0.0, 1.0), 1, 0.0, 10, 0)
    with pytest.raises(ValueError):
        lp_error(zeros, zeros, (0.0, 1.0), 1, 2.0, 0, 0)


@pytest.mark.parametrize(
    "wrong",
    [
        lambda x: 0.0,  # a scalar-style callable must not be broadcast
        lambda x: x,  # (N, d)
        lambda x: x[:, :1],  # (N, 1)
        lambda x: np.zeros(len(x) - 1),
        lambda x: np.zeros((1, len(x))),
    ],
)
def test_lp_error_rejects_values_of_the_wrong_shape(wrong):
    for reference, approximation in ((wrong, zeros), (zeros, wrong)):
        with pytest.raises(ValueError, match="must map"):
            lp_error(reference, approximation, (0.0, 1.0), 3, 2.0, 10, 0)


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
def test_lp_exponent_must_be_finite_and_positive(p):
    with pytest.raises(ValueError, match="exponent"):
        lp_error(zeros, zeros, (0.0, 1.0), 1, p, 10, 0)
    with pytest.raises(ValueError, match="exponent"):
        convergence_experiment(heat_problem(), [(1, 1)], [1], n_points=4, p=p)


def test_brownian_moment_check_exact_values_and_verdict():
    report = brownian_moment_check(3, 1.0, 2, 20_000, seed=1)
    assert report["exact"] == pytest.approx(15.0)
    assert report["passed"]
    report = brownian_moment_check(1, 0.5, 1, 5_000, seed=2)
    assert report["exact"] == pytest.approx(0.5)
    assert report["passed"]
    with pytest.raises(ValueError):
        brownian_moment_check(1, 1.0, 0, 100, seed=0)


def test_convergence_experiment_rows_and_trend():
    prob = heat_problem(d=2)
    levels = [(1, 1), (2, 2), (3, 3)]
    seeds = [1, 2, 3, 4, 5]
    rows = convergence_experiment(prob, levels, seeds, n_points=32, p=2.0)
    assert len(rows) == 15
    # deterministic order: levels outer, seeds inner
    assert [(r[0], r[1], r[2]) for r in rows[:5]] == [(1, 1, s) for s in seeds]
    medians = [
        float(np.median([r[4] for r in rows if (r[0], r[1]) == lv])) for lv in levels
    ]
    assert medians[2] < medians[0]


def test_convergence_experiment_validation_and_gate(monkeypatch):
    prob = heat_problem()
    with pytest.raises(ValueError):
        convergence_experiment(prob, [(1, 1)], [1], n_points=0, p=2.0)
    with pytest.raises(ValueError):
        convergence_experiment(prob, [(1, 1)], [], n_points=4, p=2.0)
    with pytest.raises(ValueError):
        convergence_experiment(prob, [(1, 1)], [1], n_points=4, p=2.0, t_native=2.0)
    with pytest.raises(ValueError, match="seed"):  # int() would turn it into seed 1
        convergence_experiment(prob, [(1, 1)], [1, 1.7], n_points=4, p=2.0)
    wrong = lambda problem, t, x: t * np.vecdot(x, x)
    monkeypatch.setattr(pde_mod, "reference_solution", wrong)
    with pytest.raises(ValueError, match="residual"):
        convergence_experiment(prob, [(1, 1)], [1], n_points=4, p=2.0)


def test_rows_to_csv_format():
    rows = [(1, 1, 7, 2.0, 0.123456789012345, 42)]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "1,1,7,2.0,0.123456789012345,42"
    assert text.endswith("\n")
    assert CSV_HEADER == ("n", "M", "seed", "p", "error", "wall_ms")
