import math

import numpy as np
import pytest

import picardnets.pde as pde_mod
from picardnets import (
    CSV_HEADER,
    ErrorEstimate,
    MlpConfig,
    PdeProblem,
    brownian_moment_check,
    convergence_experiment,
    lp_error,
    mlp_estimate_batch,
    pde_residual_check,
    reference_solution,
    rows_to_csv,
    time_rescale,
)


def heat_problem(**kw):
    base = dict(d=2, horizon=1.0, c=0.5, f_kind="zero", g_kind="quadratic")
    base.update(kw)
    return PdeProblem(**base)


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


@pytest.mark.parametrize(
    "kw",
    [
        {},
        {"f_kind": "linear", "lam": 0.3},
        {"direction": "initial"},
        {"direction": "initial", "f_kind": "linear", "lam": -0.2, "c": 2.0},
    ],
)
def test_residual_check_passes_for_exact_references(kw):
    worst = pde_residual_check(heat_problem(**kw))
    assert worst <= 1e-6


def test_residual_check_catches_a_wrong_reference(monkeypatch):
    wrong = lambda problem, t, x: float(np.asarray(x) @ np.asarray(x)) * math.exp(t)
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
    assert form.fns.f_lipschitz == pytest.approx(0.8)


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
        reference=lambda x: float(x[0]) + 0.75,
        approximation=lambda x: float(x[0]),
        box=(0.0, 1.0),
        d=1,
        p=2.0,
        n_samples=500,
        seed=4,
    )
    assert isinstance(est, ErrorEstimate)
    assert est.value == pytest.approx(0.75, rel=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)
    odd = lp_error(lambda x: 0.75, lambda x: 0.0, (0.0, 1.0), 1, 1.5, 100, 4)
    assert odd.value == pytest.approx(0.75, rel=1e-12)


def test_lp_error_calibrates_against_uniform_moment():
    # |x - 0| on U[0, 1]: the L^2 distance is (1/3)^(1/2)
    est = lp_error(
        reference=lambda x: float(x[0]),
        approximation=lambda x: 0.0,
        box=(0.0, 1.0),
        d=1,
        p=2.0,
        n_samples=10_000,
        seed=11,
    )
    assert abs(est.value - math.sqrt(1.0 / 3.0)) <= 3.0 * est.stderr


def test_lp_error_validation():
    with pytest.raises(ValueError):
        lp_error(lambda x: 0.0, lambda x: 0.0, (0.0, 1.0), 1, 0.0, 10, 0)
    with pytest.raises(ValueError):
        lp_error(lambda x: 0.0, lambda x: 0.0, (0.0, 1.0), 1, 2.0, 0, 0)


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
def test_lp_exponent_must_be_finite_and_positive(p):
    with pytest.raises(ValueError, match="exponent"):
        lp_error(lambda x: 0.0, lambda x: 0.0, (0.0, 1.0), 1, p, 10, 0)
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


def test_convergence_experiment_worker_count_does_not_change_rows():
    prob = heat_problem(d=2)
    levels = [(1, 1), (2, 2)]
    seeds = [7, 8]
    serial = convergence_experiment(prob, levels, seeds, n_points=16, p=2.0)
    threaded = convergence_experiment(prob, levels, seeds, n_points=16, p=2.0, workers=4)
    assert [r[:5] for r in serial] == [r[:5] for r in threaded]


def test_convergence_experiment_validation_and_gate(monkeypatch):
    prob = heat_problem()
    with pytest.raises(ValueError):
        convergence_experiment(prob, [(1, 1)], [1], n_points=0, p=2.0)
    with pytest.raises(ValueError):
        convergence_experiment(prob, [(1, 1)], [], n_points=4, p=2.0)
    with pytest.raises(ValueError):
        convergence_experiment(prob, [(1, 1)], [1], n_points=4, p=2.0, t_native=2.0)
    wrong = lambda problem, t, x: float(t * (np.asarray(x) @ np.asarray(x)))
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
