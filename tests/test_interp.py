import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardnets import (
    ApproxGuarantee,
    Grid,
    LipschitzFn,
    activation_wrapper,
    affine,
    approx_net_leaky,
    approx_net_relu,
    approx_net_softplus,
    compose,
    dims,
    empirical_modulus,
    interp_net_leaky,
    interp_net_relu,
    interp_net_softplus,
    leaky_relu,
    lin_interp,
    param_count,
    realize,
    relu,
    scalar_mul,
    softplus,
    sum_same_depth,
)
from picardnets.interp import _approx_grid, _kink_coefficients

RNG = np.random.default_rng(7021)


def random_grid(n_knots):
    pts = np.sort(RNG.uniform(-6.0, 6.0, n_knots))
    while np.min(np.diff(pts)) < 1e-3:
        pts = np.sort(RNG.uniform(-6.0, 6.0, n_knots))
    return Grid(pts)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(np.array([1.0]))
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        Grid(np.array([0.0, np.inf]))
    assert Grid(np.array([0.0, 1.0, 2.0])).cells == 2


def test_lin_interp_matches_numpy_interp():
    # np.interp clamps to the boundary values outside the grid by default,
    # which is exactly the convention here
    for _ in range(20):
        grid = random_grid(RNG.integers(2, 12))
        vals = RNG.standard_normal(grid.points.size)
        xs = RNG.uniform(-10.0, 10.0, 200)
        want = np.interp(xs, grid.points, vals)
        got = lin_interp(grid, vals, xs)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_kink_coefficients_telescope_to_zero_and_linear_case():
    grid = random_grid(9)
    vals = RNG.standard_normal(9)
    coeffs = _kink_coefficients(grid, vals)
    # clamped flat on both sides, so slope changes must cancel overall
    assert float(coeffs.sum()) == pytest.approx(0.0, abs=1e-12)
    # a linear profile only bends at the two boundary knots
    lin = 3.0 * grid.points + 1.0
    c = _kink_coefficients(grid, lin)
    assert c[0] == pytest.approx(3.0, abs=1e-12)
    assert c[-1] == pytest.approx(-3.0, abs=1e-12)
    np.testing.assert_allclose(c[1:-1], 0.0, atol=1e-11)


def test_interp_net_relu_equals_interpolant_everywhere():
    for _ in range(10):
        grid = random_grid(RNG.integers(2, 10))
        vals = RNG.standard_normal(grid.points.size)
        net = interp_net_relu(grid, vals)
        assert dims(net) == (1, grid.points.size, 1)
        xs = RNG.uniform(-12.0, 12.0, 300)
        got = realize(net, relu(), xs[:, None])[:, 0]
        want = lin_interp(grid, vals, xs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * (1 + np.abs(want).max()))


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.5, 3.0])
def test_interp_net_leaky_equals_relu_interpolant(alpha):
    act = leaky_relu(alpha) if alpha > 0 else relu()
    grid = random_grid(8)
    vals = RNG.standard_normal(8)
    net = interp_net_leaky(grid, vals, alpha)
    assert dims(net) == (1, 2 * grid.points.size, 1)
    xs = RNG.uniform(-12.0, 12.0, 400)
    got = realize(net, act, xs[:, None])[:, 0]
    want = lin_interp(grid, vals, xs)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * (1 + np.abs(want).max()))


def test_interp_net_leaky_rejects_slope_one():
    grid = random_grid(4)
    with pytest.raises(ValueError):
        interp_net_leaky(grid, np.zeros(4), 1.0)


def test_interp_net_softplus_gap_bound():
    grid = random_grid(7)
    vals = RNG.standard_normal(7)
    coeffs = _kink_coefficients(grid, vals)
    xs = np.linspace(-12.0, 12.0, 2001)
    want = lin_interp(grid, vals, xs)
    gaps = []
    for beta in (4.0, 16.0, 64.0):
        net = interp_net_softplus(grid, vals, beta)
        got = realize(net, softplus(), xs[:, None])[:, 0]
        gap = float(np.abs(got - want).max())
        assert gap <= math.log(2.0) / beta * float(np.abs(coeffs).sum()) + 1e-12
        gaps.append(gap)
    # sharper smoothing shrinks the distance to the exact interpolant
    assert gaps[2] < gaps[1] < gaps[0]


# -- the interpolation nets against the composition they replace -----------------


def _composed_relu(grid, values):
    """One scaled, shifted unit per knot, summed, as the relu builder once composed them."""
    coeffs = _kink_coefficients(grid, values)
    vals = np.asarray(values, dtype=np.float64)
    terms = [
        scalar_mul(c, compose(activation_wrapper(1), affine([[1.0]], [-p])))
        for c, p in zip(coeffs, grid.points)
    ]
    return compose(affine([[1.0]], [vals[0]]), sum_same_depth(terms))


def _composed_leaky(grid, values, alpha):
    coeffs = _kink_coefficients(grid, values)
    vals = np.asarray(values, dtype=np.float64)
    s = abs(1.0 - alpha) / (1.0 - alpha)
    denom = (1.0 - alpha) * (1.0 - alpha**2)
    terms = []
    for c, p in zip(coeffs, grid.points):
        h = c * abs(1.0 - alpha) * alpha / denom
        terms.append(scalar_mul(h, compose(activation_wrapper(1), affine([[-s]], [s * p]))))
    for c, p in zip(coeffs, grid.points):
        h = c * abs(1.0 - alpha) / denom
        terms.append(scalar_mul(h, compose(activation_wrapper(1), affine([[s]], [-s * p]))))
    return compose(affine([[1.0]], [vals[0]]), sum_same_depth(terms))


def _composed_softplus(grid, values, beta):
    coeffs = _kink_coefficients(grid, values)
    vals = np.asarray(values, dtype=np.float64)
    terms = [
        scalar_mul(c / beta, compose(activation_wrapper(1), affine([[beta]], [-beta * p])))
        for c, p in zip(coeffs, grid.points)
    ]
    return compose(affine([[1.0]], [vals[0]]), sum_same_depth(terms))


def _same_layers(a, b):
    return len(a.layers) == len(b.layers) and all(
        x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))
        for la, lb in zip(a.layers, b.layers)
        for x, y in zip(la, lb)
    )


# Signed zeros and the smallest subnormals make kinks whose slopes round to -0.0.
KNOT_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -2.5]) | st.floats(-1e6, 1e6)


@st.composite
def grids_and_values(draw):
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    points = draw(st.floats(-1e4, 1e4)) + np.concatenate([[0.0], np.cumsum(gaps)])
    return Grid(points), np.array(draw(st.lists(KNOT_VALUES, min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(
    grids_and_values(),
    st.sampled_from([0.0, 0.01, 0.2, 0.5, 2.0, 3.5]) | st.floats(0.0, 10.0).filter(lambda a: a != 1.0),
    st.sampled_from([1e-3, 2.0, 7.5, 1e6]) | st.floats(1e-3, 1e6),
)
def test_interp_nets_equal_the_composed_construction_bit_for_bit(grid_and_values, alpha, beta):
    grid, vals = grid_and_values
    assert _same_layers(interp_net_relu(grid, vals), _composed_relu(grid, vals))
    assert _same_layers(interp_net_leaky(grid, vals, alpha), _composed_leaky(grid, vals, alpha))
    assert _same_layers(interp_net_softplus(grid, vals, beta), _composed_softplus(grid, vals, beta))


def test_interp_nets_with_overflowing_entries_are_refused():
    # the last cell's slope 1 / 2.2e-311 is inf, so the kinks would weigh inf and -inf
    grid, vals = Grid([-3.0, -2.0, -1.0, 0.0, 2.2e-311]), [0.0, 0.0, 0.0, 0.0, 1.0]
    builders = (interp_net_relu, partial(interp_net_leaky, alpha=0.1), partial(interp_net_softplus, beta=2.0))
    with np.errstate(over="ignore"):  # the overflow itself, which the error reports
        for build in builders:
            with pytest.raises(ValueError, match="overflow"):
                build(grid, vals)
        # a finite sharpness whose shifts -beta * knot pass the float range
        with pytest.raises(ValueError, match="overflow"):
            interp_net_softplus(Grid([-3.0, 0.0, 3.0]), [1.0, 0.0, 1.0], 1e308)


def test_a_grid_of_100000_cells_builds_in_arrays():
    # L = 1, q = 2, eps = 0.0063: K = ceil(4 / eps^2) = 100,782. Summing one
    # composed net per knot held 87 MB (tracemalloc peak) and took 31 s here.
    target = LipschitzFn(fn=np.sin, lipschitz=1.0)
    tracemalloc.start()
    try:
        net, g = approx_net_relu(target, 2.0, 0.0063)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.K == 100_782 and dims(net) == (1, 100_783, 1)
    # the net's own arrays take 3.2 MB
    assert peak < 16e6


def test_empirical_modulus_on_a_linear_function():
    xs = np.linspace(-1.0, 1.0, 101)
    mod = empirical_modulus(lambda z: 2.0 * z, xs, h=0.1)
    assert mod == pytest.approx(0.2, abs=1e-12)


def test_approx_grid_frozen_values():
    # L = 1, q = 2: b = (2 L / eps)^(1/(q-1)), K = ceil(2 L b / eps)
    target = LipschitzFn(fn=np.sin, lipschitz=1.0)
    grid, vals, b, K = _approx_grid(target, 2.0, 0.5)
    assert (b, K) == (4.0, 16)
    grid, vals, b, K = _approx_grid(target, 2.0, 0.1)
    assert (b, K) == (20.0, 400)
    assert grid.points[0] == -b and grid.points[-1] == b
    assert vals.shape == (K + 1,)


def test_approx_grid_rejects_bad_targets():
    target = LipschitzFn(fn=np.sin, lipschitz=1.0)
    with pytest.raises(ValueError):
        _approx_grid(target, 2.0, 0.0)
    with pytest.raises(ValueError):
        _approx_grid(target, 2.0, 1.5)
    with pytest.raises(ValueError):
        _approx_grid(target, 1.0, 0.5)


def _refuse_linspace(*args, **kwargs):
    raise AssertionError("np.linspace was called")


def test_a_grid_over_the_parameter_limit_is_refused_before_it_is_allocated(monkeypatch):
    # L = 1, q = 2: K = ceil(4 / eps^2). At eps = 1e-4 the relu net would have
    # 1.2e9 parameters; at eps = 4.5e-4 (K = 19,753,087) the relu net has
    # 5.9e7, under the limit, and the leaky one, two units per knot, 1.2e8.
    monkeypatch.setattr(np, "linspace", _refuse_linspace)
    target = LipschitzFn(fn=np.sin, lipschitz=1.0)
    for build in (
        lambda eps: approx_net_relu(target, 2.0, eps),
        lambda eps: approx_net_softplus(target, 2.0, eps),
        lambda eps: approx_net_leaky(target, 2.0, eps, 0.1),
    ):
        with pytest.raises(ValueError, match="over the limit of 100000000"):
            build(1e-4)
    with pytest.raises(ValueError, match="19753087 grid cells .* 118518529 parameters"):
        approx_net_leaky(target, 2.0, 4.5e-4, 0.1)
    with pytest.raises(AssertionError, match="linspace"):  # under the limit the grid is built
        approx_net_relu(target, 2.0, 4.5e-4)


def weighted_error(net, act, fn, q, lo=-12.0, hi=12.0, n=2001):
    xs = np.linspace(lo, hi, n)
    got = realize(net, act, xs[:, None])[:, 0]
    return float(np.max(np.abs(got - fn(xs)) / np.maximum(1.0, np.abs(xs) ** q)))


def slope_samples(net, act, lo=-12.0, hi=12.0, n=2001):
    xs = np.linspace(lo, hi, n)
    got = realize(net, act, xs[:, None])[:, 0]
    return float(np.max(np.abs(np.diff(got)) / np.diff(xs)))


def test_approx_net_relu_meets_growth_weighted_bound():
    target = LipschitzFn(fn=np.sin, lipschitz=1.0)
    net, g = approx_net_relu(target, 2.0, 0.5)
    assert isinstance(g, ApproxGuarantee)
    assert g.width == g.K + 1
    assert g.params == param_count(net)
    assert weighted_error(net, relu(), np.sin, 2.0) <= 0.5
    assert slope_samples(net, relu()) <= 1.0 + 1e-9


def test_approx_net_leaky_meets_growth_weighted_bound():
    target = LipschitzFn(fn=np.sin, lipschitz=1.0)
    net, g = approx_net_leaky(target, 2.0, 0.5, 0.2)
    assert g.width == 2 * (g.K + 1)
    assert weighted_error(net, leaky_relu(0.2), np.sin, 2.0) <= 0.5 + 1e-9
    assert slope_samples(net, leaky_relu(0.2)) <= 1.0 + 1e-9


def test_approx_net_softplus_meets_doubled_bound():
    target = LipschitzFn(fn=np.sin, lipschitz=1.0)
    net, g = approx_net_softplus(target, 2.0, 0.5)
    assert weighted_error(net, softplus(), np.sin, 2.0) <= 2.0 * 0.5
    assert slope_samples(net, softplus()) <= 1.0 + 1e-9


def test_lipschitz_fn_validation():
    with pytest.raises(ValueError):
        LipschitzFn(fn=np.sin, lipschitz=-1.0)
    with pytest.raises(ValueError):
        LipschitzFn(fn=np.sin, lipschitz=float("nan"))
