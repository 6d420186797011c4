import numpy as np
import pytest

from picardnets import (
    default_identity,
    dims,
    identity_leaky,
    identity_repu,
    identity_softplus,
    leaky_relu,
    monomial_net,
    realize,
    relu,
    repu,
    softplus,
)
from picardnets.identities import _shift_coefficients

XS = np.linspace(-5.0, 5.0, 201)[:, None]


def test_shift_coefficients_quadratic_case():
    # hand-solved for exponent 2 at nodes (1, 2):
    #   c1 + c2 = 0, c1 + 2 c2 = 1/2, c0 + c1 + 4 c2 = 0
    c0, coeffs = _shift_coefficients(2, np.array([1.0, 2.0]))
    assert c0 == pytest.approx(-1.5, abs=1e-12)
    assert coeffs == pytest.approx([-0.5, 0.5], abs=1e-12)


@pytest.mark.parametrize("gamma", [1, 2, 3, 4])
def test_monomial_net_realizes_power_under_repu(gamma):
    act = repu(gamma) if gamma >= 2 else relu()
    got = realize(monomial_net(gamma), act, XS)[:, 0]
    np.testing.assert_allclose(got, XS[:, 0] ** gamma, rtol=1e-12, atol=1e-12)


def test_monomial_net_rejects_negative_exponent():
    with pytest.raises(ValueError):
        monomial_net(-1)


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.3, 2.5])
def test_identity_leaky(alpha):
    act = leaky_relu(alpha) if alpha > 0 else relu()
    net = identity_leaky(alpha)
    assert dims(net) == (1, 2, 1)
    got = realize(net, act, XS)[:, 0]
    np.testing.assert_allclose(got, XS[:, 0], rtol=1e-14, atol=1e-14)


def test_identity_leaky_is_exact_for_plain_relu():
    got = realize(identity_leaky(0.0), relu(), XS)[:, 0]
    assert np.array_equal(got, XS[:, 0])


def test_identity_leaky_rejects_slope_one():
    with pytest.raises(ValueError):
        identity_leaky(1.0)
    with pytest.raises(ValueError):
        identity_leaky(-0.5)


def test_identity_softplus():
    xs = np.linspace(-30.0, 30.0, 301)[:, None]
    got = realize(identity_softplus(), softplus(), xs)[:, 0]
    np.testing.assert_allclose(got, xs[:, 0], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("gamma", [2, 3, 4, 5])
def test_identity_repu(gamma):
    act = repu(gamma)
    net = identity_repu(gamma)
    assert dims(net) == (1, 2 * gamma, 1)
    got = realize(net, act, XS)[:, 0]
    np.testing.assert_allclose(got, XS[:, 0], rtol=0, atol=1e-9 * (1 + 5.0**gamma))


def test_identity_repu_rejects_low_exponent_and_bad_nodes():
    with pytest.raises(ValueError):
        identity_repu(1)
    # the nodes 1..8 give a condition estimate of about 9e12
    with pytest.raises(ValueError, match="ill-conditioned"):
        identity_repu(8)


def test_default_identity_dispatch():
    table = [
        (relu(), (1, 2, 1)),
        (leaky_relu(0.1), (1, 2, 1)),
        (softplus(), (1, 2, 1)),
        (repu(3), (1, 6, 1)),
    ]
    for act, want_dims in table:
        net = default_identity(act)
        assert dims(net) == want_dims
        got = realize(net, act, XS)[:, 0]
        np.testing.assert_allclose(got, XS[:, 0], rtol=0, atol=1e-9 * (1 + 5.0**3))
