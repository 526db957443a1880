import numpy as np
import pytest
from hypothesis import given, strategies as st

from invpower import DomainError, PotentialMonomial, origin_params, special_p


def test_beta4_limiting_form():
    origin = origin_params(PotentialMonomial(alpha=1.0, beta=4.0))
    assert origin.gamma == 1.0
    assert origin.delta == 1.0


def test_origin_params_identity_oracle():
    # gamma^2 delta^2 = alpha and 2 delta + 2 = beta pin the answer uniquely
    origin = origin_params(PotentialMonomial(alpha=4.0, beta=6.0))
    assert origin.gamma == pytest.approx(1.0, rel=1e-14)
    assert origin.delta == pytest.approx(2.0, rel=1e-14)
    assert origin.gamma**2 * origin.delta**2 == pytest.approx(4.0, rel=1e-14)
    assert 2.0 * origin.delta + 2.0 == pytest.approx(6.0, rel=1e-14)


def test_beta_at_most_two_rejected():
    with pytest.raises(DomainError):
        PotentialMonomial(alpha=1.0, beta=2.0)
    with pytest.raises(DomainError):
        PotentialMonomial(alpha=-1.0, beta=4.0)


@pytest.mark.parametrize("beta,expected", [(4.0, 1.0), (8.0, 2.0), (6.0, 1.5)])
def test_special_p(beta, expected):
    assert special_p(beta) == expected


def test_special_p_rejects_small_beta():
    with pytest.raises(DomainError):
        special_p(2.0)


@given(alpha=st.floats(min_value=1e-3, max_value=10.0),
       beta=st.floats(min_value=2.001, max_value=12.0))
def test_consistency_identities(alpha, beta):
    origin = origin_params(PotentialMonomial(alpha=alpha, beta=beta))
    assert origin.gamma**2 * origin.delta**2 == pytest.approx(alpha, rel=1e-14)
    assert 2.0 * origin.delta + 2.0 == pytest.approx(beta, rel=1e-14)


@given(beta=st.floats(min_value=2.001, max_value=12.0))
def test_closure_coefficient_vanishes(beta):
    # with p = beta/4 and delta = beta/2 - 1, the factor (2p - delta - 1) is 0
    origin = origin_params(PotentialMonomial(alpha=1.0, beta=beta))
    assert 2.0 * special_p(beta) - origin.delta - 1.0 == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("alpha,beta", [(1.0, 4.0), (2.0, 6.0), (0.7, 10.0)])
def test_near_origin_residual_decay(alpha, beta):
    # y = r^p exp(-gamma r^-delta): the two leading singular orders cancel,
    # so residual(r) * r^beta stays bounded (indeed decays) as r -> 0
    origin = origin_params(PotentialMonomial(alpha, beta))
    p = special_p(beta)
    kappa, lam = 1.0, 0.5
    scaled = []
    for r in (1e-2, 1e-3, 1e-4):
        kp = p / r + origin.gamma * origin.delta * r ** (-origin.delta - 1.0)
        kpp = -p / r**2 - origin.gamma * origin.delta * (origin.delta + 1.0) \
            * r ** (-origin.delta - 2.0)
        # residual / y, times r^beta
        ratio = r**beta * (kpp + kp * kp + kappa - (lam**2 - 0.25) / r**2) - alpha
        scaled.append(abs(ratio))
    assert all(v < max(1.0, alpha) for v in scaled)
    # decay toward the origin, up to the double-rounding floor of the
    # subtraction against alpha
    assert scaled[2] <= max(scaled[0], 8.0 * np.finfo(float).eps * alpha)
