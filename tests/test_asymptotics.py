import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, strategies as st

from invpower import (DomainError, PotentialMonomial, general_ode_coefficients,
                      ode_coefficients, origin_params, special_p)


def sym_coefficients(alpha, beta, kappa, lam, eps, r):
    """Independent symbolic substitution of the specialized p(r), q(r) forms."""
    a, b, k, L, rr = sp.Rational(alpha), sp.Rational(beta), sp.Rational(kappa), \
        sp.Rational(lam), sp.Rational(r)
    p = 2 * sp.sqrt(a) * rr ** (-b / 2) + 2 * sp.I * eps * sp.sqrt(k)
    q = (-b / 2 * sp.sqrt(a) * rr ** (-b / 2 - 1)
         + 2 * sp.I * eps * sp.sqrt(a * k) * rr ** (-b / 2)
         - (L**2 - sp.Rational(1, 4)) / rr**2)
    return complex(p), complex(q)


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


@pytest.mark.parametrize("alpha,beta,kappa,lam", [
    (1.0, 4.0, 1.0, 0.5), (2.0, 6.0, 3.0, 1.0), (0.5, 8.0, 0.25, 0.0)])
def test_specialized_coefficients_match_symbolic(alpha, beta, kappa, lam):
    coeffs = ode_coefficients(PotentialMonomial(alpha, beta), kappa, lam, epsilon=1)
    for r in (0.5, 1.0, 2.0):
        p_ref, q_ref = sym_coefficients(alpha, beta, kappa, lam, 1, r)
        assert complex(coeffs.p(r)) == pytest.approx(p_ref, rel=1e-13)
        assert complex(coeffs.q(r)) == pytest.approx(q_ref, rel=1e-13)


def test_desk_values_at_r1():
    coeffs = ode_coefficients(PotentialMonomial(1.0, 4.0), kappa=1.0, lam=0.5, epsilon=1)
    assert complex(coeffs.p(1.0)) == pytest.approx(2.0 + 2.0j, rel=1e-14)
    assert complex(coeffs.q(1.0)) == pytest.approx(-2.0 + 2.0j, rel=1e-14)


def test_epsilon_conjugation():
    pot = PotentialMonomial(1.3, 6.0)
    plus = ode_coefficients(pot, 2.0, 1.0, epsilon=1)
    minus = ode_coefficients(pot, 2.0, 1.0, epsilon=-1)
    r = np.geomspace(0.1, 10.0, 25)
    assert np.allclose(minus.p(r), np.conj(plus.p(r)), rtol=1e-15)
    assert np.allclose(minus.q(r), np.conj(plus.q(r)), rtol=1e-15)


def test_general_form_agrees_when_conditions_hold():
    pot = PotentialMonomial(2.0, 6.0)
    origin = origin_params(pot)
    special = ode_coefficients(pot, 1.5, 1.0, epsilon=1)
    general = general_ode_coefficients(pot, origin.gamma, origin.delta, 1.5, 1.0, epsilon=1)
    for r in (0.5, 1.0, 2.0):
        assert complex(general.p(r)) == pytest.approx(complex(special.p(r)), rel=1e-13)
        assert complex(general.q(r)) == pytest.approx(complex(special.q(r)), rel=1e-13)


def test_general_form_symbolic_value():
    # gamma = delta = 1, alpha = 1, beta = 4, kappa = 1, lam = 1/2, eps = +1:
    # q(1) = 1 - 2 + 2i - 1 - 0 = -2 + 2i
    general = general_ode_coefficients(PotentialMonomial(1.0, 4.0), 1.0, 1.0,
                                       1.0, 0.5, epsilon=1)
    assert complex(general.q(1.0)) == pytest.approx(-2.0 + 2.0j, rel=1e-14)


def test_general_form_rejects_bad_delta():
    with pytest.raises(DomainError):
        general_ode_coefficients(PotentialMonomial(1.0, 4.0), 1.0, -1.0, 1.0, 0.5, 1)


def test_scattering_branch_requires_positive_kappa():
    with pytest.raises(DomainError):
        ode_coefficients(PotentialMonomial(1.0, 4.0), kappa=-1.0, lam=0.5, epsilon=1)


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
