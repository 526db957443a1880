import pytest
from hypothesis import given, strategies as st

from invpower import DomainError, QuantumSetup, reduce_problem


def test_free_particle_3d():
    setup = QuantumSetup(mass=0.5, hbar=1.0, dimension=3, angular_momentum=0, energy=2.0)
    reduced = reduce_problem(setup)
    assert reduced.kappa == pytest.approx(2.0, rel=1e-15)
    assert reduced.lam == pytest.approx(0.5, rel=1e-15)
    assert reduced.terms == ()


def test_two_dimensions_lambda_equals_l():
    setup = QuantumSetup(mass=0.5, hbar=1.0, dimension=2, angular_momentum=3, energy=1.0)
    assert reduce_problem(setup).lam == 3.0


def test_potential_strength_rescaling():
    setup = QuantumSetup(mass=1.0, hbar=1.0, dimension=4, angular_momentum=1, energy=0.0)
    reduced = reduce_problem(setup, [(1.0, 4.0)])
    assert reduced.kappa == 0.0
    assert reduced.lam == 2.0
    assert reduced.terms == ((2.0, 4.0),)


@pytest.mark.parametrize("bad", [
    dict(mass=0.0, hbar=1.0, dimension=3, angular_momentum=0, energy=1.0),
    dict(mass=1.0, hbar=0.0, dimension=3, angular_momentum=0, energy=1.0),
    dict(mass=1.0, hbar=1.0, dimension=1, angular_momentum=0, energy=1.0),
    dict(mass=1.0, hbar=1.0, dimension=3, angular_momentum=-1, energy=1.0),
    dict(mass=1.0, hbar=1.0, dimension=3, angular_momentum=0, energy=float("nan")),
])
def test_invalid_setups_rejected(bad):
    with pytest.raises(DomainError):
        QuantumSetup(**bad)


@given(q=st.integers(min_value=2, max_value=12), l=st.integers(min_value=1, max_value=10))
def test_lambda_invariant_under_dimension_shift(q, l):
    setup_a = QuantumSetup(mass=1.0, hbar=1.0, dimension=q, angular_momentum=l, energy=1.0)
    setup_b = QuantumSetup(mass=1.0, hbar=1.0, dimension=q + 2, angular_momentum=l - 1, energy=1.0)
    assert reduce_problem(setup_a) == reduce_problem(setup_b)


@given(energy=st.floats(min_value=-50.0, max_value=50.0),
       scale=st.floats(min_value=1.0, max_value=8.0))
def test_kappa_linear_in_energy(energy, scale):
    def kappa(e):
        setup = QuantumSetup(mass=1.5, hbar=2.0, dimension=3, angular_momentum=0, energy=e)
        return reduce_problem(setup).kappa

    assert kappa(scale * energy) == pytest.approx(scale * kappa(energy), rel=1e-12, abs=1e-12)
