import math
from dataclasses import fields, replace

import pytest
import scipy.constants as const
from hypothesis import given, strategies as st

from dqdsim import (CYCLOTRON_COEFF, ELECTRON, HBAR2_OVER_2M0, HOLE,
                    CalibrationTarget, DeviceSpec, FieldPoint,
                    ParticleSpecies, SolverOptions, cyclotron_energy,
                    default_device, kinetic_coefficient)
from dqdsim.core import MIN_PADDING


def test_hbar2_over_2m0_matches_codata():
    # independent lookup through scipy.constants (CODATA vintages differ
    # at the 1e-9 level, far inside the 0.01% contract)
    ref = const.hbar ** 2 / (2 * const.m_e) / (const.e * 1e-3) * 1e18
    assert HBAR2_OVER_2M0 == pytest.approx(ref, rel=1e-8)
    assert HBAR2_OVER_2M0 == pytest.approx(38.0998, rel=1e-4)


def test_cyclotron_coeff_is_two_bohr_magnetons():
    mu_b = const.physical_constants["Bohr magneton"][0]
    ref = 2 * mu_b / (const.e * 1e-3)
    assert CYCLOTRON_COEFF == pytest.approx(ref, rel=1e-8)
    assert CYCLOTRON_COEFF == pytest.approx(0.115767, rel=1e-4)


@pytest.mark.parametrize("mass_ratio,expected", [
    (1.0, 38.0998),
    (0.03, 1269.99),
    (0.06, 634.997),
])
def test_kinetic_coefficient(mass_ratio, expected):
    species = ParticleSpecies("electron", mass_ratio, 30.0, -1)
    assert kinetic_coefficient(species) == pytest.approx(expected, rel=1e-4)


@pytest.mark.parametrize("species,b,expected", [
    (ELECTRON, 0.0, 0.0),
    (ELECTRON, 8.0, 30.87),
    (HOLE, 8.0, 15.44),
])
def test_cyclotron_energy_values(species, b, expected):
    value = cyclotron_energy(species, FieldPoint(b))
    assert value == pytest.approx(expected, abs=5e-3)


@given(b=st.one_of(st.just(0.0),
                   st.floats(min_value=1e-9, max_value=100.0)),
       mass=st.floats(min_value=1e-3, max_value=10.0))
def test_cyclotron_linear_in_field_and_inverse_in_mass(b, mass):
    species = ParticleSpecies("electron", mass, 30.0, -1)
    doubled_mass = ParticleSpecies("electron", 2 * mass, 30.0, -1)
    one = cyclotron_energy(species, FieldPoint(b))
    # doubling B doubles the energy exactly; doubling mass halves it exactly
    assert cyclotron_energy(species, FieldPoint(2 * b)) == 2 * one
    assert cyclotron_energy(doubled_mass, FieldPoint(b)) == one / 2


@pytest.mark.parametrize("kwargs", [
    dict(mass_ratio=0.0), dict(mass_ratio=-1.0),
    dict(lateral_quantum=0.0), dict(hyz_sign=0), dict(hyz_sign=2),
])
def test_species_validation(kwargs):
    base = dict(name="electron", mass_ratio=0.03, lateral_quantum=30.0,
                hyz_sign=-1)
    base.update(kwargs)
    with pytest.raises(ValueError):
        ParticleSpecies(**base)


def test_field_validation():
    with pytest.raises(ValueError):
        FieldPoint(-0.1)
    assert FieldPoint(0.0).b == 0.0


@pytest.mark.parametrize("b", [float("nan"), float("inf")])
def test_non_finite_field_rejected(b):
    with pytest.raises(ValueError, match="finite"):
        FieldPoint(b)


def test_device_validation():
    with pytest.raises(ValueError, match="dot 1"):
        DeviceSpec(well_width_h=4.5, barrier_l=7.0,
                   depth_e_dot1=200.0, depth_e_dot2=239.0,
                   depth_h_dot1=119.5, depth_h_dot2=101.5)
    with pytest.raises(ValueError):
        DeviceSpec(well_width_h=0.0, barrier_l=7.0,
                   depth_e_dot1=239.0, depth_e_dot2=203.0,
                   depth_h_dot1=119.5, depth_h_dot2=101.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("base,name", [
    (base, f.name) for base in (default_device(), ELECTRON, SolverOptions(),
                                FieldPoint(0.0),
                                CalibrationTarget(-150.0, -100.0))
    for f in fields(base) if f.name != "name"])
def test_non_finite_field_values_rejected(base, name, value):
    with pytest.raises(ValueError, match="finite"):
        replace(base, **{name: value})


def test_min_padding_is_the_solver_floor():
    assert SolverOptions(padding=MIN_PADDING).padding == MIN_PADDING
    with pytest.raises(ValueError, match=f"padding >= {MIN_PADDING}"):
        SolverOptions(padding=MIN_PADDING - 0.01)


def test_device_depth_lookup(device):
    assert device.depths_for(ELECTRON) == (239.0, 203.0)
    assert device.depths_for(HOLE) == (119.5, 101.5)
    assert device.with_barrier(3.0).barrier_l == 3.0
    # default hole depths are exactly half the electron ones
    assert device.depth_h_dot1 == device.depth_e_dot1 / 2
    assert device.depth_h_dot2 == device.depth_e_dot2 / 2


def test_hole_electron_signs():
    assert ELECTRON.hyz_sign == -1
    assert HOLE.hyz_sign == +1
    assert math.isclose(ELECTRON.lateral_quantum, 30.0)
    assert math.isclose(HOLE.lateral_quantum, 15.0)
