"""Geometry and effective-model construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorqed.model import (
    GeometryError,
    ParameterError,
    PhysicalParams,
    ResonanceError,
    build_effective_model,
    params_from_dimensionless,
    snap_block_length,
)


def test_derived_rates():
    p = PhysicalParams(omega0=100.0, v=2.0, x0=3.0, g=0.5)
    assert p.Gamma == pytest.approx(2 * 0.5**2 / 2.0)
    assert p.tau == pytest.approx(2 * 3.0 / 2.0)
    assert p.phi == pytest.approx(2 * (100.0 / 2.0) * 3.0)


@pytest.mark.parametrize("bad", [
    dict(omega0=-1.0, v=1.0, x0=1.0, g=1.0),
    dict(omega0=1.0, v=0.0, x0=1.0, g=1.0),
    dict(omega0=1.0, v=1.0, x0=math.nan, g=1.0),
])
def test_nonpositive_inputs_rejected(bad):
    with pytest.raises(ParameterError):
        PhysicalParams(**bad)


@given(
    Gamma_tau=st.floats(0.01, 10.0),
    phi=st.floats(0.0, 2 * math.pi),
)
@settings(max_examples=60, deadline=None)
def test_dimensionless_round_trip(Gamma_tau, phi):
    p = params_from_dimensionless(Gamma_tau, phi)
    assert p.Gamma * p.tau == pytest.approx(Gamma_tau, rel=1e-12)
    # phase is realized modulo 2*pi with even windings
    assert math.cos(p.phi) == pytest.approx(math.cos(phi), abs=1e-6)
    assert math.sin(p.phi) == pytest.approx(math.sin(phi), abs=1e-6)
    assert (round(p.phi / (2 * math.pi) - phi / (2 * math.pi))) % 2 == 0


def test_dimensionless_units_default():
    p = params_from_dimensionless(2.0, math.pi / 2)
    assert p.Gamma == pytest.approx(1.0)
    assert p.v == pytest.approx(1.0)


def test_snap_block_length_hits_ratio():
    p = params_from_dimensionless(2.0, math.pi / 2)
    L = snap_block_length(p, 2.0)
    n = L / p.half_wavelength
    assert abs(n - round(n)) < 1e-9
    assert abs(L - 2.0 * p.x0) <= p.half_wavelength
    assert L > p.x0


def test_snap_block_length_ratio_one_exceeds_x0():
    p = params_from_dimensionless(0.25, math.pi)
    L = snap_block_length(p, 1.0)
    assert L > p.x0
    # within one half wavelength of the mirror distance itself
    assert L - p.x0 <= 2 * p.half_wavelength


def test_snap_requires_ratio_at_least_one():
    p = params_from_dimensionless(2.0, math.pi)
    with pytest.raises(ParameterError):
        snap_block_length(p, 0.5)


def test_mode_ladder_structure():
    p = params_from_dimensionless(2.0, math.pi / 2)
    L = snap_block_length(p, 2.0)
    m = build_effective_model(p, L, N_A=3)
    assert m.nu == (-3, -2, -1, 0, 1, 2, 3)
    # resonant mode sits exactly at the atom frequency
    assert m.Omega[m.nu.index(0)] == pytest.approx(p.omega0)
    spac = np.diff(m.Omega)
    assert np.allclose(spac, p.v * math.pi / L, rtol=1e-12)
    assert m.gamma == pytest.approx(2 * p.v / L)
    # couplings bounded by the continuum density factor
    assert all(abs(g) <= p.g * math.sqrt(2 / L) + 1e-15 for g in m.g_nu)


def test_resonant_coupling_value():
    p = params_from_dimensionless(1.0, math.pi)
    L = snap_block_length(p, 2.0)
    m = build_effective_model(p, L, N_A=0)
    g0 = p.g * math.sqrt(2 / L) * math.sin(p.phi / 2)
    assert m.g_nu[0] == pytest.approx(g0, rel=1e-9)


def test_detunings_are_frame_independent_offsets():
    p = params_from_dimensionless(2.0, math.pi / 2)
    L = snap_block_length(p, 2.0)
    m = build_effective_model(p, L, N_A=2)
    det = m.detunings()
    assert det[m.nu.index(0)] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(det, [nu * math.pi * p.v / L for nu in m.nu], atol=1e-9)


def test_off_resonant_length_rejected():
    p = params_from_dimensionless(2.0, math.pi / 2)
    L = snap_block_length(p, 2.0)
    with pytest.raises(ResonanceError):
        build_effective_model(p, L * (1 + 0.3 / (L / p.half_wavelength)), N_A=1)


def test_block_shorter_than_mirror_distance_rejected():
    p = params_from_dimensionless(2.0, math.pi / 2)
    with pytest.raises(GeometryError):
        build_effective_model(p, 0.5 * p.x0, N_A=1)
