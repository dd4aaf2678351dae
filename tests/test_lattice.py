"""Geometry, couplings, and lattice sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfid.errors import (
    DegenerateGeometryError,
    InvalidSpecError,
    UnsupportedPowerError,
)
from spinfid.lattice import (
    CouplingTable,
    LatticeSpec,
    build_couplings,
    equivalent_sites_check,
    lattice_from_config,
    lattice_sum,
)


def two_site_spec(offset, scale=1.0, field=(0.0, 0.0, 1.0)):
    return LatticeSpec(site_positions=np.array([[0.0, 0.0, 0.0], offset]),
                       field_direction=np.array(field), coupling_scale=scale)


def test_aligned_pair_coupling():
    # theta = 0, r = 1: (1 - 3)/2 = -1
    table = build_couplings(two_site_spec([0.0, 0.0, 1.0]))
    assert table.b[0, 1] == pytest.approx(-1.0, abs=1e-15)


def test_magic_angle_kills_coupling():
    # cos^2 theta = 1/3 zeroes the dipolar coupling
    c = 1.0 / np.sqrt(3.0)
    s = np.sqrt(1.0 - c * c)
    table = build_couplings(two_site_spec([s, 0.0, c]))
    assert abs(table.b[0, 1]) < 1e-15


def test_perpendicular_pair_at_distance_two():
    # theta = pi/2, r = 2: 1/(2*8) = 1/16
    table = build_couplings(two_site_spec([2.0, 0.0, 0.0]))
    assert table.b[0, 1] == pytest.approx(0.0625, abs=1e-16)


def test_a_is_minus_half_b():
    rng = np.random.default_rng(7)
    spec = LatticeSpec(site_positions=rng.normal(size=(6, 3)),
                       field_direction=np.array([0.0, 0.0, 1.0]))
    table = build_couplings(spec)
    np.testing.assert_allclose(table.a, -table.b / 2.0, rtol=1e-15, atol=0)


def test_coincident_sites_rejected():
    with pytest.raises(DegenerateGeometryError):
        build_couplings(two_site_spec([0.0, 0.0, 0.0]))


def test_zero_field_rejected():
    with pytest.raises(InvalidSpecError):
        two_site_spec([0.0, 0.0, 1.0], field=(0.0, 0.0, 0.0))


@settings(max_examples=25, deadline=None)
@given(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0), st.floats(0.1, 2 * np.pi))
def test_rotation_invariance(angle, axis_z, axis_phi):
    # rotating sites and field together leaves the couplings unchanged
    axis = np.array([np.sqrt(1 - axis_z**2) * np.cos(axis_phi),
                     np.sqrt(1 - axis_z**2) * np.sin(axis_phi), axis_z])
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
    rng = np.random.default_rng(42)
    pos = rng.normal(size=(4, 3))
    field = np.array([0.0, 0.0, 1.0])
    t1 = build_couplings(LatticeSpec(site_positions=pos, field_direction=field))
    t2 = build_couplings(LatticeSpec(site_positions=pos @ rot.T, field_direction=rot @ field))
    np.testing.assert_allclose(t1.b, t2.b, atol=1e-12)


def ring_table(n, value=1.0):
    b = np.full((n, n), value)
    np.fill_diagonal(b, 0.0)
    return CouplingTable(b=b)


def test_lattice_sum_values():
    pair = CouplingTable(b=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert lattice_sum(pair, 0, 2) == 1.0
    assert lattice_sum(pair, 0, 4) == 1.0
    six = ring_table(7, 0.3)
    assert lattice_sum(six, 0, 2) == pytest.approx(6 * 0.3**2, rel=1e-15)


def test_lattice_sum_rejects_odd_power():
    with pytest.raises(UnsupportedPowerError):
        lattice_sum(ring_table(3), 0, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.sampled_from([2, 4, 6]))
def test_lattice_sum_even_power_sign_blind(flip_at, p):
    rng = np.random.default_rng(3)
    b = rng.uniform(0.1, 1.0, (6, 6))
    b = (b + b.T) / 2
    np.fill_diagonal(b, 0.0)
    flipped = b.copy()
    flipped[0, flip_at + 1] *= -1
    flipped[flip_at + 1, 0] *= -1
    s1 = lattice_sum(CouplingTable(b=b), 0, p)
    s2 = lattice_sum(CouplingTable(b=flipped), 0, p)
    assert s1 == pytest.approx(s2, rel=1e-14)


def test_equivalent_sites():
    assert equivalent_sites_check(ring_table(2, -0.7))
    assert equivalent_sites_check(ring_table(5, 0.2))
    # collinear chain with unequal spacing: end sites see different couplings
    pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 2.5]])
    table = build_couplings(LatticeSpec(site_positions=pos, field_direction=np.array([0.0, 0.0, 1.0])))
    assert not equivalent_sites_check(table)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
def test_equivalent_sites_at_any_coupling_scale(scale):
    # a ring normal to the field is circulant up to roundoff, which grows
    # with the couplings; the check compares them relative to max |b|
    n = 20
    ang = 2.0 * np.pi * np.arange(n) / n
    pos = np.stack([np.cos(ang), np.sin(ang), np.zeros(n)], axis=1) * (0.5 / np.sin(np.pi / n))
    table = build_couplings(LatticeSpec(site_positions=pos, coupling_scale=scale))
    assert equivalent_sites_check(table)
    pos[3, 0] += 1e-6
    assert not equivalent_sites_check(build_couplings(LatticeSpec(site_positions=pos,
                                                                  coupling_scale=scale)))


def test_table_validation():
    with pytest.raises(InvalidSpecError):
        CouplingTable(b=np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(InvalidSpecError):
        CouplingTable(b=np.array([[1.0, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidSpecError, match="b matrix must be finite"):
            CouplingTable(b=np.array([[0.0, bad], [bad, 0.0]]))
        with pytest.raises(InvalidSpecError, match="a matrix must be finite"):
            CouplingTable(b=b, a=np.array([[0.0, bad], [bad, 0.0]]))


def test_lattice_from_config():
    table = lattice_from_config({"b_matrix": [[0.0, 0.5], [0.5, 0.0]]})
    assert table.b[0, 1] == 0.5
    table = lattice_from_config({
        "sites": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        "field_direction": [0.0, 0.0, 2.0],  # normalized internally
        "coupling_scale": 2.0,
    })
    assert table.b[0, 1] == pytest.approx(-2.0)
    with pytest.raises(InvalidSpecError):
        lattice_from_config({})
    with pytest.raises(InvalidSpecError):
        lattice_from_config({"sites": [[0, 0, 0], [0, 0, 1]], "b_matrix": [[0, 1], [1, 0]]})
    # keys a b_matrix cannot use are not dropped silently
    with pytest.raises(InvalidSpecError, match="'coupling_scale', 'field_direction'"):
        lattice_from_config({"b_matrix": [[0, 1], [1, 0]], "coupling_scale": 5,
                             "field_direction": [1, 0, 0]})
    with pytest.raises(InvalidSpecError, match="'spacing' not allowed with 'sites'"):
        lattice_from_config({"sites": [[0, 0, 0], [0, 0, 1]], "coupling_scale": 2.0,
                             "spacing": 2.0})
