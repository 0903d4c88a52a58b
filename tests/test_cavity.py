"""Cavity eigenmode, spectrum, finesse and build-up tests.

The mode solver is checked against an independent fixed-point iteration of
the round-trip q map written here from scratch (its own matrices, its own
iteration), not against the package's internals.
"""
import math

import numpy as np
import pytest

from qndsim.cavity import (
    CavityGeometry,
    backscatter_modulation,
    coupling_efficiency,
    finesse_from_reflectivity,
    intracavity_power,
    mode_spacings,
    solve_mode,
    transverse_spectrum,
)
from qndsim.constants import C
from qndsim.errors import DomainError, UnstableCavity


# ---------------------------------------------------------------- oracle

def _oracle_round_trip(geom, axis):
    """Round-trip ABCD from the crossing plane, rebuilt independently."""
    theta = geom.fold_angle / 2.0
    if axis == "horizontal":
        radius = geom.astigmatism_correction * geom.mirror_radius * math.cos(theta)
    else:
        radius = geom.mirror_radius / math.cos(theta)
    short = geom.round_trip_length / (2.0 * (1.0 + geom.segment_ratio))
    long = geom.segment_ratio * short
    prop = lambda L: np.array([[1.0, L], [0.0, 1.0]])
    mirror = np.array([[1.0, 0.0], [-2.0 / radius, 1.0]])
    m = np.eye(2)
    for elem in [prop(long / 2), mirror, prop(short), mirror, prop(long),
                 mirror, prop(short), mirror, prop(long / 2)]:
        m = elem @ m
    return m


def _oracle_waist(geom, axis, tol=1e-14, max_iter=200000):
    """Waist from damped fixed-point iteration of q -> (Aq+B)/(Cq+D).

    The bare Mobius map of a stable cavity is elliptic and does not
    converge under plain iteration; averaging with the previous iterate
    turns it into a contraction toward the same fixed point.
    """
    m = _oracle_round_trip(geom, axis)
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    q = 0.03j
    for _ in range(max_iter):
        q_next = 0.5 * (q + (a * q + b) / (c * q + d))
        if abs(q_next - q) < tol * abs(q):
            q = q_next
            break
        q = q_next
    assert q.imag > 0, "oracle iteration left the upper half plane"
    return math.sqrt(geom.wavelength * q.imag / math.pi)


# ---------------------------------------------------------------- solve_mode

def test_solve_mode_matches_fixed_point_oracle_over_astigmatism_sweep():
    for alpha in np.linspace(1.00, 1.04, 9):
        geom = CavityGeometry(astigmatism_correction=float(alpha))
        mode = solve_mode(geom)
        assert mode.waist_par == pytest.approx(
            _oracle_waist(geom, "horizontal"), rel=1e-9, abs=0)
        assert mode.waist_perp == pytest.approx(
            _oracle_waist(geom, "vertical"), rel=1e-9, abs=0)


def test_round_trip_self_consistency_residual():
    geom = CavityGeometry()
    mode = solve_mode(geom)
    for axis, z_r in (("horizontal", mode.rayleigh_par),
                      ("vertical", mode.rayleigh_perp)):
        q = complex(0.0, z_r)  # waist sits at the crossing plane
        m = _oracle_round_trip(geom, axis)
        q_out = (m[0, 0] * q + m[0, 1]) / (m[1, 0] * q + m[1, 1])
        assert abs(q_out - q) < 1e-12 * abs(q)


def test_zero_fold_angle_degenerate_axes():
    geom = CavityGeometry(fold_angle=0.0, astigmatism_correction=1.0)
    mode = solve_mode(geom)
    assert mode.waist_par == pytest.approx(mode.waist_perp, rel=1e-12, abs=0)
    assert mode.gouy_par == pytest.approx(mode.gouy_perp, rel=1e-12, abs=0)


def test_rayleigh_range_consistent_with_waist():
    mode = solve_mode(CavityGeometry())
    lam = CavityGeometry().wavelength
    assert mode.rayleigh_par == pytest.approx(
        math.pi * mode.waist_par**2 / lam, rel=1e-12, abs=0)
    assert mode.rayleigh_perp == pytest.approx(
        math.pi * mode.waist_perp**2 / lam, rel=1e-12, abs=0)


def test_plane_mirror_limit_unstable():
    with pytest.raises(UnstableCavity):
        solve_mode(CavityGeometry(mirror_radius=math.inf))


def test_unstable_cavity_reports_axis():
    # shrink the length until only one axis survives, then check the message
    with pytest.raises(UnstableCavity, match="axis"):
        solve_mode(CavityGeometry(round_trip_length=3.0))


def test_finesse_and_linewidth_fields():
    mode = solve_mode(CavityGeometry())
    assert mode.finesse == pytest.approx(finesse_from_reflectivity(0.99956))
    assert mode.linewidth == pytest.approx(mode.fsr / mode.finesse)
    assert mode.fsr == pytest.approx(976.2e6)


def test_stability_sweep_never_returns_bad_mode():
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(200):
        geom = CavityGeometry(
            round_trip_length=float(rng.uniform(0.05, 1.0)),
            mirror_radius=float(rng.uniform(0.02, 0.5)),
            fold_angle=float(rng.uniform(0.0, 1.2)),
            astigmatism_correction=float(rng.uniform(0.8, 1.2)),
        )
        try:
            mode = solve_mode(geom)
        except UnstableCavity:
            continue
        solved += 1
        assert mode.waist_par > 0 and mode.waist_perp > 0
        assert mode.rayleigh_par > 0 and mode.rayleigh_perp > 0
    assert solved > 20  # the sweep must actually exercise stable geometries


# ---------------------------------------------------------------- spectrum

def test_fundamental_offset_is_zero():
    rows = dict(((m, n), off) for m, n, off in
                transverse_spectrum(CavityGeometry(), 2))
    assert rows[(0, 0)] == 0.0


def test_spectrum_monotone_along_pure_ladders():
    # nearest-fundamental folding reflects at FSR/2, so monotonicity in the
    # mode order is only guaranteed while m*spacing stays below FSR/2; the
    # default geometry keeps both pure ladders below that up to order 3
    rows = dict(((m, n), off) for m, n, off in
                transverse_spectrum(CavityGeometry(), 3))
    horizontal = [rows[(m, 0)] for m in range(4)]
    vertical = [rows[(0, n)] for n in range(4)]
    assert all(b > a for a, b in zip(horizontal, horizontal[1:]))
    assert all(b > a for a, b in zip(vertical, vertical[1:]))


def test_degenerate_axes_give_identical_spacings():
    geom = CavityGeometry(fold_angle=0.0, astigmatism_correction=1.0)
    sp_h, sp_v = mode_spacings(geom)
    assert sp_h == pytest.approx(sp_v, rel=1e-12, abs=0)


def test_uncorrected_spacing_matches_direct_gouy_evaluation():
    # independent re-derivation with R_par = R*cos(theta), alpha = 1
    geom = CavityGeometry(astigmatism_correction=1.0)
    m = _oracle_round_trip(geom, "horizontal")
    q = None
    # closed form from the oracle matrix, written out again here
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    disc = complex((d - a) ** 2 + 4 * b * c) ** 0.5
    for root in (((a - d) + disc) / (2 * c), ((a - d) - disc) / (2 * c)):
        if root.imag > 0:
            q = root
    # accumulate Gouy segment by segment with atan(z/zr)
    theta = geom.fold_angle / 2.0
    radius = geom.mirror_radius * math.cos(theta)
    short = geom.round_trip_length / (2.0 * (1.0 + geom.segment_ratio))
    long = geom.segment_ratio * short
    gouy = 0.0
    for kind, val in [("p", long / 2), ("m", radius), ("p", short),
                      ("m", radius), ("p", long), ("m", radius),
                      ("p", short), ("m", radius), ("p", long / 2)]:
        if kind == "p":
            gouy += math.atan2(q.real + val, q.imag) - math.atan2(q.real, q.imag)
            q = q + val
        else:
            q = q / (1.0 - 2.0 / val * q)
    fsr = C / geom.round_trip_length
    raw = fsr * gouy / (2 * math.pi)
    expected = min(raw % fsr, fsr - raw % fsr)
    sp_h, _ = mode_spacings(geom)
    assert sp_h == pytest.approx(expected, rel=1e-9, abs=0)


# ---------------------------------------------------------------- finesse

def test_finesse_hand_value_at_half():
    assert finesse_from_reflectivity(0.5) == pytest.approx(
        math.pi * 0.25 / (1 - 0.0625), rel=1e-12, abs=0)


def test_finesse_paper_reflectivities():
    f_1560 = finesse_from_reflectivity(0.99956)
    assert f_1560 == pytest.approx(1784, rel=5e-3, abs=0)
    assert f_1560 == pytest.approx(1788, rel=3e-3, abs=0)
    assert finesse_from_reflectivity(0.9999923) == pytest.approx(102000, rel=1e-2, abs=0)


def test_finesse_strictly_increasing():
    rs = np.linspace(0.05, 0.999999, 400)
    vals = [finesse_from_reflectivity(float(r)) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_finesse_domain():
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(DomainError):
            finesse_from_reflectivity(bad)


# ---------------------------------------------------------------- build-up

def test_intracavity_power_values():
    assert intracavity_power(1e-3, 1788.0, 1.5) == pytest.approx(2.846, rel=1e-3, abs=0)
    # invert for the 200 W operating point
    p_out = 200.0 / (2 * 2.5 * 1788.0 / math.pi)
    assert p_out == pytest.approx(70.3e-3, rel=1e-2, abs=0)
    assert intracavity_power(p_out, 1788.0, 1.5) == pytest.approx(200.0, rel=1e-12, abs=0)
    assert intracavity_power(0.0, 1788.0, 0.0) == 0.0


def test_intracavity_power_linear():
    base = intracavity_power(2e-3, 1000.0, 1.5)
    assert intracavity_power(4e-3, 1000.0, 1.5) == pytest.approx(2 * base)
    assert intracavity_power(2e-3, 3000.0, 1.5) == pytest.approx(3 * base)
    with pytest.raises(DomainError):
        intracavity_power(-1e-3, 1000.0, 1.5)


def test_coupling_efficiency_values():
    assert coupling_efficiency(1.5) == pytest.approx(0.36, abs=1e-15)
    assert coupling_efficiency(0.0) == pytest.approx(0.75, abs=1e-15)
    assert coupling_efficiency(3.0) == pytest.approx(4 * 15 / 16**2, abs=1e-15)


def test_backscatter_modulation():
    assert backscatter_modulation(1.9e-3) == pytest.approx(0.0436, rel=1e-2, abs=0)
    assert backscatter_modulation(0.0) == 0.0
    assert backscatter_modulation(0.01) == pytest.approx(0.1, rel=1e-12, abs=0)
    for bad in (-1e-3, 1.0, 2.0):
        with pytest.raises(DomainError):
            backscatter_modulation(bad)


# ---------------------------------------------------------------- geometry

def test_geometry_validation():
    with pytest.raises(DomainError):
        CavityGeometry(round_trip_length=-1.0)
    with pytest.raises(DomainError):
        CavityGeometry(amplitude_reflectivity=1.2)
    with pytest.raises(DomainError):
        CavityGeometry(astigmatism_correction=0.0)
    with pytest.raises(DomainError):
        CavityGeometry(segment_ratio=-2.0)


def test_crossed_square_length_bookkeeping():
    geom = CavityGeometry()
    long, short = geom.segment_lengths
    assert long / short == pytest.approx(math.sqrt(2.0), rel=1e-12, abs=0)
    assert 2 * (long + short) == pytest.approx(geom.round_trip_length, rel=1e-12, abs=0)
    assert geom.incidence_angle == pytest.approx(math.pi / 8)
