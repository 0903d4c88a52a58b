"""Crossed dipole trap: potential, frequencies, tomography mapping.

Golden numbers below were frozen from hand evaluation of the potential
formula before the module was written.
"""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qndsim.constants import H, K_B
from qndsim.errors import DomainError, NotAMinimum
from qndsim.trap import (
    DipoleTrapConfig,
    arm_intensity,
    detuning_to_potential,
    isopotential_radius,
    lifetime_decay,
    potential_at,
    trap_depth,
    trap_frequencies,
)

BASE = DipoleTrapConfig()  # 200 W/arm, 93.1/129.8 um waists


# ---------------------------------------------------------------- potential

def test_depth_against_frozen_hand_value():
    # per-arm |U(0)| = alpha/(2 eps0 c) * 2P/(pi a b), evaluated by hand
    assert trap_depth(BASE, arms=1) == pytest.approx(1.35546e-26, rel=1e-4, abs=0)
    assert trap_depth(BASE, arms=2) == pytest.approx(2.71092e-26, rel=1e-4, abs=0)


def test_depth_order_of_magnitude_vs_quoted():
    # quoted 1.4 mK; both the single-arm and crossed readings must sit
    # within a factor 1.5 (the published numbers are not mutually exact)
    for arms in (1, 2):
        depth_mk = trap_depth(BASE, arms=arms) / K_B * 1e3
        assert 1.4 / 1.5 < depth_mk < 1.4 * 1.5


def test_zero_power_vanishes_everywhere():
    cfg = DipoleTrapConfig(power_per_arm=0.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        pos = rng.uniform(-3e-4, 3e-4, size=3)
        assert potential_at(cfg, pos) == 0.0


def test_single_arm_transverse_waist_point_is_e_minus_two():
    on_axis = arm_intensity(BASE, 1, (0.0, 0.0, 0.0))
    at_waist = arm_intensity(BASE, 1, (BASE.waist_par, 0.0, 0.0))
    assert at_waist / on_axis == pytest.approx(math.exp(-2.0), rel=1e-12, abs=0)
    vert = arm_intensity(BASE, 1, (0.0, 0.0, BASE.waist_perp))
    assert vert / on_axis == pytest.approx(math.exp(-2.0), rel=1e-12, abs=0)


def test_arm_exchange_symmetry_at_crossing():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y, z = rng.uniform(-2e-4, 2e-4, size=3)
        assert potential_at(BASE, (x, y, z)) == pytest.approx(
            potential_at(BASE, (y, x, z)), rel=1e-12, abs=0)


def test_potential_negative_and_depth_positive():
    assert potential_at(BASE, (0.0, 0.0, 0.0)) < 0
    assert trap_depth(BASE) > 0
    # depth equals |U(center)| - |U(far along an arm axis)| up to divergence tail
    far = potential_at(BASE, (50.0, 0.0, 0.0))
    assert abs(far) < 1e-6 * trap_depth(BASE)


def test_backscatter_modulation_factor():
    cfg = DipoleTrapConfig(backscatter_depth=0.0436)
    lam = cfg.wavelength
    base = arm_intensity(BASE, 0, (lam / 4.0, 0.0, 0.0))
    modulated = arm_intensity(cfg, 0, (lam / 4.0, 0.0, 0.0))
    # at u = lambda/4 the standing-wave term is cos(pi) = -1
    assert modulated == pytest.approx(base * (1 - 0.0436), rel=1e-9, abs=0)


# ---------------------------------------------------------------- frequencies

def test_frequencies_against_frozen_hand_values():
    fx, fy, fz = trap_frequencies(BASE)
    assert fx == pytest.approx(1047.8, rel=1e-3, abs=0)
    assert fy == pytest.approx(fx, rel=1e-12, abs=0)
    assert fz == pytest.approx(1062.8, rel=1e-3, abs=0)
    # vertical/horizontal ratio is sqrt(2)*w_par/w_perp up to axial terms
    assert fz / fx == pytest.approx(
        math.sqrt(2.0) * BASE.waist_par / BASE.waist_perp, rel=1e-3, abs=0)


def test_frequencies_vs_finite_difference_oracle():
    # five-point central second derivative at 1 um step; truncation error
    # scales as (step/waist)^4 ~ 1e-8, well inside the 1e-6 budget
    h = 1e-6
    coords = np.eye(3)

    def curvature(axis):
        pts = [potential_at(BASE, tuple(s * h * coords[axis])) for s in
               (-2, -1, 0, 1, 2)]
        return (-pts[0] + 16 * pts[1] - 30 * pts[2] + 16 * pts[3] - pts[4]) / (
            12 * h * h)

    freqs = trap_frequencies(BASE)
    for axis in range(3):
        fd = math.sqrt(curvature(axis) / BASE.mass) / (2 * math.pi)
        assert freqs[axis] == pytest.approx(fd, rel=1e-6, abs=0)


def test_frequency_power_scaling():
    doubled = DipoleTrapConfig(power_per_arm=400.0)
    for f1, f2 in zip(trap_frequencies(BASE), trap_frequencies(doubled)):
        assert f2 == pytest.approx(math.sqrt(2.0) * f1, rel=1e-12, abs=0)


@pytest.mark.xfail(strict=True,
                   reason="astigmatic crossed-Gaussian model gives f_z 34% "
                          "below the quoted 1.6 kHz; x and y are within 13%")
def test_frequencies_match_quoted_values_within_30_percent():
    fx, fy, fz = trap_frequencies(BASE)
    assert fx == pytest.approx(1200.0, rel=0.3, abs=0)
    assert fy == pytest.approx(1200.0, rel=0.3, abs=0)
    assert fz == pytest.approx(1600.0, rel=0.3, abs=0)


def test_quoted_horizontal_frequencies_within_30_percent():
    fx, fy, _ = trap_frequencies(BASE)
    assert fx == pytest.approx(1200.0, rel=0.3, abs=0)
    assert fy == pytest.approx(1200.0, rel=0.3, abs=0)


def test_not_a_minimum_cases():
    with pytest.raises(NotAMinimum):
        trap_frequencies(DipoleTrapConfig(power_per_arm=0.0))
    with pytest.raises(NotAMinimum):
        trap_frequencies(DipoleTrapConfig(polarizability=-6.83e-39))


# ---------------------------------------------------------------- tomography

def test_detuning_to_potential_values():
    # U/k_B = 100 uK at ratio 47.7 corresponds to ~97.3 MHz
    u = 100e-6 * K_B
    assert detuning_to_potential(46.7 * K_B * 100e-6 / H) == pytest.approx(
        u, rel=1e-12, abs=0)
    assert detuning_to_potential(97.3e6) == pytest.approx(u, rel=1e-2, abs=0)
    assert detuning_to_potential(0.0) == 0.0


def test_detuning_round_trip_identity():
    # the hand inverse delta = U*(ratio - 1)/h recovers every detuning, and
    # red probe detuning maps to negative U
    rng = np.random.default_rng(5)
    for _ in range(30):
        delta = float(rng.uniform(-5e8, 5e8))
        back = detuning_to_potential(delta) * 46.7 / H
        assert back == pytest.approx(delta, rel=1e-12, abs=0)
        assert detuning_to_potential(-delta) == -detuning_to_potential(delta)


def test_isopotential_radius_against_root_finder():
    # independent check: solve depth*exp(-2 r^2/w^2) = target numerically
    w = 98e-6
    depth = 1.4e-3 * K_B
    for frac in (0.9, 0.5, 0.1, 0.01):
        target = frac * depth
        r = isopotential_radius(depth, target, w)
        r_oracle = brentq(
            lambda rr: depth * math.exp(-2 * rr * rr / (w * w)) - target,
            0.0, 10 * w)
        assert r == pytest.approx(r_oracle, rel=1e-9, abs=0)


def test_isopotential_radius_ratio_matches_profile_inversion():
    # the ratio of radii for two detunings only depends on the log ratio
    w = 98e-6
    depth = 1.0
    u1, u2 = 0.5, 0.1
    r1 = isopotential_radius(depth, u1, w)
    r2 = isopotential_radius(depth, u2, w)
    assert r2 / r1 == pytest.approx(
        math.sqrt(math.log(1 / u2) / math.log(1 / u1)), rel=1e-12, abs=0)
    with pytest.raises(DomainError):
        isopotential_radius(depth, 2.0, w)


# ---------------------------------------------------------------- lifetime

def test_lifetime_decay():
    assert lifetime_decay(2e7, 0.0, 6.6) == 2e7
    assert lifetime_decay(2e7, 6.6, 6.6) == pytest.approx(2e7 / math.e)
    assert lifetime_decay(2e7, 13.2, 6.6) == pytest.approx(2e7 / math.e**2)
    with pytest.raises(DomainError):
        lifetime_decay(2e7, 1.0, 0.0)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(DomainError):
        DipoleTrapConfig(power_per_arm=-1.0)
    with pytest.raises(DomainError):
        DipoleTrapConfig(waist_par=0.0)
    with pytest.raises(DomainError):
        DipoleTrapConfig(polarizability_ratio=0.9)
    with pytest.raises(DomainError):
        DipoleTrapConfig(backscatter_depth=1.0)
