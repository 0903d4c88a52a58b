"""Crossed-beam dipole trap formed by the two intracavity arms.

The two arms of the folded cavity intersect at 90 degrees in the
horizontal plane. Each arm is an astigmatic Gaussian beam whose in-plane
transverse waist differs from the vertical one, with the corresponding
per-axis Rayleigh divergence along the arm. The optical potential is

    U(r) = -Re(alpha) * I(r) / (2 * epsilon_0 * c)

summed over both arms. The dimensional convention above is the standard
dipole-potential form; it reproduces the mK-scale depth from the quoted
polarizability and circulating power.
"""
from __future__ import annotations

import math

import numpy as np

from .constants import (
    C,
    DEFAULTS,
    EPSILON_0,
    GROUND_POLARIZABILITY,
    H,
    POLARIZABILITY_RATIO,
    RB87_MASS,
    Record,
    TRAP_WAVELENGTH,
)
from .errors import DomainError, NotAMinimum


class DipoleTrapConfig(Record):
    """Crossed-trap parameters.

    waist_par is the in-plane transverse waist of each arm, waist_perp the
    vertical one. backscatter_depth is the standing-wave amplitude
    modulation m applied as (1 + m*cos(2k*u)) along each arm; it defaults
    to off because the backscattered fraction is a small perturbation.
    """

    power_per_arm: float = DEFAULTS["power_per_arm"]
    waist_par: float = 93.1e-6
    waist_perp: float = 129.8e-6
    polarizability: float = GROUND_POLARIZABILITY
    polarizability_ratio: float = POLARIZABILITY_RATIO
    mass: float = RB87_MASS
    backscatter_depth: float = 0.0
    wavelength: float = TRAP_WAVELENGTH

    def __post_init__(self) -> None:
        if self.polarizability_ratio <= 1:
            raise DomainError("polarizability_ratio must exceed 1")
        if self.mass <= 0:
            raise DomainError("mass must be positive")

    @property
    def rayleigh_par(self) -> float:
        return math.pi * self.waist_par**2 / self.wavelength

    @property
    def rayleigh_perp(self) -> float:
        return math.pi * self.waist_perp**2 / self.wavelength


def arm_intensity(config: DipoleTrapConfig, arm: int, position) -> float:
    """Intensity of one arm at a point, W/m^2.

    Arm 0 propagates along x, arm 1 along y; both cross at the origin.
    The in-plane transverse direction carries waist_par, the vertical one
    waist_perp, each diverging with its own Rayleigh range. Coordinates may
    be arrays that broadcast; the result then equals the scalar call at
    every point.
    """
    if arm not in (0, 1):
        raise DomainError("arm index must be 0 or 1")
    x, y, z = (np.asarray(p, dtype=float) for p in position)
    u, h = (x, y) if arm == 0 else (y, x)
    # square with pow(x, 2) as a scalar x**2 does, so that points evaluated
    # as arrays match scalar calls; numpy's array x**2 is x*x, 1 ulp off
    sq = np.float_power
    w_h = config.waist_par * np.sqrt(1.0 + sq(u / config.rayleigh_par, 2))
    w_z = config.waist_perp * np.sqrt(1.0 + sq(u / config.rayleigh_perp, 2))
    peak = 2.0 * config.power_per_arm / (math.pi * w_h * w_z)
    profile = np.exp(-2.0 * sq(h / w_h, 2) - 2.0 * sq(z / w_z, 2))
    intensity = peak * profile
    if config.backscatter_depth:
        k = 2.0 * math.pi / config.wavelength
        intensity = intensity * (1.0 + config.backscatter_depth * np.cos(2.0 * k * u))
    return float(intensity) if np.ndim(intensity) == 0 else intensity


def potential_at(config: DipoleTrapConfig, position) -> float:
    """Dipole potential at a point (or array points), joules (negative)."""
    intensity = arm_intensity(config, 0, position) + arm_intensity(config, 1, position)
    return -config.polarizability * intensity / (2.0 * EPSILON_0 * C)


def trap_depth(config: DipoleTrapConfig, arms: int = 2) -> float:
    """|U| at the crossing, joules, for the crossed trap or a single arm.

    The potential vanishes far along any arm axis, so the depth relative
    to the escape path equals the magnitude at the crossing.
    """
    if arms not in (1, 2):
        raise DomainError("arms must be 1 or 2")
    per_arm = -potential_at(config, (0.0, 0.0, 0.0)) / 2.0
    return arms * per_arm


def trap_frequencies(config: DipoleTrapConfig) -> tuple[float, float, float]:
    """(f_x, f_y, f_z) oscillation frequencies at the crossing, hertz.

    Analytic second derivatives of the crossed-Gaussian potential at the
    origin; each frequency is sqrt(U''/m)/(2*pi).

    Raises NotAMinimum when any curvature is not positive (zero power,
    or a repulsive sign of the polarizability).
    """
    coupling = config.polarizability / (2.0 * EPSILON_0 * C)
    peak = 2.0 * config.power_per_arm / (math.pi * config.waist_par * config.waist_perp)
    a2 = config.waist_par**2
    b2 = config.waist_perp**2
    axial = 1.0 / config.rayleigh_par**2 + 1.0 / config.rayleigh_perp**2
    if config.backscatter_depth:
        k = 2.0 * math.pi / config.wavelength
        axial += 4.0 * k**2 * config.backscatter_depth
    # arm 0 (along x) curvatures + arm 1 (along y) curvatures, per unit peak
    curv_x = coupling * peak * (axial + 4.0 / a2)
    curv_y = coupling * peak * (4.0 / a2 + axial)
    curv_z = coupling * peak * (8.0 / b2)
    freqs = []
    for name, curv in (("x", curv_x), ("y", curv_y), ("z", curv_z)):
        if curv <= 0:
            raise NotAMinimum(
                f"potential curvature along {name} is not positive ({curv:.3g})"
            )
        freqs.append(math.sqrt(curv / config.mass) / (2.0 * math.pi))
    return tuple(freqs)


def detuning_to_potential(probe_detuning: float) -> float:
    """Ground-level potential energy of the atom class resonant at a probe detuning.

    The differential light shift between ground and excited levels scales
    with the polarizability ratio, so a probe detuned by delta addresses
    atoms sitting at |U| = h*delta/(POLARIZABILITY_RATIO - 1). Signed: red
    probe detuning maps to negative U.
    """
    return H * probe_detuning / (POLARIZABILITY_RATIO - 1.0)


def isopotential_radius(depth_on_axis: float, target: float, waist: float) -> float:
    """Transverse radius where a TEM00 arm profile crosses a potential level.

    Inverts |U(r)| = depth * exp(-2 r^2 / w^2) for r; used to map measured
    light-shift classes onto trap isopotentials.
    """
    if waist <= 0:
        raise DomainError("waist must be positive")
    if depth_on_axis <= 0 or target <= 0 or target > depth_on_axis:
        raise DomainError("require 0 < target <= depth_on_axis")
    return waist * math.sqrt(math.log(depth_on_axis / target) / 2.0)


def lifetime_decay(n0: float, t: float, tau: float) -> float:
    """Remaining atom number after one-body losses, N0*exp(-t/tau)."""
    if tau <= 0:
        raise DomainError("lifetime must be positive")
    return n0 * math.exp(-t / tau)
