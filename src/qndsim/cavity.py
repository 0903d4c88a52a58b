"""Folded ring cavity: Gaussian eigenmodes, transverse spectrum, finesse, build-up.

The resonator is four identical concave mirrors at the corners of a square,
traversed in the crossed ("bowtie") order, so the round trip alternates
diagonal and side segments and the two diagonal arms intersect at 90 degrees
at the cavity center. The beam line folds by 45 degrees at each mirror,
which puts the angle of incidence on every mirror at 22.5 degrees. Off-axis
incidence at angle theta splits the effective mirror curvature into
R_par = R*cos(theta) in the cavity plane and R_perp = R/cos(theta) out of
plane; the in-plane value additionally carries a phenomenological
astigmatism correction factor calibrated on the measured mode spacings.

Each transverse axis is treated as an independent 1-D ABCD problem. The
fundamental mode is the self-consistent complex beam parameter q of the
round-trip matrix taken from the crossing plane (mid-diagonal), where the
waist sits by symmetry.
"""
from __future__ import annotations

import cmath
import math

from .constants import C, DEFAULTS, Record
from .errors import DomainError, UnstableCavity

DEFAULT_FSR = DEFAULTS["fsr"]  # Hz, measured free spectral range


class CavityGeometry(Record):
    """Geometry and mirror data of the folded square ring cavity.

    Parameters
    ----------
    round_trip_length : float
        Optical round-trip length in meters. Defaults to c/FSR with the
        measured FSR rather than to a nominal mechanical drawing; the
        measured FSR is the ground truth for spectra.
    mirror_radius : float
        Concave mirror radius of curvature R in meters (may be math.inf).
    fold_angle : float
        Acute angle in radians between adjacent beam segments at a mirror.
        The crossed square folds by pi/4; the angle of incidence on the
        mirror is half of this.
    segment_ratio : float
        Length ratio of the two alternating straight segments
        (diagonal:side). sqrt(2) for the crossed square.
    astigmatism_correction : float
        Dimensionless factor alpha_par applied to the in-plane effective
        radius, R_par = alpha_par * R * cos(theta). Purely phenomenological.
    amplitude_reflectivity : float
        Per-mirror amplitude reflectivity r at the operating wavelength.
    wavelength : float
        Operating wavelength in meters.
    """

    round_trip_length: float = C / DEFAULT_FSR
    mirror_radius: float = DEFAULTS["mirror_radius"]
    fold_angle: float = DEFAULTS["fold_angle"]
    segment_ratio: float = DEFAULTS["segment_ratio"]
    astigmatism_correction: float = DEFAULTS["astigmatism_factor"]
    amplitude_reflectivity: float = 0.99956
    wavelength: float = DEFAULTS["wavelength"]

    def __post_init__(self) -> None:
        if self.round_trip_length <= 0:
            raise DomainError("round_trip_length must be positive")
        if not 0 < self.amplitude_reflectivity < 1:
            raise DomainError("amplitude_reflectivity must lie in (0, 1)")
        if self.astigmatism_correction <= 0:
            raise DomainError("astigmatism_correction must be positive")

    @property
    def incidence_angle(self) -> float:
        """Angle of incidence on each mirror, radians (half the fold angle)."""
        return self.fold_angle / 2.0

    @property
    def effective_radii(self) -> tuple[float, float]:
        """(R_par, R_perp): effective curvature in and out of the cavity plane."""
        cos_t = math.cos(self.incidence_angle)
        r_par = self.astigmatism_correction * self.mirror_radius * cos_t
        r_perp = self.mirror_radius / cos_t
        return r_par, r_perp

    @property
    def segment_lengths(self) -> tuple[float, float]:
        """(long, short) straight-segment lengths in meters.

        The round trip is long + short + long + short.
        """
        short = self.round_trip_length / (2.0 * (1.0 + self.segment_ratio))
        return self.segment_ratio * short, short

    @property
    def fsr(self) -> float:
        """Free spectral range c/L in hertz."""
        return C / self.round_trip_length


class GaussianMode(Record, limited=False):    # unchecked: the writer names a non-finite figure
    """Fundamental Gaussian eigenmode of the cavity, per transverse axis."""

    waist_par: float        # m, in-plane (horizontal) waist at the crossing
    waist_perp: float       # m, out-of-plane (vertical) waist
    rayleigh_par: float     # m
    rayleigh_perp: float    # m
    gouy_par: float         # rad, accumulated per round trip
    gouy_perp: float        # rad
    fsr: float              # Hz
    linewidth: float        # Hz, FWHM
    finesse: float


def _round_trip_elements(geom: CavityGeometry, axis: str) -> list[tuple[str, float]]:
    """Element list (type, value) for one round trip from the crossing plane.

    Propagation values are lengths; mirror values are effective radii.
    The reference plane is the middle of a diagonal segment, so the
    sequence is palindromic and the waist sits at the reference.
    """
    r_par, r_perp = geom.effective_radii
    radius = r_par if axis == "horizontal" else r_perp
    long_seg, short_seg = geom.segment_lengths
    return [
        ("prop", long_seg / 2.0),
        ("mirror", radius),
        ("prop", short_seg),
        ("mirror", radius),
        ("prop", long_seg),
        ("mirror", radius),
        ("prop", short_seg),
        ("mirror", radius),
        ("prop", long_seg / 2.0),
    ]


def _abcd(elements: list[tuple[str, float]]) -> tuple[float, float, float, float]:
    """Compose the round-trip ray matrix (A, B, C, D) from an element list."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for kind, value in elements:
        if kind == "prop":
            ea, eb, ec, ed = 1.0, value, 0.0, 1.0
        else:
            ea, eb, ec, ed = 1.0, 0.0, -2.0 / value, 1.0
        # left-multiply: element acts after what came before
        a, b, c, d = ea * a + eb * c, ea * b + eb * d, ec * a + ed * c, ec * b + ed * d
    return a, b, c, d


def _solve_axis(geom: CavityGeometry, axis: str) -> tuple[complex, float]:
    """Self-consistent q at the crossing plane and the round-trip Gouy phase.

    Raises UnstableCavity when |trace|/2 >= 1 on this axis.
    """
    elements = _round_trip_elements(geom, axis)
    a, b, c, d = _abcd(elements)
    half_trace = (a + d) / 2.0
    if abs(half_trace) >= 1.0 or c == 0.0:
        raise UnstableCavity(
            f"no self-consistent Gaussian mode on the {axis} axis "
            f"(|trace|/2 = {abs(half_trace):.6g})"
        )
    # q solves C q^2 + (D - A) q - B = 0; the stable solution has Im q > 0
    disc = cmath.sqrt((d - a) ** 2 + 4.0 * b * c)
    q = ((a - d) + disc) / (2.0 * c)
    if q.imag <= 0:
        q = ((a - d) - disc) / (2.0 * c)
    if q.imag <= 0:
        raise UnstableCavity(f"no confined mode on the {axis} axis")

    # Gouy phase accumulates only along straight segments; mirrors are thin
    # elements that re-map q without adding transverse phase.
    gouy = 0.0
    q_run = q
    for kind, value in elements:
        if kind == "prop":
            z1, z_r = q_run.real, q_run.imag
            z2 = z1 + value
            gouy += math.atan2(z2, z_r) - math.atan2(z1, z_r)
            q_run = q_run + value
        else:
            q_run = q_run / (-2.0 / value * q_run + 1.0)
    return q, gouy


def finesse_from_reflectivity(r: float) -> float:
    """Finesse of the four-mirror ring, pi*r^2/(1 - r^4).

    r is the per-mirror amplitude reflectivity; the round trip sees two
    coupling mirrors' worth of amplitude loss in this lumped form.
    """
    if not 0 < r < 1:
        raise DomainError(f"amplitude reflectivity must lie in (0, 1), got {r}")
    return math.pi * r * r / (1.0 - r**4)


def solve_mode(geom: CavityGeometry) -> GaussianMode:
    """Solve the fundamental Gaussian eigenmode on both transverse axes.

    Returns per-axis waist, Rayleigh range and round-trip Gouy phase from
    the round-trip ABCD product, plus FSR, linewidth and finesse.

    Raises
    ------
    UnstableCavity
        If either axis has no confined mode; the message names the axis.
    """
    q_par, gouy_par = _solve_axis(geom, "horizontal")
    q_perp, gouy_perp = _solve_axis(geom, "vertical")
    lam = geom.wavelength
    z_r_par, z_r_perp = q_par.imag, q_perp.imag
    fsr = geom.fsr
    finesse = finesse_from_reflectivity(geom.amplitude_reflectivity)
    return GaussianMode(
        waist_par=math.sqrt(lam * z_r_par / math.pi),
        waist_perp=math.sqrt(lam * z_r_perp / math.pi),
        rayleigh_par=z_r_par,
        rayleigh_perp=z_r_perp,
        gouy_par=gouy_par,
        gouy_perp=gouy_perp,
        fsr=fsr,
        linewidth=fsr / finesse,
        finesse=finesse,
    )


def _fold_offset(raw: float, fsr: float) -> float:
    """Frequency offset from the nearest fundamental resonance, in [0, FSR/2],
    of a raw shift that is nonnegative: a Gouy phase only grows along a beam."""
    folded = math.fmod(raw, fsr)
    return min(folded, fsr - folded)


def transverse_spectrum(geom: CavityGeometry, max_order: int) -> list[tuple[int, int, float]]:
    """Offsets of TEM_mn resonances from the nearest fundamental, for
    0 <= m, n <= max_order, as (m, n, offset) rows in m-major order.

    Each transverse order adds its axis Gouy phase to the round-trip phase,
    shifting the comb by FSR*(m*gouy_par + n*gouy_perp)/(2*pi). Offsets are
    reported as the distance to the nearest fundamental resonance, which is
    what a transmission scan shows.
    """
    if max_order < 0:
        raise DomainError("mode orders must be nonnegative")
    mode = solve_mode(geom)
    rows = []
    for m in range(max_order + 1):
        for n in range(max_order + 1):
            raw = mode.fsr * (m * mode.gouy_par + n * mode.gouy_perp) / (2.0 * math.pi)
            rows.append((m, n, _fold_offset(raw, mode.fsr)))
    return rows


def mode_spacings(geom: CavityGeometry) -> tuple[float, float]:
    """(horizontal, vertical) first transverse-mode spacings in hertz."""
    spectrum = dict(
        ((m, n), off) for m, n, off in transverse_spectrum(geom, 1)
    )
    return spectrum[(1, 0)], spectrum[(0, 1)]


def intracavity_power(p_out: float, finesse: float, x: float) -> float:
    """Circulating power from the power measured at one output mirror.

    P_intra = 2*(1 + x)*F*P_out/pi for the four-mirror ring, where x is the
    per-mirror scattering loss in units of the mirror transmission.
    """
    if p_out < 0 or finesse < 0 or x < 0:
        raise DomainError("intracavity_power arguments must be nonnegative")
    return 2.0 * (1.0 + x) * finesse * p_out / math.pi


def coupling_efficiency(x: float) -> float:
    """Maximum input coupling of the four-mirror ring vs mirror loss.

    Impedance-matching model with one input mirror of transmission t^2
    against the three other transmissions plus four per-mirror scattering
    losses, each x*t^2: 4*(3 + 4x)/(4 + 4x)^2. This is a reconstruction
    validated only at the measured x = 1.5 endpoint (36%).
    """
    if x < 0:
        raise DomainError("loss factor must be nonnegative")
    return 4.0 * (3.0 + 4.0 * x) / (4.0 + 4.0 * x) ** 2


def backscatter_modulation(intensity_ratio: float) -> float:
    """Standing-wave modulation depth from the backscattered intensity ratio.

    Defined as the amplitude ratio sqrt(I_back/I_fwd).
    """
    if not 0 <= intensity_ratio < 1:
        raise DomainError(f"intensity ratio must lie in [0, 1), got {intensity_ratio}")
    return math.sqrt(intensity_ratio)
