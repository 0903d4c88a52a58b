"""Collective-spin ensemble, probe scattering, and driven/damped evolution.

The two clock levels |F=1, m=0> and |F=2, m=0> form a pseudo-spin-1/2; the
ensemble is tracked as a mean-field Bloch vector (Jx, Jy, Jz) in spin units
(all atoms in the lower level puts Jz at -N/2) and the coherent population
N_coh of the clock levels. Atoms scattered out of the coherent manifold into
|F=2, m!=0> leave N_coh; these n_leak = N_at - N_coh atoms still contribute
to the detected F=2 population while no longer taking part in the microwave
dynamics, which is what lifts the mean of strongly probed Rabi traces.

Scattering follows the saturated-Lorentzian rate model: one near-resonant
sideband term plus three carrier terms, one per excited hyperfine level,
weighted by the branching probabilities into F=2. Rates come out in 1/s;
detunings are entered in ordinary frequency units against the natural
linewidth (the carrier ones in Hz, the sideband one in units of the
linewidth).

numpy is imported only inside the functions that compute with arrays.
"""
from __future__ import annotations

import math

from .constants import (
    BRANCHING,
    DEFAULTS,
    EXCITED_SPLITTINGS,
    GAMMA_D2_FREQ,
    H,
    HBAR,
    I_SAT,
    Record,
    replace,
)
from .errors import DomainError, StepError

# Peak intensities 2P/(pi w^2) of the default probe beam
DEFAULT_SIDEBAND_INTENSITY = 2 * DEFAULTS["sideband_power"] / (math.pi * DEFAULTS["beam_waist"]**2)
DEFAULT_CARRIER_INTENSITY = 2 * DEFAULTS["carrier_power"] / (math.pi * DEFAULTS["beam_waist"]**2)
DEFAULT_EXPANSION_RATE = DEFAULTS["expansion_rate"]   # Hz, cloud fall/expansion signal loss
# Share of the upper-level atoms scattering a sideband photon that land in
# |F=2, m!=0>, out of the coherent manifold (into the n_leak pool)
LEAK_FRACTION = 0.5


def _carrier_detunings(modulation_frequency: float) -> tuple[float, float, float]:
    # The carrier sits one modulation frequency below the sideband's
    # reference transition, so its distance to the lower-lying excited
    # levels shrinks by the respective splitting.
    return tuple(abs(modulation_frequency - s) for s in EXCITED_SPLITTINGS)


class ProbeTuning(Record):
    """Probe frequencies and intensities entering the scattering model.

    sideband_detuning is in units of the natural linewidth, and may be an
    array of detunings for a sweep; the three carrier detunings are
    magnitudes in Hz, ordered by excited level.
    Saturation intensities are those of the pi transitions from the probed
    ground level with Zeeman sublevels equally populated.
    """

    sideband_detuning: float = 4.81
    carrier_detunings: tuple[float, float, float] = _carrier_detunings(
        DEFAULTS["modulation_frequency"])
    sideband_intensity: float = DEFAULT_SIDEBAND_INTENSITY
    carrier_intensity: float = DEFAULT_CARRIER_INTENSITY
    linewidth: float = GAMMA_D2_FREQ
    saturation_intensities: tuple[float, float, float] = I_SAT
    branching: tuple[float, float, float] = BRANCHING

    def __post_init__(self) -> None:
        if self.linewidth <= 0:
            raise DomainError("linewidth must be positive")
        if self.sideband_intensity < 0 or self.carrier_intensity < 0:
            raise DomainError("intensities must be nonnegative")
        if len(self.carrier_detunings) != 3 or len(self.saturation_intensities) != 3:
            raise DomainError("need one carrier detuning and I_sat per excited level")
        if any(i <= 0 for i in self.saturation_intensities):
            raise DomainError("saturation intensities must be positive")
        if any(not 0 <= b <= 1 for b in self.branching):
            raise DomainError("branching probabilities must lie in [0, 1]")

    @classmethod
    def from_powers(
        cls,
        carrier_power: float = DEFAULTS["carrier_power"],
        sideband_power: float = DEFAULTS["sideband_power"],
        waist: float = DEFAULTS["beam_waist"],
        sideband_detuning: float = 4.81,
        modulation_frequency: float = DEFAULTS["modulation_frequency"],
    ) -> "ProbeTuning":
        """Build a tuning from beam powers and the modulation frequency."""
        if waist <= 0:
            raise DomainError("waist must be positive")
        if carrier_power < 0 or sideband_power < 0:
            raise DomainError("powers must be nonnegative")
        area = math.pi * waist**2
        return cls(
            sideband_detuning=sideband_detuning,
            carrier_detunings=_carrier_detunings(modulation_frequency),
            sideband_intensity=2 * sideband_power / area,
            carrier_intensity=2 * carrier_power / area,
        )


class RabiModel(Record):
    """Microwave drive plus the light-shift bookkeeping of the damping model.

    carrier_light_shift is the in-pulse differential shift of the clock
    transition (joules); inhomogeneity is the dimensionless factor relating
    shift fluctuations to dephasing. Rates in Hz mean 1/s throughout. The
    probe clock's duty cycle is an argument of `generators`.
    """

    rabi_frequency: float = 2 * math.pi * DEFAULTS["rabi_frequency"]   # rad/s
    detuning: float = 0.0                         # Hz
    carrier_light_shift: float = H * 2e3          # J
    inhomogeneity: float = DEFAULTS["inhomogeneity"]
    residual_damping: float = DEFAULTS["residual_damping"]   # Hz


def _over_polarized(jx, jy, jz, coherent):
    # |J| > coherent/2 beyond rounding, elementwise for arrays;
    # (c + |c|)/4 is max(c, 0)/2
    limit = (coherent + abs(coherent)) / 4
    return (jx**2 + jy**2 + jz**2) ** 0.5 > limit * (1 + 1e-9) + 1e-12


def f2_population(vs: np.ndarray, atom_number: float):
    """Upper level plus leaked atoms of state vectors, N_at - N_coh/2 + Jz."""
    return atom_number - vs[..., 3] / 2 + vs[..., 2]


class EnsembleState(Record):
    """Mean-field state: Bloch vector, coherent population, cloud parameters."""

    atom_number: float
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0
    coherent_number: float | None = None    # N_coh; None: every atom
    cloud_rms: float = 0.0

    def __post_init__(self) -> None:
        if self.coherent_number is None:
            object.__setattr__(self, "coherent_number", self.atom_number)
        if self.coherent_number > self.atom_number:
            raise DomainError("populations must be nonnegative")
        if self.coherent_number < -1e-9 * max(1.0, self.atom_number):
            raise DomainError("leaked population exceeds total atom number")
        if _over_polarized(self.jx, self.jy, self.jz, self.coherent_number):
            raise DomainError("Bloch vector longer than N_coh/2")
        if not all(map(math.isfinite, (self.atom_number, *state_vector(self)))):
            raise DomainError("atom number, Bloch vector and N_coh must be finite")

    @classmethod
    def all_lower(cls, atom_number: float, **kwargs) -> "EnsembleState":
        """Every atom in |F=1, m=0>: Jz = -N/2."""
        return cls(atom_number, jz=-atom_number / 2, **kwargs)

    @classmethod
    def all_upper(cls, atom_number: float, **kwargs) -> "EnsembleState":
        return cls(atom_number, jz=atom_number / 2, **kwargs)

    @classmethod
    def css_x(cls, atom_number: float, **kwargs) -> "EnsembleState":
        """Coherent spin state along +x (equal superposition, zero phase)."""
        return cls(atom_number, jx=atom_number / 2, **kwargs)

    @property
    def n_leak(self) -> float:
        return self.atom_number - self.coherent_number

    @property
    def f2_population(self) -> float:
        """Detected F=2 population: coherent upper level plus leaked atoms."""
        return float(f2_population(state_vector(self), self.atom_number))


def sideband_photon_rate(tuning: ProbeTuning) -> float:
    """Raw sideband photon-scattering rate, before branching, 1/s: the
    saturated Lorentzian on its reference transition, detuning already in
    linewidth units. Elementwise for an array of detunings; a scalar
    detuning gives a numpy float64."""
    import numpy as np
    s = tuning.sideband_intensity / tuning.saturation_intensities[2]
    gamma_ang = 2 * math.pi * tuning.linewidth
    d = tuning.sideband_detuning
    # float_power squares with libm pow, as d**2 does; numpy's x*x can be 1 ulp off it
    return gamma_ang * (s / 2) / (1 + 4 * np.float_power(d, 2) + s)


def carrier_pump_rate(tuning: ProbeTuning) -> float:
    """Carrier-induced pumping rate into F=2 (branching-weighted), 1/s."""
    gamma_ang = 2 * math.pi * tuning.linewidth
    total = 0.0
    for b, delta, i_sat in zip(
        tuning.branching, tuning.carrier_detunings, tuning.saturation_intensities
    ):
        s = tuning.carrier_intensity / i_sat
        total += b * gamma_ang * (s / 2) / (
            1 + 4 * (delta / tuning.linewidth) ** 2 + s
        )
    return total


def scattering_rate(
    tuning: ProbeTuning, expansion_rate: float = DEFAULT_EXPANSION_RATE
) -> float:
    """Probe-induced signal decay rate, 1/s.

    Sideband term (branching-weighted on its transition) plus the three
    carrier terms plus the constant cloud fall/expansion rate. With all
    intensities zero this returns expansion_rate exactly. For an array of
    sideband detunings the rate is elementwise and equals the scalar call
    at every detuning.
    """
    if expansion_rate < 0:
        raise DomainError("expansion rate must be nonnegative")
    return (
        tuning.branching[2] * sideband_photon_rate(tuning)
        + carrier_pump_rate(tuning)
        + expansion_rate
    )


def light_shift(tuning: ProbeTuning, duty_cycle: float) -> float:
    """Duty-cycle-averaged AC Stark shift of the probed clock level, joules.

    Dispersive-Lorentzian shift summed over the excited levels for the
    carrier plus the sideband term, using the same line data as the
    scattering model. Detunings enter as the stored magnitudes, so the
    returned value is the shift magnitude; the far-detuned partner clock
    level is neglected.
    """
    if not 0 <= duty_cycle <= 1:
        raise DomainError("duty cycle must lie in [0, 1]")
    gamma_ang = 2 * math.pi * tuning.linewidth
    shift = 0.0
    for delta, i_sat in zip(tuning.carrier_detunings, tuning.saturation_intensities):
        delta_ang = 2 * math.pi * delta
        shift += (
            (HBAR * gamma_ang**2 / 8)
            * (tuning.carrier_intensity / i_sat)
            * delta_ang
            / (delta_ang**2 + gamma_ang**2 / 4)
        )
    delta_s = 2 * math.pi * tuning.sideband_detuning * tuning.linewidth
    shift += (
        (HBAR * gamma_ang**2 / 8)
        * (tuning.sideband_intensity / tuning.saturation_intensities[2])
        * delta_s
        / (delta_s**2 + gamma_ang**2 / 4)
    )
    return duty_cycle * shift


def rabi_frequency_pull(
    rabi_frequency: float, shift_a: float, shift_b: float
) -> float:
    """Generalized-Rabi frequency difference between two light shifts, Hz.

    [sqrt(Omega^2 + (2*pi*shift_a)^2) - sqrt(Omega^2 + (2*pi*shift_b)^2)]
    / (2*pi), with the shifts in Hz acting as effective detunings.
    """
    if rabi_frequency < 0:
        raise DomainError("Rabi frequency must be nonnegative")
    wa = math.hypot(rabi_frequency, 2 * math.pi * shift_a)
    wb = math.hypot(rabi_frequency, 2 * math.pi * shift_b)
    return (wa - wb) / (2 * math.pi)


def damping_rate(model: RabiModel, spontaneous_rate: float) -> float:
    """Rabi-oscillation damping rate: spontaneous + shift + residual, 1/s.

    The shift term is alpha*DeltaE_c^2/(2*hbar^2*Omega_R); it needs a
    nonzero Rabi frequency whenever the shift itself is nonzero. Raises
    DomainError when that denominator is 0 or the rate is not finite.
    """
    if spontaneous_rate < 0:
        raise DomainError("spontaneous rate must be nonnegative")
    if model.carrier_light_shift == 0:
        shift_term = 0.0
    elif 2 * HBAR**2 * model.rabi_frequency == 0:
        raise DomainError("shift damping undefined at Rabi frequency "
                          f"{model.rabi_frequency!r} rad/s (2*hbar^2*Omega_R is 0)")
    else:
        shift_term = (
            model.inhomogeneity
            * model.carrier_light_shift**2
            / (2 * HBAR**2 * model.rabi_frequency)
        )
    rate = spontaneous_rate + shift_term + model.residual_damping
    if not math.isfinite(rate):
        raise DomainError(f"damping rate {rate} is not finite")
    return rate


def generators(drives, tuning: ProbeTuning, duty_cycle: float, detunings=None) -> np.ndarray:
    """Generators G of dv/dt = G v for v = (Jx, Jy, Jz, N_coh), one per
    (RabiModel, drive phase) pair of `drives`, as an (n, 4, 4) stack; given m
    detunings (Hz), an (n, m, 4, 4) stack of each drive at each detuning.

    G holds: rotation of the Bloch vector about (Omega_R*cos(phase),
    Omega_R*sin(phase), 2*pi*detuning_total), where detuning_total adds
    the duty-averaged differential light shift to the microwave detuning;
    population transfer: upper-level atoms scatter sideband photons and
    land in |F=2, m!=0> with probability LEAK_FRACTION (rate leak), lower-
    level atoms are pumped to F=2 by the carrier (rate pump), both leaving
    N_coh for the incoherent leaked pool; damping at the rate from
    damping_rate, defined as the fitted envelope rate of the driven
    oscillation. Of it, (leak + pump)/2 damps Jx and Jy, since a coherence
    decays with the two populations it connects (the loss term of a
    trace-decreasing Lindblad generator). The rest damps the components
    perpendicular to the rotation axis: the inhomogeneous-rate dephasing
    it models spares the axis-parallel component, and with no rotation at
    all the z coherence damps. The rest is nonnegative, as damping_rate's
    spontaneous part is half the sideband rate plus pump, so the evolution
    is completely positive and keeps |J| <= N_coh/2 by itself. Probe rates
    are averaged over the probe clock's duty_cycle; sub-period pulse
    gating is not resolved.

    Probe rates are computed once per stack, so a generator's bits do not
    depend on the rest of it; one drive's generator is the stack's [0].

    Raises DomainError for a duty cycle outside [0, 1], a branching that
    leaves the rest negative beyond rounding (checked drive by drive), or
    a non-finite rate (checked over the whole stack).
    """
    import numpy as np
    shift = light_shift(tuning, duty_cycle) / H
    spontaneous = scattering_rate(tuning, expansion_rate=0.0) * duty_cycle
    leak = sideband_photon_rate(tuning) * duty_cycle * LEAK_FRACTION
    pump = carrier_pump_rate(tuning) * duty_cycle
    loss = (leak + pump) / 2
    rows = []    # per drive and detuning: rotation vector w, its unit axis, beta - loss
    for drive, phase in drives:
        wx = drive.rabi_frequency * math.cos(phase)
        wy = drive.rabi_frequency * math.sin(phase)
        beta = damping_rate(drive, spontaneous)
        if beta - loss < -1e-12 * beta:
            raise DomainError(f"branching {tuning.branching} is too small for leak "
                              f"fraction {LEAK_FRACTION}: beta - (leak + pump)/2 is "
                              f"{beta - loss:.3g} 1/s")
        for detuning in (drive.detuning,) if detunings is None else detunings:
            wz = 2 * math.pi * (detuning + shift)
            rot = math.hypot(wx, wy, wz)
            axis = (wx / rot, wy / rot, wz / rot) if rot > 0 else (0.0, 0.0, 1.0)
            rows.append((wx, wy, wz, *axis, beta - loss))
    rows = np.array(rows).reshape(-1, 7)
    w, axis = rows[:, :3], rows[:, 3:6]
    gens = np.zeros((len(rows), 4, 4))
    gens[:, (2, 0, 1), (1, 2, 0)] = w    # the cross-product matrix of w
    gens[:, (1, 2, 0), (2, 0, 1)] = -w
    gens[:, :3, :3] -= rows[:, 6, None, None] * (np.eye(3) - axis[..., None] * axis[:, None])
    gens[:, (0, 1), (0, 1)] -= loss
    # upper (N_coh/2 + Jz) leaks, lower (N_coh/2 - Jz) is pumped; each atom
    # moved shifts Jz by -/+ 1/2 and leaves N_coh
    for rate, sign in ((leak, 1.0), (pump, -1.0)):
        gens += np.outer([0, 0, -sign / 2, -1], [0, 0, sign * rate, rate / 2])
    if not np.isfinite(gens).all():
        raise DomainError("spin-engine rates are not finite")
    return gens if detunings is None else gens.reshape(len(drives), len(detunings), 4, 4)


# Pade-13 coefficients (2m-k)! m!/((2m)! k! (m-k)!); b_0 = 1 keeps exp(0) = I exact
_PADE13 = tuple(math.factorial(26 - k) * math.factorial(13) / (
    math.factorial(26) * math.factorial(k) * math.factorial(13 - k)) for k in range(14))


def expm(a: np.ndarray) -> np.ndarray:
    """exp of a square matrix or of each of a stack: Pade-13 scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005) with the scaling chosen
    per matrix, so a matrix's bits never depend on the rest of the batch."""
    import numpy as np
    s = np.maximum(np.frexp(abs(a).sum(axis=-2).max(axis=-1) / 5.371920351148152)[1], 0)
    m, b, eye = np.ldexp(a, -s[..., None, None]), _PADE13, np.eye(a.shape[-1])
    m2 = m @ m
    m6 = (m4 := m2 @ m2) @ m2
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
             + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * eye)
    v = m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2) + b[6] * m6 + b[4] * m4 + b[2] * m2 + eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):    # square where s > k
        r[s > k] = r[s > k] @ r[s > k]
    return r


def state_vector(state: EnsembleState) -> np.ndarray:
    """(Jx, Jy, Jz, N_coh), the vector `generators` act on."""
    import numpy as np
    return np.array([state.jx, state.jy, state.jz, state.coherent_number])


def broken_invariants(vs: np.ndarray, atom_number: float) -> np.ndarray:
    """Mask over vs.T of the state vectors of atom_number atoms EnsembleState rejects."""
    import numpy as np
    jx, jy, jz, coherent = vs.T
    return ((coherent > atom_number) | (coherent < -1e-9 * max(1.0, atom_number))
            | _over_polarized(jx, jy, jz, coherent) | ~np.isfinite(vs.T).all(axis=0))


def with_vector(state: EnsembleState, v: np.ndarray) -> EnsembleState:
    """`state` moved to v; StepError if that breaks its invariants."""
    jx, jy, jz, coherent = v.tolist()
    try:
        return replace(state, jx=jx, jy=jy, jz=jz, coherent_number=coherent)
    except DomainError as exc:
        raise StepError(f"invariants violated after step: {exc}") from exc


def squeezing_estimate(
    phase_per_atom: float, atom_number: float, photon_number: float
) -> tuple[float, float]:
    """Measurement strength and projected squeezing, (kappa^2, xi^2).

    kappa^2 = phi^2 * N_at * N_s / 2 and xi^2 = 1/(1 + kappa^2).
    """
    if atom_number < 0 or photon_number < 0:
        raise DomainError("atom and photon numbers must be nonnegative")
    kappa_sq = phase_per_atom**2 * atom_number * photon_number / 2
    return kappa_sq, 1.0 / (1.0 + kappa_sq)


def cavity_enhancement(finesse: float, snr_single_pass: float) -> float:
    """SNR gain from placing the probe in a resonator: snr * sqrt(finesse)."""
    if finesse <= 0:
        raise DomainError("finesse must be positive")
    return snr_single_pass * math.sqrt(finesse)
