"""Phase-modulated probe, atomic phase pickup, photodetection and demodulation.

A phase-modulated beam carries a strong carrier and two weak sidebands at
+/- the modulation frequency. One sideband sits near an atomic transition
and picks up a dispersive phase; beating the triplet on a fast photodiode
and demodulating at the modulation frequency converts that phase into a
voltage. Because all three components share one optical path, length noise
enters only through the modulation wavelength lambda_mod = 2*pi*c/Omega,
not the optical wavelength, which is the source of the scheme's common-mode
noise rejection.

Sign conventions follow demodulation matched to the nominal path: the
in-phase quadrature carries the dispersive terms (DeltaPhi_minus), the
orthogonal quadrature the path-length-sensitive terms (DeltaPhi_plus).
"""
from __future__ import annotations

import math

import numpy as np

from .constants import C, DEFAULTS, E_CHARGE, GAMMA_D2_FREQ, PROBE_WAVELENGTH, Record
from .errors import DomainError, RegimeError

SMALL_PHASE_LIMIT = 0.3    # rad, validity bound for the expansions
SMALL_BETA_LIMIT = 0.3     # modulation depth bound for the two-sideband model


class ModulatedProbe(Record):
    """Phase-modulated probe beam.

    carrier_detuning is the carrier offset from the reference transition;
    the probing sideband then sits at carrier_detuning + Omega/(2*pi).
    ram_asymmetry is the residual-amplitude-modulation imbalance epsilon
    between the two sidebands.
    """

    carrier_power: float = DEFAULTS["carrier_power"]          # W
    modulation_depth: float = DEFAULTS["modulation_depth"]    # beta
    modulation_frequency: float = 2 * math.pi * DEFAULTS["modulation_frequency"]  # Omega, rad/s
    ram_asymmetry: float = DEFAULTS["ram_asymmetry"]          # epsilon
    carrier_detuning: float = DEFAULTS["carrier_detuning"]    # Hz
    sideband_power: float = DEFAULTS["sideband_power"]        # W per sideband
    beam_waist: float = DEFAULTS["beam_waist"]                # m
    path_length: float = DEFAULTS["path_length"]              # modulator-to-detector, m

    def __post_init__(self) -> None:
        if self.modulation_depth > SMALL_BETA_LIMIT:
            raise RegimeError(
                f"modulation depth {self.modulation_depth:.3g} outside the "
                f"two-sideband regime (beta <= {SMALL_BETA_LIMIT})"
            )

    @property
    def modulation_wavelength(self) -> float:
        """lambda_mod = 2*pi*c/Omega, the length scale of path-noise pickup."""
        return 2.0 * math.pi * C / self.modulation_frequency


class PhaseShiftTriple(Record):
    """Atomic phase on (lower sideband, carrier, upper sideband), radians;
    a component may be an array of samples."""

    phi_minus: float = 0.0
    phi_carrier: float = 0.0
    phi_plus: float = 0.0

    def __post_init__(self) -> None:
        peak = 0.0
        for name in ("phi_minus", "phi_carrier", "phi_plus"):
            value = float(np.max(np.abs(getattr(self, name))))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
            peak = max(peak, value)
        object.__setattr__(self, "max_abs", peak)     # largest |phi|, derived: no field


class DetectorModel(Record):
    """Fast photodiode with integrated transimpedance amplifier and buffer."""

    sensitivity: float = DEFAULTS["sensitivity"]        # eta, A/W
    transimpedance: float = DEFAULTS["transimpedance"]  # R_F, ohm
    buffer_gain: float = DEFAULTS["buffer_gain"]        # g
    load: float = DEFAULTS["load"]                      # R_L, ohm
    bandwidth: float = DEFAULTS["bandwidth"]            # Hz
    kappa_e: float = DEFAULTS["kappa_e"]    # electronic-noise-equivalent optical power, W

    @property
    def gain(self) -> float:
        """G_PD = g * R_F * eta, volts out per watt of detected light."""
        return self.buffer_gain * self.transimpedance * self.sensitivity


def atomic_phase(
    detuning: float,
    atom_number: float,
    beam_waist: float,
    cloud_rms: float,
    linewidth: float = GAMMA_D2_FREQ,
) -> float:
    """Dispersive phase a near-resonant component picks up crossing the cloud.

    phi = -(rho_0/2) * (2*delta/Gamma) / (1 + (2*delta/Gamma)^2), with the
    resonant optical density rho_0 = N*sigma_0/(2*pi*(sigma^2 + w^2/4)) from
    the Gaussian beam/cloud overlap and sigma_0 = 3*lambda^2/(2*pi) at the
    probe wavelength.

    This closed form is a standard steady-state two-level model adopted to
    connect atom number to signal; saturation and multilevel structure are
    out of scope. Any phase is returned: check_small_phase, which the
    expansions and demodulated_signal call, raises beyond 0.3 rad. atom_number
    may be an array of samples; the phase is then elementwise.
    """
    if beam_waist <= 0 or cloud_rms < 0:
        raise DomainError("beam waist must be positive, cloud size nonnegative")
    if np.min(atom_number) < 0:
        raise DomainError("atom number must be nonnegative")
    if linewidth <= 0:
        raise DomainError("linewidth must be positive")
    sigma_0 = 3.0 * PROBE_WAVELENGTH**2 / (2.0 * math.pi)
    rho_0 = atom_number * sigma_0 / (
        2.0 * math.pi * (cloud_rms**2 + beam_waist**2 / 4.0))
    x = 2.0 * detuning / linewidth
    return -(rho_0 / 2.0) * x / (1.0 + x * x)


def exact_phase_terms(
    phases: PhaseShiftTriple,
) -> tuple[float, float, float, float]:
    """Exact quadrature coefficients (DPhi+, DPhi-, DPhi+AM, DPhi-AM).

    The pure-phase-modulation pair is

        DPhi+ = cos(phi_1 - phi_0) - cos(phi_0 - phi_-1)
        DPhi- = sin(phi_1 - phi_0) - sin(phi_0 - phi_-1)

    and the amplitude-modulation pair replaces the difference with a sum.
    Valid at any phase; no small-angle assumption. Elementwise for array
    phases; scalar phases give numpy float64 coefficients.
    """
    a = phases.phi_plus - phases.phi_carrier
    b = phases.phi_carrier - phases.phi_minus
    return (
        np.cos(a) - np.cos(b),
        np.sin(a) - np.sin(b),
        np.cos(a) + np.cos(b),
        np.sin(a) + np.sin(b),
    )


def check_small_phase(phi: float) -> None:
    """Raise RegimeError outside the small-phase regime the calibration and
    the expansions assume, |phi| <= SMALL_PHASE_LIMIT."""
    if not abs(phi) <= SMALL_PHASE_LIMIT:
        raise RegimeError(f"|phi| = {abs(phi):.3f} rad outside the small-phase "
                          f"regime (<= {SMALL_PHASE_LIMIT} rad)")


def small_phase_expansion(
    phases: PhaseShiftTriple,
) -> tuple[float, float, float, float]:
    """Second-order expansions of the quadrature coefficients.

    Returns (DPhi+, DPhi-, DPhi+AM, DPhi-AM):

        DPhi+    = (phi_1 - phi_-1)*(2*phi_0 - phi_1 - phi_-1)/2
        DPhi-    = phi_1 + phi_-1 - 2*phi_0
        DPhi+AM  = 2 + ((phi_1 - phi_0)^2 + (phi_-1 - phi_0)^2)/2
        DPhi-AM  = phi_1 - phi_-1

    The AM plus coefficient keeps the published sign of its quadratic term;
    expanding exact_phase_terms gives that term with a minus. The two forms
    differ only at O(phi^2) on top of the constant 2 and nothing downstream
    resolves the difference.

    Raises RegimeError beyond 0.3 rad.
    """
    check_small_phase(phases.max_abs)
    p1, p0, pm = phases.phi_plus, phases.phi_carrier, phases.phi_minus
    return (
        0.5 * (p1 - pm) * (2.0 * p0 - p1 - pm),
        p1 + pm - 2.0 * p0,
        2.0 + 0.5 * ((p1 - p0) ** 2 + (pm - p0) ** 2),
        p1 - pm,
    )


def signal_scale(probe: ModulatedProbe, det: DetectorModel) -> float:
    """G_PD * beta * P_opt, the demodulated volts per unit phase coefficient."""
    return det.gain * probe.modulation_depth * probe.carrier_power


def demodulated_signal(
    probe: ModulatedProbe,
    phases: PhaseShiftTriple,
    det: DetectorModel,
    path_error: float = 0.0,
) -> float:
    """Demodulated detector voltage for a given atomic phase triple.

    At zero path error the output is the pure dispersive quadrature

        S = G_PD * beta * P_opt * (DPhi- + eps*DPhi-AM)

    so a single probed upper sideband gives S = G_PD*beta*P_opt*sin(phi_at).
    A path-length error deltaL is the only quadrature rotation: it mixes in
    the orthogonal quadrature at chi = 2*pi*deltaL/lambda_mod:

        S = G*beta*P*[cos(chi)*(DPhi- + eps*DPhi-AM)
                      + sin(chi)*(DPhi+ + eps*DPhi+AM)]

    The exact trigonometric coefficient forms are used throughout. The
    phases or path_error may be arrays; the voltage is then elementwise and
    equals the scalar call at every point. A scalar call gives a numpy
    float64.

    Raises RegimeError when the phases leave the small-phase regime the
    calibration assumes.
    """
    check_small_phase(phases.max_abs)
    d_plus, d_minus, d_plus_am, d_minus_am = exact_phase_terms(phases)
    eps = probe.ram_asymmetry
    chi = 2.0 * math.pi * path_error / probe.modulation_wavelength
    return signal_scale(probe, det) * (
        np.cos(chi) * (d_minus + eps * d_minus_am)
        + np.sin(chi) * (d_plus + eps * d_plus_am)
    )


def length_noise_signal(
    probe: ModulatedProbe,
    phi_at: float,
    det: DetectorModel,
    path_error: float,
) -> float:
    """Compact law for the path-noise leakage of a single-sideband probe.

    delta_S_L = G_PD * beta * P_opt * (phi_at^2 + eps) * deltaL/lambda_mod.

    This is the published small-signal budget figure. The full mixing chain
    in demodulated_signal carries the same scaling in deltaL/lambda_mod but
    order-unity different numerical coefficients (2*pi and the split
    between the phi^2 and eps terms); both are kept because the budget
    figure is what sensitivity ratios are quoted against.
    """
    return (signal_scale(probe, det) * (phi_at**2 + probe.ram_asymmetry)
            * path_error / probe.modulation_wavelength)


def interferometer_length_signal(
    probe: ModulatedProbe,
    det: DetectorModel,
    path_error: float,
    wavelength: float = DEFAULTS["reference_wavelength"],
) -> float:
    """Path-length signal of an optical-wavelength-referenced interferometer.

    Same signal scale G_PD*beta*P_opt, but a fringe per optical wavelength:
    delta_S = G*beta*P*deltaL/lambda. Reference point for rejection ratios.
    """
    if wavelength <= 0:
        raise DomainError("wavelength must be positive")
    return signal_scale(probe, det) * path_error / wavelength


def noise_rejection_ratio(
    probe: ModulatedProbe, phi_at: float, wavelength: float = DEFAULTS["reference_wavelength"]
) -> float:
    """Length-noise sensitivity relative to a lambda-referenced interferometer.

    (phi_at^2 + eps) * lambda / lambda_mod; about seven orders of magnitude
    at microwave modulation frequencies and percent-level RAM.
    """
    if wavelength <= 0:
        raise DomainError("wavelength must be positive")
    return (phi_at**2 + probe.ram_asymmetry) * wavelength / probe.modulation_wavelength


def detection_snr(n_s: float, n_c: float, n_e: float, phi_at: float) -> float:
    """Shot-noise-limited SNR of the heterodyne detection.

    sqrt(N_s*N_c)/sqrt(N_s + N_c + N_e) * sin(phi_at), with N_s the photons
    detected in the probing sideband, N_c in the carrier and N_e the
    technical noise expressed as a photon number. For N_c >> N_e this tends
    to sqrt(N_s)*sin(phi_at), independent of carrier power.
    """
    if n_s < 0 or n_c < 0 or n_e < 0:
        raise DomainError("photon numbers must be nonnegative")
    denom = n_s + n_c + n_e
    if denom == 0:
        return 0.0
    return math.sqrt(n_s * n_c / denom) * math.sin(phi_at)


def shot_noise_psd(det: DetectorModel, p_opt: float) -> float:
    """Output noise power spectral density on the load, W/Hz.

    2*e*G_PD^2*(P_opt + kappa_e)/(R_L*eta): shot noise linear in optical
    power plus the electronic floor expressed through the equivalent
    optical power kappa_e.
    """
    if p_opt < 0:
        raise DomainError("optical power must be nonnegative")
    return (
        2.0 * E_CHARGE * det.gain**2 * (p_opt + det.kappa_e)
        / (det.load * det.sensitivity)
    )


def gain_from_psd_slope(slope: float, load: float, sensitivity: float) -> float:
    """Invert the PSD-vs-power slope back to the detector gain G_PD."""
    if slope < 0 or load <= 0 or sensitivity <= 0:
        raise DomainError("slope must be nonnegative, load and eta positive")
    return math.sqrt(slope * load * sensitivity / (2.0 * E_CHARGE))


def detected_photons(det: DetectorModel, power: float, duration: float) -> float:
    """Photoelectron count from optical power on the photodiode over a pulse."""
    if power < 0 or duration < 0:
        raise DomainError("power and duration must be nonnegative")
    return det.sensitivity * power * duration / E_CHARGE


def noise_sigma(det: DetectorModel, probe: ModulatedProbe, pulse_duration: float) -> float:
    """RMS voltage noise of one demodulated sample of a probe pulse.

    Integrates the local-oscillator shot noise plus electronic floor over
    the matched bandwidth 1/(2*T) of a pulse of duration T.
    """
    if pulse_duration <= 0:
        raise DomainError("pulse duration must be positive")
    bandwidth = 1.0 / (2.0 * pulse_duration)
    psd = shot_noise_psd(det, probe.carrier_power)
    return math.sqrt(psd * det.load * bandwidth)


def sample_noisy_signal(
    ideal: float,
    det: DetectorModel,
    probe: ModulatedProbe,
    pulse_duration: float,
    rng,
) -> float:
    """One Monte Carlo realization of a demodulated sample.

    Adds zero-mean Gaussian noise with the variance of noise_sigma. rng is
    a numpy Generator (or a seed for one); callers own the RNG state, which
    keeps seed-indexed trials independent and deterministic. An array of
    samples takes one batched draw, the stream of one draw per sample; a
    scalar sample with noise comes back as a numpy float64.
    """
    rng = np.random.default_rng(rng)    # a Generator comes back as it is
    sigma = noise_sigma(det, probe, pulse_duration)
    if sigma == 0.0:
        return ideal
    return ideal + rng.normal(0.0, sigma, size=np.shape(ideal))
