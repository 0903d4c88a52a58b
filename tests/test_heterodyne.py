import math
import warnings

import numpy as np
import pytest

from qndsim.constants import C, E_CHARGE, GAMMA_D2_FREQ
from qndsim.errors import DomainError, RegimeError
from qndsim.heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    demodulated_signal,
    detected_photons,
    detection_snr,
    exact_phase_terms,
    gain_from_psd_slope,
    interferometer_length_signal,
    length_noise_signal,
    noise_rejection_ratio,
    noise_sigma,
    sample_noisy_signal,
    shot_noise_psd,
    small_phase_expansion,
)

# Frozen by hand before implementation (scratch arithmetic):
#   sigma_0 = 3*(780.241e-9)^2/(2*pi), N=1e6, w=800um, point cloud,
#   delta = Gamma/2 puts the dispersive factor at its extremum 1/2.
PHI_AT_GOLDEN = -0.07228348444340174
SNR_GOLDEN = 0.9949713515513836          # (1e4, 1e8, 1e6, phi=0.01)
REJECTION_GOLDEN = 1.5604820000000003e-07  # (0.1^2+1e-2)*780.241nm/0.1m
SIGMA_V_GOLDEN = 4.430233278092605e-06   # defaults, 10 us pulse


def _probe(**kw):
    return ModulatedProbe(**kw)


def test_probe_modulation_wavelength():
    p = _probe()
    assert p.modulation_wavelength == pytest.approx(0.10676369586894585, rel=1e-12, abs=0)


def test_probe_validation():
    with pytest.raises(RegimeError):
        _probe(modulation_depth=0.31)
    with pytest.raises(DomainError):
        _probe(modulation_depth=-0.01)
    with pytest.raises(DomainError):
        _probe(ram_asymmetry=1.0)
    with pytest.raises(DomainError):
        _probe(carrier_power=-1e-6)
    with pytest.raises(DomainError):
        _probe(modulation_frequency=0.0)


def test_detector_gain_and_validation():
    det = DetectorModel()
    assert det.gain == pytest.approx(1466.0, rel=1e-12, abs=0)
    with pytest.raises(DomainError):
        DetectorModel(load=0.0)
    with pytest.raises(DomainError):
        DetectorModel(kappa_e=-1e-6)
    # zero electronic noise is a meaningful limit and must construct
    assert DetectorModel(kappa_e=0.0).kappa_e == 0.0


def test_atomic_phase_frozen_value():
    phi = atomic_phase(GAMMA_D2_FREQ / 2, 1e6, 800e-6, 0.0)
    assert phi == pytest.approx(PHI_AT_GOLDEN, rel=1e-9, abs=0)


def test_atomic_phase_properties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        delta = rng.uniform(0.5, 10) * GAMMA_D2_FREQ
        n = rng.uniform(1e4, 1e6)
        phi = atomic_phase(delta, n, 800e-6, 20e-6)
        # odd in detuning, linear in atom number
        assert atomic_phase(-delta, n, 800e-6, 20e-6) == pytest.approx(-phi, rel=1e-12, abs=0)
        assert atomic_phase(delta, 2 * n, 800e-6, 20e-6) == pytest.approx(
            2 * phi, rel=1e-12, abs=0
        )
    # blue detuning gives negative phase; extremum sits at Gamma/2
    grid = np.linspace(0.05, 5, 200) * GAMMA_D2_FREQ
    vals = np.array([atomic_phase(d, 1e6, 800e-6, 0.0) for d in grid])
    assert np.all(vals < 0)
    assert vals.min() >= PHI_AT_GOLDEN - 1e-15  # nothing deeper than Gamma/2
    assert vals.min() == pytest.approx(PHI_AT_GOLDEN, rel=1e-3, abs=0)
    # a fat cloud dilutes the column density
    assert abs(atomic_phase(GAMMA_D2_FREQ, 1e6, 800e-6, 400e-6)) < abs(
        atomic_phase(GAMMA_D2_FREQ, 1e6, 800e-6, 0.0)
    )
    # far-detuned phase rolls off as 1/delta
    far = atomic_phase(1e4 * GAMMA_D2_FREQ, 1e6, 800e-6, 0.0)
    assert abs(far) < 1e-4 * abs(PHI_AT_GOLDEN)


def test_large_atomic_phase_is_refused_by_the_detection_chain_not_warned():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = atomic_phase(GAMMA_D2_FREQ / 2, 1e7, 800e-6, 0.0)
    assert abs(phi) > 0.3
    with pytest.raises(RegimeError, match=r"\|phi\| = 0\.723 rad outside the small-phase"):
        demodulated_signal(ModulatedProbe(), PhaseShiftTriple(phi_plus=phi),
                           DetectorModel())


def test_atomic_phase_domain_errors():
    with pytest.raises(DomainError):
        atomic_phase(1e6, -1.0, 800e-6, 0.0)
    with pytest.raises(DomainError):
        atomic_phase(1e6, 1e6, 0.0, 0.0)
    with pytest.raises(DomainError):
        atomic_phase(1e6, 1e6, 800e-6, 0.0, linewidth=0.0)


def test_exact_terms_zero_and_single_sideband():
    assert exact_phase_terms(PhaseShiftTriple()) == (0.0, 0.0, 2.0, 0.0)
    t = exact_phase_terms(PhaseShiftTriple(phi_plus=0.05))
    assert t[0] == pytest.approx(math.cos(0.05) - 1.0, rel=1e-12, abs=0)
    assert t[1] == pytest.approx(math.sin(0.05), rel=1e-12, abs=0)
    assert t[2] == pytest.approx(math.cos(0.05) + 1.0, rel=1e-12, abs=0)
    assert t[3] == pytest.approx(math.sin(0.05), rel=1e-12, abs=0)


def test_expansion_matches_exact_within_analytic_bounds():
    # Taylor remainders in the relative phases a = phi_1 - phi_0 and
    # b = phi_0 - phi_-1: the difference-of-sines term is bounded by
    # (|a|^3 + |b|^3)/6, the difference-of-cosines term by (a^4 + b^4)/24.
    # These are the tight constants; a 2*max|phi|^3 bound on the first
    # term is exceeded at corner triples (worst case 8/3*max|phi|^3).
    rng = np.random.default_rng(0)
    p = rng.uniform(-0.1, 0.1, size=(100_000, 3))
    a = p[:, 2] - p[:, 1]
    b = p[:, 1] - p[:, 0]
    exact_plus = np.cos(a) - np.cos(b)
    exact_minus = np.sin(a) - np.sin(b)
    approx_plus = 0.5 * (p[:, 2] - p[:, 0]) * (2 * p[:, 1] - p[:, 2] - p[:, 0])
    approx_minus = p[:, 2] + p[:, 0] - 2 * p[:, 1]
    slack = 1.0 + 1e-2
    assert np.all(
        np.abs(exact_minus - approx_minus)
        <= slack * (np.abs(a) ** 3 + np.abs(b) ** 3) / 6 + 1e-15
    )
    assert np.all(
        np.abs(exact_plus - approx_plus) <= slack * (a**4 + b**4) / 24 + 1e-15
    )
    # the plus term does satisfy the cruder cubic envelope
    assert np.all(
        np.abs(exact_plus - approx_plus) <= 2 * np.max(np.abs(p), axis=1) ** 3
    )


def test_expansion_function_values_match_vectorized_forms():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pm, p0, pl = rng.uniform(-0.29, 0.29, size=3)
        tr = PhaseShiftTriple(phi_minus=pm, phi_carrier=p0, phi_plus=pl)
        got = small_phase_expansion(tr)
        assert got[0] == pytest.approx(0.5 * (pl - pm) * (2 * p0 - pl - pm), abs=1e-15)
        assert got[1] == pytest.approx(pl + pm - 2 * p0, abs=1e-15)
        assert got[2] == pytest.approx(
            2.0 + 0.5 * ((pl - p0) ** 2 + (pm - p0) ** 2), abs=1e-15
        )
        assert got[3] == pytest.approx(pl - pm, abs=1e-15)


def test_am_plus_expansion_keeps_published_sign():
    # The quadratic correction of the AM plus coefficient is published with
    # a plus sign; the exact form expands with a minus. Pin the relation
    # (expansion - 2) == -(exact - 2) up to the fourth-order remainder.
    rng = np.random.default_rng(6)
    p = rng.uniform(-0.1, 0.1, size=(1000, 3))
    a = p[:, 2] - p[:, 1]
    b = p[:, 1] - p[:, 0]
    exact_plus_am = np.cos(a) + np.cos(b)
    approx_plus_am = 2.0 + 0.5 * (a**2 + b**2)
    assert np.all(
        np.abs((approx_plus_am - 2.0) + (exact_plus_am - 2.0))
        <= (a**4 + b**4) / 12 + 1e-15
    )


def test_expansion_regime_error():
    with pytest.raises(RegimeError):
        small_phase_expansion(PhaseShiftTriple(phi_plus=0.31))
    # the exact forms carry no such restriction
    exact_phase_terms(PhaseShiftTriple(phi_plus=2.0))


def test_demod_matched_single_sideband():
    probe = _probe(ram_asymmetry=0.0)
    det = DetectorModel()
    for phi in (1e-4, 0.01, 0.1, -0.05):
        s = demodulated_signal(probe, PhaseShiftTriple(phi_plus=phi), det)
        want = det.gain * probe.modulation_depth * probe.carrier_power * math.sin(phi)
        assert s == pytest.approx(want, rel=1e-12, abs=0)


def test_demod_common_phase_invariance():
    # only phase differences between the triplet components are physical
    probe = _probe()
    det = DetectorModel()
    rng = np.random.default_rng(9)
    for _ in range(50):
        pm, p0, pl = rng.uniform(-0.08, 0.08, size=3)
        off = rng.uniform(-0.2, 0.2)
        s0 = demodulated_signal(
            probe, PhaseShiftTriple(pm, p0, pl), det, path_error=1e-4
        )
        s1 = demodulated_signal(
            probe, PhaseShiftTriple(pm + off, p0 + off, pl + off), det,
            path_error=1e-4,
        )
        assert s1 == pytest.approx(s0, rel=1e-12, abs=1e-18)


def test_demod_odd_in_phases_at_matched_point():
    probe = _probe()
    det = DetectorModel()
    rng = np.random.default_rng(10)
    for _ in range(50):
        pm, p0, pl = rng.uniform(-0.1, 0.1, size=3)
        s = demodulated_signal(probe, PhaseShiftTriple(pm, p0, pl), det)
        sneg = demodulated_signal(probe, PhaseShiftTriple(-pm, -p0, -pl), det)
        assert sneg == pytest.approx(-s, rel=1e-12, abs=1e-18)


def test_demod_quadrature_rotation():
    probe = _probe()
    det = DetectorModel()
    scale = det.gain * probe.modulation_depth * probe.carrier_power
    zero = PhaseShiftTriple()
    # with no atomic phase the matched quadrature is dark
    assert demodulated_signal(probe, zero, det) == 0.0
    # a quarter-wave path error rotates in the RAM offset (exact AM term 2)
    quarter = probe.modulation_wavelength / 4
    s = demodulated_signal(probe, zero, det, path_error=quarter)
    assert s == pytest.approx(scale * probe.ram_asymmetry * 2.0, rel=1e-12, abs=0)
    # a full modulation wavelength of path error is invisible
    tr = PhaseShiftTriple(phi_plus=0.03)
    s3 = demodulated_signal(probe, tr, det, path_error=probe.modulation_wavelength)
    assert s3 == pytest.approx(demodulated_signal(probe, tr, det), rel=1e-9, abs=0)


def test_demod_path_error_slope_matches_analytic():
    probe = _probe(ram_asymmetry=0.0)
    det = DetectorModel()
    phi = 0.08
    tr = PhaseShiftTriple(phi_plus=phi)
    h = probe.modulation_wavelength * 1e-7
    slope = (
        demodulated_signal(probe, tr, det, path_error=h)
        - demodulated_signal(probe, tr, det, path_error=-h)
    ) / (2 * h)
    want = (
        det.gain
        * probe.modulation_depth
        * probe.carrier_power
        * (2 * math.pi / probe.modulation_wavelength)
        * (math.cos(phi) - 1.0)
    )
    assert slope == pytest.approx(want, rel=1e-6, abs=0)


def test_demod_regime_error():
    with pytest.raises(RegimeError):
        demodulated_signal(
            _probe(), PhaseShiftTriple(phi_plus=0.35), DetectorModel()
        )


def test_length_noise_budget_law():
    det = DetectorModel()
    lam_mod = 0.1
    probe = _probe(
        modulation_frequency=2 * math.pi * C / lam_mod, ram_asymmetry=0.0
    )
    scale = det.gain * probe.modulation_depth * probe.carrier_power
    # with no RAM the budget law is exactly quadratic in the atomic phase
    for dl in (lam_mod / 100, lam_mod / 1000, lam_mod / 1e6):
        for phi in (0.01, 0.05, 0.1):
            got = length_noise_signal(probe, phi, det, dl)
            assert got == pytest.approx(scale * phi**2 * dl / lam_mod, rel=1e-12,
                                        abs=0)
    probe_ram = _probe(modulation_frequency=2 * math.pi * C / lam_mod)
    got = length_noise_signal(probe_ram, 0.1, det, lam_mod / 100)
    want = scale * (0.1**2 + probe_ram.ram_asymmetry) * (lam_mod / 100) / lam_mod
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_noise_rejection_ratio_frozen_value():
    probe = _probe(modulation_frequency=2 * math.pi * C / 0.1)
    assert probe.modulation_wavelength == pytest.approx(0.1, rel=1e-12, abs=0)
    got = noise_rejection_ratio(probe, 0.1, wavelength=780.241e-9)
    assert got == pytest.approx(REJECTION_GOLDEN, rel=1e-12, abs=0)


def test_rejection_ratio_consistent_with_signal_pair():
    det = DetectorModel()
    probe = _probe(modulation_frequency=2 * math.pi * C / 0.1)
    dl = 1e-5
    ratio = length_noise_signal(probe, 0.1, det, dl) / interferometer_length_signal(
        probe, det, dl, wavelength=780.241e-9
    )
    assert ratio == pytest.approx(
        noise_rejection_ratio(probe, 0.1, wavelength=780.241e-9), rel=1e-12, abs=0
    )


def test_detection_snr_values():
    assert detection_snr(1e4, 1e8, 1e6, 0.01) == pytest.approx(SNR_GOLDEN, rel=1e-12, abs=0)
    # carrier-dominated limit: sqrt(N_s)*sin(phi)
    snr = detection_snr(1e4, 1e12, 0.0, 0.05)
    assert snr == pytest.approx(math.sqrt(1e4) * math.sin(0.05), rel=1e-3, abs=0)
    assert detection_snr(0.0, 1e8, 1e6, 0.1) == 0.0
    assert detection_snr(0.0, 0.0, 0.0, 0.1) == 0.0
    with pytest.raises(DomainError):
        detection_snr(-1.0, 1e8, 0.0, 0.1)


def test_psd_slope_inversion_round_trip():
    det = DetectorModel()
    powers = np.linspace(0.0, 1e-3, 11)
    psd = np.array([shot_noise_psd(det, p) for p in powers])
    slope, intercept = np.polyfit(powers, psd, 1)
    assert gain_from_psd_slope(slope, det.load, det.sensitivity) == pytest.approx(
        det.gain, rel=1e-9, abs=0
    )
    # intercept/slope recovers the electronic-noise equivalent power
    assert intercept / slope == pytest.approx(det.kappa_e, rel=1e-9, abs=0)
    # the floor crossover: optical shot noise equals electronics at kappa_e
    assert shot_noise_psd(det, det.kappa_e) == pytest.approx(
        2 * shot_noise_psd(det, 0.0), rel=1e-12, abs=0
    )
    assert shot_noise_psd(DetectorModel(kappa_e=0.0), 0.0) == 0.0
    with pytest.raises(DomainError):
        shot_noise_psd(det, -1e-6)
    with pytest.raises(DomainError):
        gain_from_psd_slope(-1.0, 50.0, 0.5)


def test_noise_sigma_frozen_value():
    sig = noise_sigma(DetectorModel(), _probe(), 10e-6)
    assert sig == pytest.approx(SIGMA_V_GOLDEN, rel=1e-9, abs=0)
    with pytest.raises(DomainError):
        noise_sigma(DetectorModel(), _probe(), 0.0)


def test_sample_noisy_signal_statistics():
    det = DetectorModel()
    probe = _probe()
    sigma = noise_sigma(det, probe, 10e-6)
    rng = np.random.default_rng(11)
    samples = np.array(
        [sample_noisy_signal(1e-3, det, probe, 10e-6, rng) for _ in range(20000)]
    )
    assert abs(samples.std() - sigma) < 0.03 * sigma
    assert abs(samples.mean() - 1e-3) < 5 * sigma / math.sqrt(len(samples))


def test_sample_noisy_signal_deterministic_per_seed():
    det = DetectorModel()
    probe = _probe()
    a = sample_noisy_signal(0.0, det, probe, 10e-6, 42)
    b = sample_noisy_signal(0.0, det, probe, 10e-6, 42)
    assert a == b
    assert a != sample_noisy_signal(0.0, det, probe, 10e-6, 43)


def test_sample_noisy_signal_zero_noise_limit():
    det = DetectorModel(kappa_e=0.0)
    probe = _probe(carrier_power=0.0)
    assert sample_noisy_signal(2.5e-4, det, probe, 10e-6, 1) == 2.5e-4


def test_detected_photons():
    det = DetectorModel()
    n = detected_photons(det, 76e-9, 10e-6)
    assert n == pytest.approx(0.5 * 76e-9 * 10e-6 / E_CHARGE, rel=1e-12, abs=0)
    assert detected_photons(det, 0.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        detected_photons(det, -1e-9, 1.0)
