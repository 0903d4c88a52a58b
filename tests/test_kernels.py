"""The package's numpy kernels against scipy as a test-only oracle.

`atoms.expm` (Pade-13 scaling and squaring) against `scipy.linalg.expm`,
`harness.curve_fit` (Levenberg-Marquardt on `_sine_model`) against
`scipy.optimize.curve_fit` given the same analytic Jacobian, and the
closed-form unit-SNR sideband power of `destructivity_at_unit_snr` against
the root `scipy.optimize.brentq` finds on the same SNR function.
"""
import json
import math
import warnings
from qndsim.constants import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.optimize import brentq
from scipy.optimize import curve_fit as scipy_curve_fit

import qndsim
import qndsim.cli as cli
from qndsim import harness
from qndsim.atoms import (
    EnsembleState,
    ProbeTuning,
    RabiModel,
    expm,
    generators,
    sideband_photon_rate,
)
from qndsim.heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    demodulated_signal,
    noise_sigma,
)

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"


def corpus():
    """Period and partial-step matrices G*dt: sideband 0.5-7.9 linewidths,
    76-2000 nW, 0.5 kHz-1 GHz drive."""
    mats = []
    for detuning in (0.5, 1.0, 2.0, 4.81, 7.9):
        for power in (76e-9, 500e-9, 2000e-9):
            tuning = ProbeTuning.from_powers(sideband_power=power,
                                             sideband_detuning=detuning)
            drives = [(RabiModel(rabi_frequency=2 * math.pi * khz * 1e3), 0.0)
                      for khz in (0.5, 6.6, 100.0, 1e4, 1e6)]
            for gen in generators(drives, tuning, 0.125):
                mats += [gen * 1e-5, gen * 3.7e-6]
    return np.array(mats)


def relative(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_expm_matches_scipy_or_beats_it():
    # within 1e-12 of scipy, except where scipy is the one further from
    # the exponential (at MHz-GHz drives both lose digits; the reference
    # is the exponential of the same double matrix at 40 digits)
    mats = corpus()
    ours = expm(mats)
    gaps = [relative(o, scipy_expm(m)) for o, m in zip(ours, mats)]
    assert np.median(gaps) < 1e-14
    wide = [i for i, gap in enumerate(gaps) if gap > 1e-12]
    assert len(wide) < len(mats) // 2
    if wide:
        mpmath = pytest.importorskip("mpmath")
    for i in wide:
        with mpmath.workdps(40):
            exact = np.array(mpmath.expm(mpmath.matrix(mats[i].tolist())).tolist(),
                             dtype=float)
        ours_err = relative(ours[i], exact)
        assert ours_err < 1e-11
        assert ours_err < relative(scipy_expm(mats[i]), exact)


def test_expm_bits_do_not_depend_on_the_batch_or_the_memory_offset():
    mats = corpus()
    batch = expm(mats)
    for i in range(0, len(mats), 7):
        assert expm(mats[i]).tobytes() == batch[i].tobytes()
    order = np.random.default_rng(3).permutation(len(mats))[:40]
    assert expm(mats[order]).tobytes() == batch[order].tobytes()
    flat = np.empty(mats.size + 8)
    for offset in range(1, 8):
        view = flat[offset:offset + mats.size].reshape(mats.shape)
        view[...] = mats
        assert expm(view).tobytes() == batch.tobytes()


def test_expm_of_zero_is_exactly_the_identity():
    assert (expm(np.zeros((4, 4))) == np.eye(4)).all()
    mixed = expm(np.array([np.zeros((4, 4)), corpus()[0]]))
    assert (mixed[0] == np.eye(4)).all()


@pytest.fixture(scope="module")
def rabi_fits(tmp_path_factory):
    """(trace, window) of the fits of 24 seeds each of rabi.json and of
    its 100 ms trace, as `qndsim run` hands them to fit_damped_sine."""
    seen, real = [], harness.fit_damped_sine

    def capture(trace, window=None):
        seen.append((trace, window))
        return real(trace, window=window)

    out = tmp_path_factory.mktemp("rabi")
    harness.fit_damped_sine = capture
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(48):
                extra = ["--set", "drive.duration_ms=100"] if seed >= 24 else []
                assert cli.main(["run", str(CONFIG_DIR / "rabi.json"), "--out",
                                 str(out / str(seed)), "--seed", str(seed),
                                 *extra]) == 0
    finally:
        harness.fit_damped_sine = real
    return seen


def sine_jacobian(t, amp, damping, freq, phase, offset, drift):
    decay, arg = np.exp(-damping * t), 2 * np.pi * freq * t + phase
    return np.array([decay * np.cos(arg), -amp * t * decay * np.cos(arg),
                     -2 * np.pi * amp * t * decay * np.sin(arg),
                     -amp * decay * np.sin(arg), np.ones_like(t), t]).T


def scipy_fit(t, y, p0, maxfev=20000):
    return scipy_curve_fit(harness._sine_model, t, y, p0=p0, jac=sine_jacobian,
                           maxfev=maxfev)


def test_fit_matches_scipy_curve_fit(monkeypatch, rabi_fits):
    # same start and analytic Jacobian; parameters after the canonical sign
    # and phase of fit_damped_sine, in units of scipy's standard error
    names = ("amplitude", "damping", "frequency", "phase", "offset", "drift")
    worst = worst_err = 0.0
    for trace, window in rabi_fits:
        ours = harness.fit_damped_sine(trace, window=window)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "curve_fit", scipy_fit)
            oracle = harness.fit_damped_sine(trace, window=window)
        for name in names:
            sigma = oracle.std_errors[name]
            worst = max(worst, abs(getattr(ours, name) - getattr(oracle, name)) / sigma)
            worst_err = max(worst_err, abs(ours.std_errors[name] / sigma - 1))
    assert worst < 1e-4
    assert worst_err < 1e-4
    assert len(rabi_fits) == 48


def test_fit_covariance_is_infinite_where_the_data_say_nothing():
    # every sample at t = 0: damping, frequency and drift have zero
    # Jacobian columns and the other three are parallel, so J^T J is
    # singular; scipy's curve_fit reports such a covariance as all inf
    y = 1.0 + 1e-3 * np.random.default_rng(1).normal(size=20)
    popt, pcov = harness.curve_fit(np.zeros(20), y, [0.5, 100.0, 1e3, 0.3, 0.0, 0.0])
    assert np.isfinite(popt).all()
    assert np.isinf(np.diag(pcov)).all() and not np.isnan(pcov).any()


def test_fit_recovers_an_exact_model():
    t = np.arange(81) * 1e-5
    truth = [1.0, 300.0, 7e3, 0.3, 0.1, 2.0]
    popt, _ = harness.curve_fit(t, harness._sine_model(t, *truth),
                                [0.9, 200.0, 6.9e3, 0.2, 0.0, 0.0])
    assert popt == pytest.approx(truth, rel=1e-9, abs=0)


def test_fit_gives_up_after_maxfev():
    t = np.arange(81) * 1e-5
    y = harness._sine_model(t, 1.0, 300.0, 7e3, 0.3, 0.1, 2.0)
    y += np.random.default_rng(0).normal(0, 0.1, t.size)
    with pytest.raises(RuntimeError):
        harness.curve_fit(t, y, [0.5, 100.0, 6e3, 0.0, 0.0, 0.0], maxfev=3)


@pytest.mark.parametrize("atoms, sideband_nw", [(1e5, 76.0), (1e6, 90.0), (3e6, 500.0)])
def test_bisection_matches_brentq(atoms, sideband_nw):
    # the pulse SNR as a function of log10 of the sideband power, scanned
    # with everything else fixed; brentq's root against the closed form
    gate = harness.ProbeGate()
    ensemble = EnsembleState.all_upper(atoms, cloud_rms=300e-6)
    probe = ModulatedProbe(sideband_power=sideband_nw * 1e-9)
    det = DetectorModel()
    phi = atomic_phase(gate.tuning.sideband_detuning * gate.tuning.linewidth,
                       ensemble.f2_population, probe.beam_waist, ensemble.cloud_rms,
                       linewidth=gate.tuning.linewidth)

    def snr_of(log_ps):
        ps = 10.0**log_ps
        scaled = replace(probe, sideband_power=ps,
                         modulation_depth=math.sqrt(ps / probe.carrier_power))
        ideal = demodulated_signal(scaled, PhaseShiftTriple(phi_plus=phi), det)
        return abs(ideal) / noise_sigma(det, scaled, gate.pulse_duration)

    ps = 10.0**brentq(lambda lp: snr_of(lp) - 1.0, math.log10(probe.sideband_power) - 9,
                      math.log10(0.09 * probe.carrier_power), xtol=1e-14, rtol=1e-15)
    tuning = replace(gate.tuning, sideband_intensity=gate.tuning.sideband_intensity
                     * ps / probe.sideband_power)
    oracle = sideband_photon_rate(tuning) * gate.pulse_duration
    ours = harness.destructivity_at_unit_snr(gate, ensemble, probe, det)
    assert ours == pytest.approx(oracle, rel=1e-10, abs=0)
