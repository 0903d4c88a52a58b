"""Sequence engine, trace fitting, and the spin-echo/Rabi experiments."""
import json
import math
from qndsim.constants import replace

import numpy as np
import pytest

from qndsim.atoms import (
    EnsembleState,
    ProbeTuning,
    RabiModel,
    carrier_pump_rate,
    light_shift,
)
from qndsim import harness
from qndsim.cli import _write_json, write_csv
from qndsim.constants import H
from qndsim.errors import DomainError, FitDiverged, RegimeError
from qndsim.harness import (
    FreeEvolution,
    MicrowavePulse,
    ProbeGate,
    PulseSequence,
    Trace,
    build_spin_echo,
    destructivity_at_unit_snr,
    fit_damped_sine,
    mid_pulse_amplitude,
    run_sequence,
)
from qndsim.heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    demodulated_signal,
    noise_sigma,
)

DET = DetectorModel()
PROBE = ModulatedProbe()

# sampling clock with zero optical intensity: no backaction, detunings are
# relative to the dressed resonance
IDEAL_GATE = ProbeGate(tuning=ProbeTuning(
    sideband_detuning=7.9, sideband_intensity=0.0, carrier_intensity=0.0))
CLEAN = RabiModel(carrier_light_shift=0.0, residual_damping=0.0)

OMEGA = 2 * math.pi * 6600.0
N_AT = 1e6


def ideal_rabi_trace(duration=2e-3, seed=None, beta=300.0):
    seq = PulseSequence((MicrowavePulse(OMEGA, duration),), probe=IDEAL_GATE)
    tmpl = RabiModel(carrier_light_shift=0.0, residual_damping=beta)
    init = EnsembleState.all_lower(N_AT)
    if seed is None:
        return seq, run_sequence(seq, init, PROBE, DET, noiseless=True,
                                 template=tmpl)
    return seq, run_sequence(seq, init, PROBE, DET, seed=seed, template=tmpl)


# ---------------------------------------------------------------- segments

def test_segment_validation():
    with pytest.raises(DomainError):
        MicrowavePulse(OMEGA, 0.0)
    with pytest.raises(DomainError):
        MicrowavePulse(-1.0, 1e-3)
    with pytest.raises(DomainError):
        FreeEvolution(-1e-6)


def test_sequence_duration_cap_and_windows():
    segs = (MicrowavePulse(OMEGA, 1e-3), FreeEvolution(2e-3),
            MicrowavePulse(OMEGA, 3e-3))
    seq = PulseSequence(segs, probe=IDEAL_GATE)
    assert seq.total_duration == pytest.approx(6e-3)
    assert seq.segment_window(1) == (pytest.approx(1e-3), pytest.approx(3e-3))
    long = (MicrowavePulse(OMEGA, 0.5), FreeEvolution(0.5), MicrowavePulse(OMEGA, 0.5))
    with pytest.raises(DomainError, match="over the maximum 1 s"):
        PulseSequence(long, probe=IDEAL_GATE)
    # 1 s at a 1 MHz clock is the largest walk; a faster clock must not
    # reach the walk, whose arrays grow with the number of samples
    PulseSequence((FreeEvolution(1.0),), probe=ProbeGate(1e6, 1e-7))
    with pytest.raises(DomainError, match="over the budget of 1000000 probe samples"):
        PulseSequence((FreeEvolution(2e-3),), probe=ProbeGate(1e12, 1e-12))
    with pytest.raises(DomainError):
        PulseSequence(("not a segment",), probe=IDEAL_GATE)


def test_sequence_needs_a_probe_gate():
    with pytest.raises(DomainError, match="probe gate"):
        PulseSequence((MicrowavePulse(OMEGA, 1e-3),), probe=None)
    with pytest.raises(DomainError, match="probe gate"):
        build_spin_echo(probe=None)


def test_probe_gate_validation():
    gate = ProbeGate()
    assert gate.period == pytest.approx(1e-5)
    assert gate.duty_cycle == pytest.approx(0.125)
    with pytest.raises(DomainError):
        ProbeGate(repetition_rate=0.0)
    with pytest.raises(DomainError):
        ProbeGate(repetition_rate=1e6, pulse_duration=2e-6)


def test_trace_validation():
    with pytest.raises(DomainError):
        Trace(np.arange(3.0), np.zeros(4))
    with pytest.raises(DomainError):
        Trace(np.array([0.0, 2.0, 1.0]), np.zeros(3))


# ------------------------------------------------------------ run_sequence

def test_sampling_grid():
    _, tr = ideal_rabi_trace()
    assert tr.times.size == 201
    assert np.allclose(tr.times, np.arange(201) * 1e-5, atol=1e-15)


def test_zero_drive_trace_is_flat_zero():
    # nothing populates F=2, so the dispersive signal stays identically 0
    seq = PulseSequence((FreeEvolution(1e-3),), probe=IDEAL_GATE)
    tr = run_sequence(seq, EnsembleState.all_lower(N_AT), PROBE, DET,
                      noiseless=True, template=CLEAN)
    assert np.all(tr.signal == 0.0)


def test_seed_determinism():
    _, a = ideal_rabi_trace(seed=7)
    _, b = ideal_rabi_trace(seed=7)
    _, c = ideal_rabi_trace(seed=8)
    assert np.array_equal(a.signal, b.signal)
    assert not np.array_equal(a.signal, c.signal)


def test_noise_statistics_on_flat_trace():
    seq = PulseSequence((FreeEvolution(5e-3),), probe=IDEAL_GATE)
    tr = run_sequence(seq, EnsembleState.all_lower(N_AT), PROBE, DET, seed=3)
    from qndsim.heterodyne import noise_sigma
    sigma = noise_sigma(DET, PROBE, IDEAL_GATE.pulse_duration)
    n = tr.signal.size
    assert abs(tr.signal.mean()) < 5 * sigma / math.sqrt(n)
    assert np.std(tr.signal) == pytest.approx(sigma, rel=0.15, abs=0)


def test_detected_population_rounding_below_zero_at_the_pole_samples():
    # all atoms in the lower level, Jz a few ulp below -N/2: the detected
    # F=2 population is -5.6e-9 atoms, inside what the state invariants
    # accept; it enters atomic_phase as 0 instead of raising
    init = EnsembleState(1e7, jz=-5e6 * (1 + 1e-15), cloud_rms=300e-6)
    assert init.f2_population < 0
    trace = run_sequence(build_spin_echo(probe=IDEAL_GATE), init, PROBE, DET,
                         noiseless=True)
    assert trace.signal[0] == 0.0 and np.isfinite(trace.signal).all()


def test_regime_error_carries_segment_index():
    # strong dispersive phase: 3e6 atoms probed half a linewidth away blows
    # past the small-phase regime in the middle of the second segment
    hot = ProbeGate(tuning=ProbeTuning(sideband_detuning=0.5,
                                       sideband_intensity=0.0,
                                       carrier_intensity=0.0))
    seq = PulseSequence((FreeEvolution(5e-5), MicrowavePulse(OMEGA, 1e-3)),
                        probe=hot)
    with pytest.raises(RegimeError, match="segment 1"):
        run_sequence(seq, EnsembleState.all_lower(3e6), PROBE, DET,
                     noiseless=True, template=RabiModel(carrier_light_shift=0.0))


# ------------------------------------------------------------------- fits

def test_damped_sine_recovers_synthetic_exactly():
    t = np.arange(300) * 1e-5
    y = 2.5e-4 * np.exp(-300.0 * t) * np.cos(2 * np.pi * 6600 * t + 0.3) \
        + 1e-5 + 0.02 * t
    fit = fit_damped_sine(Trace(t, y))
    assert fit.frequency == pytest.approx(6600.0, rel=1e-6, abs=0)
    assert fit.damping == pytest.approx(300.0, rel=1e-6, abs=0)
    assert fit.amplitude == pytest.approx(2.5e-4, rel=1e-6, abs=0)
    assert fit.phase == pytest.approx(0.3, abs=1e-6)
    assert fit.offset == pytest.approx(1e-5, rel=1e-4, abs=0)
    assert fit.drift == pytest.approx(0.02, rel=1e-4, abs=0)
    assert fit.residual_rms < 1e-12


@pytest.mark.parametrize("periods", [0.5, 0.9])
def test_a_window_under_one_period_of_the_fit_is_no_fit(periods):
    # the exact model is found, but under one period in the window
    t = np.linspace(0.0, periods * 1e-3, 60)
    y = 0.3 * np.exp(-200.0 * t) * np.cos(2 * np.pi * 1e3 * t + 0.4) + 0.01
    with pytest.raises(FitDiverged, match="periods of the fitted 1e\\+03 Hz, under one"):
        fit_damped_sine(Trace(t, y))


def test_damped_sine_sign_canonicalization():
    t = np.arange(200) * 1e-5
    y = -3e-4 * np.cos(2 * np.pi * 5000 * t + 0.2)
    fit = fit_damped_sine(Trace(t, y))
    assert fit.amplitude > 0
    # -cos(x+0.2) = cos(x+0.2-pi)
    assert math.cos(fit.phase) == pytest.approx(math.cos(0.2 - math.pi),
                                                abs=1e-9)


def test_damped_sine_window_selects_prefix():
    t = np.arange(400) * 1e-5
    y = 1e-4 * np.cos(2 * np.pi * 6600 * t)
    fit = fit_damped_sine(Trace(t, y), window=2e-3)
    assert fit.frequency == pytest.approx(6600.0, rel=1e-6, abs=0)


def test_damped_sine_guards():
    t = np.arange(5) * 1e-5
    with pytest.raises(FitDiverged):
        fit_damped_sine(Trace(t, np.sin(t * 1e5)))
    t = np.arange(50) * 1e-5
    with pytest.raises(FitDiverged):
        fit_damped_sine(Trace(t, np.full(50, 0.7)))


# -------------------------------------------------- physics integrations

def test_rabi_trace_recovers_drive_parameters():
    _, tr = ideal_rabi_trace()
    fit = fit_damped_sine(tr)
    assert fit.frequency == pytest.approx(6600.0, rel=1e-5, abs=0)
    assert fit.damping == pytest.approx(300.0, rel=0.01, abs=0)


def test_rabi_frequency_pulled_by_model_light_shift():
    # with the real probe on, the fitted frequency must equal the
    # generalized Rabi frequency computed from the model's own shift
    tuning = ProbeTuning.from_powers(70e-6, 90e-9, 800e-6,
                                     sideband_detuning=7.9,
                                     modulation_frequency=2.5e9)
    gate = ProbeGate(tuning=tuning)
    probe = ModulatedProbe(carrier_power=70e-6, sideband_power=90e-9,
                           modulation_depth=math.sqrt(90e-9 / 70e-6),
                           beam_waist=800e-6,
                           modulation_frequency=2 * math.pi * 2.5e9,
                           carrier_detuning=-2.5e9)
    shift_hz = light_shift(tuning, gate.duty_cycle) / H
    assert shift_hz == pytest.approx(2e3, rel=0.05, abs=0)
    seq = PulseSequence((MicrowavePulse(OMEGA, 2e-3),), probe=gate)
    tmpl = RabiModel(carrier_light_shift=H * shift_hz, residual_damping=90.0)
    init = EnsembleState.all_lower(1e7, cloud_rms=300e-6)
    tr = run_sequence(seq, init, probe, DET, noiseless=True, template=tmpl)
    fit = fit_damped_sine(tr)
    assert fit.frequency == pytest.approx(math.hypot(6600.0, shift_hz),
                                          rel=1e-4, abs=0)
    from qndsim.atoms import damping_rate, scattering_rate
    spont = scattering_rate(tuning, expansion_rate=0.0) * gate.duty_cycle
    beta_expected = damping_rate(replace(tmpl, rabi_frequency=OMEGA), spont)
    assert fit.damping == pytest.approx(beta_expected, rel=0.05, abs=0)


def test_fit_uncertainty_coverage_over_seeds():
    hits = 0
    for seed in range(100):
        _, tr = ideal_rabi_trace(seed=seed)
        fit = fit_damped_sine(tr)
        if abs(fit.frequency - 6600.0) <= 3 * fit.std_errors["frequency"]:
            hits += 1
    assert hits >= 96


def test_pumping_decay_time_matches_rate_model():
    # carrier optical pumping fills F=2 as N(1 - exp(-r t)) at the
    # duty-cycled pump rate r; the upper level stays empty, so the
    # sideband leaks nothing
    gate = ProbeGate(tuning=ProbeTuning())
    rate = carrier_pump_rate(gate.tuning) * gate.duty_cycle
    seq = PulseSequence((FreeEvolution(30e-3),), probe=gate)
    init = EnsembleState.all_lower(1e5)
    tr = run_sequence(seq, init, PROBE, DET, noiseless=True)
    filled = tr.final_state.f2_population
    assert filled == pytest.approx(1e5 * -math.expm1(-rate * 30e-3), rel=1e-12, abs=0)
    assert 0.1 < filled / 1e5 < 0.9


# -------------------------------------------------------------- spin echo

def test_spin_echo_structure():
    seq = build_spin_echo(probe=IDEAL_GATE)
    assert len(seq.segments) == 5
    assert seq.total_duration == pytest.approx(500e-6)
    pulses = [s for s in seq.segments if isinstance(s, MicrowavePulse)]
    gaps = [s for s in seq.segments if isinstance(s, FreeEvolution)]
    assert [p.duration for p in pulses] == [
        pytest.approx(74.5e-6 / 2), pytest.approx(74.5e-6),
        pytest.approx(74.5e-6 / 2)]
    assert all(g.duration == pytest.approx(175.5e-6) for g in gaps)
    assert pulses[0].rabi_frequency == pytest.approx(math.pi / 74.5e-6)
    tight = build_spin_echo(gap=0.0, probe=IDEAL_GATE)
    assert len(tight.segments) == 3
    with pytest.raises(DomainError):
        build_spin_echo(total_duration=100e-6, probe=IDEAL_GATE)
    with pytest.raises(DomainError):
        build_spin_echo(pi_duration=0.0, probe=IDEAL_GATE)


def test_spin_echo_zero_detuning_returns_exactly():
    # pi/2 + pi + pi/2 about one axis is a 2*pi rotation: every atom comes
    # back to F=1 regardless of the gaps
    init = EnsembleState.all_lower(N_AT)
    for gap in (None, 0.0):
        seq = build_spin_echo(gap=gap, probe=IDEAL_GATE)
        tr = run_sequence(seq, init, PROBE, DET, noiseless=True,
                          template=CLEAN)
        assert tr.final_state.f2_population < 1e-9 * N_AT


def test_spin_echo_traces_even_in_detuning():
    init = EnsembleState.all_lower(N_AT)
    for d in (1000.0, 1800.0):
        up = run_sequence(build_spin_echo(detuning=+d, probe=IDEAL_GATE),
                          init, PROBE, DET, noiseless=True, template=CLEAN)
        dn = run_sequence(build_spin_echo(detuning=-d, probe=IDEAL_GATE),
                          init, PROBE, DET, noiseless=True, template=CLEAN)
        scale = np.max(np.abs(up.signal))
        assert np.max(np.abs(up.signal - dn.signal)) <= 1e-12 * scale


def family_amplitudes(gap):
    init = EnsembleState.all_lower(N_AT)
    amps = {}
    for d in (0.0, 1000.0, 1200.0, 1800.0):
        seq = build_spin_echo(detuning=d, gap=gap, probe=IDEAL_GATE)
        tr = run_sequence(seq, init, PROBE, DET, noiseless=True,
                          template=CLEAN)
        amps[d] = mid_pulse_amplitude(tr, seq)
    return amps


def test_family_monotone_at_short_gaps():
    # with 100 us gaps every precession phase stays under a quarter turn,
    # so the mid-pulse amplitude decreases monotonically with detuning
    amps = family_amplitudes(100e-6)
    assert amps[0.0] > amps[1000.0] > amps[1200.0] > amps[1800.0] > 0


def test_family_ordering_at_default_gaps():
    # at the 500-us-filling gaps the 1.8 kHz precession phase passes a
    # quarter turn and its amplitude climbs back up; the deterministic
    # ordering and values are frozen here
    amps = family_amplitudes(None)
    assert amps[0.0] > amps[1800.0] > amps[1000.0] > amps[1200.0] > 0
    norm = {d: amps[d] / amps[0.0] for d in amps}
    assert norm[1000.0] == pytest.approx(0.5485, rel=1e-3, abs=0)
    assert norm[1200.0] == pytest.approx(0.4619, rel=1e-3, abs=0)
    assert norm[1800.0] == pytest.approx(0.8650, rel=1e-3, abs=0)


def test_mid_pulse_amplitude_guards():
    seq = PulseSequence((MicrowavePulse(OMEGA, 1e-3),), probe=IDEAL_GATE)
    tr = run_sequence(seq, EnsembleState.all_lower(N_AT), PROBE, DET,
                      noiseless=True, template=CLEAN)
    with pytest.raises(DomainError):
        mid_pulse_amplitude(tr, seq)
    echo = build_spin_echo(probe=IDEAL_GATE)
    empty = Trace(np.array([1.0]), np.array([0.0]))
    with pytest.raises(DomainError):
        mid_pulse_amplitude(empty, echo)


# --------------------------------------------------------- destructivity

def rabi_probe_pair():
    tuning = ProbeTuning.from_powers(70e-6, 90e-9, 800e-6,
                                     sideband_detuning=7.9,
                                     modulation_frequency=2.5e9)
    probe = ModulatedProbe(carrier_power=70e-6, sideband_power=90e-9,
                           modulation_depth=math.sqrt(90e-9 / 70e-6),
                           beam_waist=800e-6,
                           modulation_frequency=2 * math.pi * 2.5e9,
                           carrier_detuning=-2.5e9)
    return ProbeGate(tuning=tuning), probe


def test_destructivity_order_of_magnitude():
    # scattering events per atom for a unit-SNR pulse on 1e7 atoms: a few
    # 1e-7 to 1e-6, depending on the (unmeasured) cloud size
    gate, probe = rabi_probe_pair()
    ens = EnsembleState.all_upper(1e7)
    eta = destructivity_at_unit_snr(gate, ens, probe, DET)
    assert 2.6e-6 / 30 < eta < 2.6e-6 * 30


def test_destructivity_grows_with_electronic_noise():
    gate, probe = rabi_probe_pair()
    ens = EnsembleState.all_upper(1e7)
    base = destructivity_at_unit_snr(gate, ens, probe, DET)
    quiet = destructivity_at_unit_snr(gate, ens, probe,
                                      replace(DET, kappa_e=0.0))
    loud = destructivity_at_unit_snr(gate, ens, probe,
                                     replace(DET, kappa_e=10 * DET.kappa_e))
    assert quiet < base < loud


@pytest.mark.parametrize("sideband_power", [90e-9, 10e-6])
def test_destructivity_puts_the_pulse_snr_at_one(monkeypatch, sideband_power):
    # the sideband power the destructivity is scattered at gives one pulse
    # an ideal demodulated signal of one noise rms, also from a probe whose
    # own sideband power lies past the modulation regime (0.09 P_c)
    gate, probe = rabi_probe_pair()
    probe = replace(probe, sideband_power=sideband_power)
    ens = EnsembleState.all_upper(1e7, cloud_rms=300e-6)
    seen = []
    monkeypatch.setattr(harness, "sideband_photon_rate",
                        lambda tuning: seen.append(tuning) or 0.0)
    destructivity_at_unit_snr(gate, ens, probe, DET)
    ps = probe.sideband_power * (seen[0].sideband_intensity
                                 / gate.tuning.sideband_intensity)
    at = replace(probe, sideband_power=ps,
                 modulation_depth=math.sqrt(ps / probe.carrier_power))
    phi = atomic_phase(gate.tuning.sideband_detuning * gate.tuning.linewidth,
                       ens.f2_population, probe.beam_waist, ens.cloud_rms,
                       linewidth=gate.tuning.linewidth)
    signal = demodulated_signal(at, PhaseShiftTriple(phi_plus=phi), DET)
    snr = abs(signal) / noise_sigma(DET, at, gate.pulse_duration)
    assert snr == pytest.approx(1.0, abs=1e-12)


def test_destructivity_without_signal_is_unreachable():
    # on the sideband's resonance the dispersive phase, and so the signal,
    # is zero at every power
    gate, probe = rabi_probe_pair()
    resonant = ProbeGate(tuning=replace(gate.tuning, sideband_detuning=0.0))
    with pytest.raises(DomainError, match="unit SNR unreachable"):
        destructivity_at_unit_snr(resonant, EnsembleState.all_upper(1e7),
                                  probe, DET)


def test_destructivity_needs_population():
    gate, probe = rabi_probe_pair()
    with pytest.raises(DomainError):
        destructivity_at_unit_snr(gate, EnsembleState.all_lower(1e7),
                                  probe, DET)


# ----------------------------------------------------------------- export

def test_trace_csv_roundtrip(tmp_path):
    _, tr = ideal_rabi_trace(duration=3e-4, seed=2)
    path = tmp_path / "trace.csv"
    write_csv(path, "time_s,signal_v", [(tr.times, tr.signal)])
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "time_s,signal_v"
    assert len(rows) == tr.times.size + 1
    for row, t, v in zip(rows[1:], tr.times, tr.signal):
        st, sv = row.split(",")
        assert float(st) == t
        assert float(sv) == v


def test_trace_csv_bytes_match_per_row_formatting(tmp_path):
    times = np.array([0.0, 5e-324, 1.0, 3.0, 1e300, 1.7976931348623157e308])
    signal = np.array([-0.0, 1e300, -5e-324, 2.0, -7.0, 0.1])
    path = tmp_path / "trace.csv"
    write_csv(path, "time_s,signal_v", [(times, signal)])
    rows = ["time_s,signal_v\n"] + [f"{float(t)!r},{float(v)!r}\n"
                                     for t, v in zip(times, signal)]
    assert path.read_bytes() == "".join(rows).encode()


def test_fit_json_deterministic(tmp_path):
    _, tr = ideal_rabi_trace()
    fit = fit_damped_sine(tr)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        _write_json(path, {**vars(fit), "scenario": "rabi"})
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["scenario"] == "rabi"
    assert data["damping"] == fit.damping
    assert data["std_errors"] == fit.std_errors
