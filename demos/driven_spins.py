"""Drive the ensemble: a probed Rabi trace, its fit, and the echo family."""
import math

import numpy as np

from qndsim.atoms import EnsembleState, ProbeTuning, RabiModel, light_shift
from qndsim.constants import H
from qndsim.harness import (
    MicrowavePulse,
    ProbeGate,
    PulseSequence,
    build_spin_echo,
    fit_damped_sine,
    mid_pulse_amplitude,
    run_sequence,
)
from qndsim.heterodyne import DetectorModel, ModulatedProbe

OMEGA = 2 * math.pi * 6.6e3


def wide_probe():
    tuning = ProbeTuning.from_powers(70e-6, 90e-9, 800e-6,
                                     sideband_detuning=7.9,
                                     modulation_frequency=2.5e9)
    gate = ProbeGate(tuning=tuning)
    probe = ModulatedProbe(carrier_power=70e-6,
                           modulation_depth=math.sqrt(90e-9 / 70e-6),
                           modulation_frequency=2 * math.pi * 2.5e9,
                           carrier_detuning=-2.5e9, sideband_power=90e-9,
                           beam_waist=800e-6)
    return gate, probe


def main():
    det = DetectorModel()
    gate, probe = wide_probe()
    init = EnsembleState.all_lower(1e7, cloud_rms=300e-6)

    # the pulsed carrier light-shifts the clock transition; the duty-cycle
    # averaged value acts as an extra detuning and pulls the oscillation
    shift = light_shift(gate.tuning, gate.duty_cycle)
    drive = RabiModel(carrier_light_shift=shift)
    print(f"duty-averaged light shift: {shift / H:.0f} Hz")

    seq = PulseSequence((MicrowavePulse(OMEGA, 2e-3),), probe=gate)
    trace = run_sequence(seq, init, probe, det, seed=1, template=drive)
    fit = fit_damped_sine(trace, window=0.8e-3)
    pulled = math.hypot(6600.0, shift / H)
    print(f"fitted frequency {fit.frequency:7.1f} Hz "
          f"(generalized Rabi predicts {pulled:.1f})")
    print(f"fitted damping   {fit.damping:7.1f} 1/s "
          f"(+/- {fit.std_errors['damping']:.0f})")
    print(f"trace: {trace.times.size} samples, "
          f"noise rms {np.std(trace.signal - trace.signal.mean()):.2e} V")

    # echo family: same sequence at several detunings, amplitude read in
    # the middle of the refocusing pi pulse. Zero-backaction clock so the
    # detunings are relative to the dressed resonance.
    quiet = ProbeGate(tuning=ProbeTuning(sideband_detuning=7.9,
                                         sideband_intensity=0.0,
                                         carrier_intensity=0.0))
    clean = RabiModel(carrier_light_shift=0.0, residual_damping=0.0)
    small = EnsembleState.all_lower(1e6)
    print("\nspin-echo mid-pulse amplitude vs detuning:")
    print("  detuning   500us window   100us gaps")
    for d in (0.0, 1000.0, 1200.0, 1800.0):
        amps = []
        for gap in (None, 100e-6):
            s = build_spin_echo(detuning=d, gap=gap, probe=quiet)
            tr = run_sequence(s, small, probe, det, noiseless=True,
                              template=clean)
            amps.append(mid_pulse_amplitude(tr, s))
        print(f"  {d:6.0f} Hz   {amps[0]:.3e}      {amps[1]:.3e}")
    print("(long gaps fold the 1.8 kHz phase past a quarter turn, so its")
    print(" amplitude climbs back; short gaps keep the family monotone)")


if __name__ == "__main__":
    main()
