"""Sample labels of the probe clock: sample k of a walk is labelled k/f_rep,
the double nearest the exact quotient, wherever the walk steps onto the
clock; a sample the walk takes off the clock keeps the time it reached."""
import math
from fractions import Fraction

import numpy as np
import pytest

from qndsim.atoms import EnsembleState, ProbeTuning
from qndsim.harness import (
    CLOCK_TOLERANCE,
    FreeEvolution,
    MicrowavePulse,
    ProbeGate,
    PulseSequence,
    build_spin_echo,
    run_scan,
    run_sequence,
)
from qndsim.heterodyne import DetectorModel, ModulatedProbe

ENSEMBLE = EnsembleState.all_lower(1e7, cloud_rms=3e-4)
BEAM, DETECTOR = ModulatedProbe(), DetectorModel()
RATES = (1e5, 3e4, 7e4 / 3, 123456.789)     # Hz: the bundled clock and three others


def gate(rate: float) -> ProbeGate:
    return ProbeGate(repetition_rate=rate, pulse_duration=0.125 / rate, tuning=ProbeTuning())


def assert_nearest(t: float, k: int, rate: float) -> None:
    """t is the double nearest the exact k/rate: no neighbour is nearer."""
    exact = Fraction(k) / Fraction(rate)
    for other in (math.nextafter(t, -math.inf), math.nextafter(t, math.inf)):
        assert abs(Fraction(t) - exact) <= abs(Fraction(other) - exact), (k, t)


def assert_on_clock(times: np.ndarray, rate: float) -> None:
    # k * (1/rate) rounds twice: at 100 kHz 0.0012300000000000002 for k = 123
    assert times.tobytes() == (np.arange(times.size) / rate).tobytes()
    for k, t in enumerate(times.tolist()):
        assert_nearest(t, k, rate)


@pytest.mark.parametrize("rate", RATES)
def test_sequence_samples_are_labelled_k_over_the_rate(rate):
    # a drive that ends off the clock, then free evolution: the walk steps
    # to the segment end and back onto the clock, in runs and one by one
    drive = MicrowavePulse(2 * math.pi * 6.6e3, 1.0000037e-3)
    seq = PulseSequence((drive, FreeEvolution(1e-3)), probe=gate(rate))
    assert_on_clock(run_sequence(seq, ENSEMBLE, BEAM, DETECTOR, seed=3).times, rate)


@pytest.mark.parametrize("rate", RATES)
def test_scan_samples_are_labelled_k_over_the_rate(rate):
    seq = build_spin_echo(probe=gate(rate))
    times, signals, _ = run_scan(seq, [0.0, 250.0, -1e3], ENSEMBLE, BEAM, DETECTOR, seed=5)
    assert signals.shape == (3, times.size)
    assert_on_clock(times, rate)


def test_an_off_clock_sample_keeps_the_time_the_walk_reached():
    # a clock period under CLOCK_TOLERANCE: sample k is then within the
    # tolerance of the time the walk reached when the walk is not yet past
    # k * period, and is taken there, off the clock, without a step
    rate = 1.25e12
    period = 1 / rate
    seq = PulseSequence((MicrowavePulse(2 * math.pi * 6.6e3, 2e-11),), probe=gate(rate))
    times, _, _ = run_scan(seq, [0.0], ENSEMBLE, BEAM, DETECTOR, seed=2, noiseless=True)
    want, off, t_now = [0.0], [], 0.0
    for k in range(1, times.size):
        if k * period > t_now + CLOCK_TOLERANCE:    # a step onto the clock
            t_now = k * period
            want.append(k / rate)
        else:
            off.append(k)
            want.append(t_now)
    assert times.size == 27 and 0 < len(off) < 26    # 2e-11 s and the tolerance: 26.25 periods
    assert times.tolist() == want
    assert all(times[k] != k / rate for k in off)
