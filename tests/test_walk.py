"""The run-length sequence walk against the per-step walk it replaced.

`walk_reference.run_sequence` is the previous list-based walk, one plain
matvec per step. The package walk must reproduce it bit for bit: times,
signal, final state vector, metadata, and the type and text of any
exception.
"""
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qndsim
import qndsim.cli as cli
import qndsim.harness as harness
import walk_reference as reference
from qndsim.atoms import EnsembleState, ProbeTuning, RabiModel, state_vector
from qndsim.constants import H
from qndsim.harness import (
    FreeEvolution,
    MicrowavePulse,
    ProbeGate,
    PulseSequence,
    build_spin_echo,
)
from qndsim.heterodyne import DetectorModel, ModulatedProbe

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
STRONG_SCATTERING = ("probe_gate.sideband_power_nw=2000",
                     "drive.rabi_frequency_khz=0.5",
                     "ensemble.atom_number=1e6")


def outcome(engine, args, kwargs):
    """Everything a walk hands back, as bytes where it is an array."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            trace = engine(*args, **kwargs)
        except Exception as exc:    # compared by type and message
            return type(exc), str(exc)
    return (trace.times.tobytes(), trace.signal.tobytes(),
            state_vector(trace.final_state).tobytes(), trace.metadata)


def assert_same_walk(*args, **kwargs):
    new = outcome(harness.run_sequence, args, kwargs)
    assert new == outcome(reference.run_sequence, args, kwargs)
    return new


def cli_calls(monkeypatch, tmp_path, config, overrides=()):
    """The arguments of every run_sequence call of one `qndsim run`."""
    calls, walk = [], cli.run_sequence

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        return walk(*args, **kwargs)

    argv = ["run", str(config), "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    with monkeypatch.context() as patch, warnings.catch_warnings():
        patch.setattr(cli, "run_sequence", capture)
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    assert calls
    return code, calls


CASES = {
    "rabi": ("rabi.json", ()),
    "rabi-noiseless": ("rabi.json", ("options.noiseless=true",)),
    "spin-echo": ("spin_echo.json", ()),
    "spin-echo-seeded": ("spin_echo.json", ("options.noiseless=false",)),
    **{f"strong-scattering-{w}": (
        "rabi.json", (f"probe_gate.sideband_detuning_linewidths={w}",) + STRONG_SCATTERING)
       for w in (0.5, 1.0, 2.0)},
    "strong-scattering-huge-drive": (
        "rabi.json", ("probe_gate.sideband_detuning_linewidths=0.5",
                      "probe_gate.sideband_power_nw=2000",
                      "ensemble.atom_number=1e6",
                      "drive.rabi_frequency_khz=1e12")),
    "echo-pi-20us": ("spin_echo.json", ("echo.pi_duration_us=20",)),
    "echo-pi-10us": ("spin_echo.json", ("echo.pi_duration_us=10",)),
    "echo-gapless": ("spin_echo.json", ("echo.gap_us=0",)),
    "echo-50khz": ("spin_echo.json", ("probe_gate.repetition_rate_khz=50",)),
    "echo-30khz-pi-20us": ("spin_echo.json", ("probe_gate.repetition_rate_khz=30",
                                              "echo.pi_duration_us=20")),
    "echo-50khz-gapless-pi-10us": ("spin_echo.json", (
        "probe_gate.repetition_rate_khz=50", "echo.gap_us=0",
        "echo.pi_duration_us=10")),
}


@pytest.mark.parametrize("case", CASES)
def test_cli_walks_match_reference(monkeypatch, tmp_path, case):
    config, overrides = CASES[case]
    _, calls = cli_calls(monkeypatch, tmp_path, CONFIG_DIR / config, overrides)
    for args, kwargs in calls:
        assert_same_walk(*args, **kwargs)


def test_clamp_fallback_and_step_error_match_reference(monkeypatch, tmp_path):
    # this config once took the clamp fallback; expm's inaccuracy at the
    # huge drive leaks more atoms than there are, and both walks say so
    code, calls = cli_calls(monkeypatch, tmp_path, CONFIG_DIR / "rabi.json",
                            CASES["strong-scattering-huge-drive"][1])
    assert code == 3
    kind, message = assert_same_walk(*calls[0][0], **calls[0][1])
    assert kind.__name__ == "StepError" and message.startswith("segment 0: ")


def test_regime_error_matches_reference():
    # no F=2 atoms, so no phase, until the pulse of segment 1
    gate = ProbeGate(tuning=ProbeTuning(sideband_intensity=0.0, carrier_intensity=0.0))
    seq = PulseSequence((FreeEvolution(15e-6), MicrowavePulse(3e4, 40e-6)), probe=gate)
    kind, message = assert_same_walk(seq, EnsembleState.all_lower(1e12, cloud_rms=1e-4),
                                     ModulatedProbe(), DetectorModel())
    assert kind.__name__ == "RegimeError" and message.startswith("segment 1: ")


def test_echo_builds_one_generator_per_distinct_segment(monkeypatch):
    made = []
    real = harness.generator
    monkeypatch.setattr(harness, "generator", lambda *a: made.append(a) or real(*a))
    seq = build_spin_echo(probe=ProbeGate())
    harness.run_sequence(seq, EnsembleState.all_lower(1e7, cloud_rms=3e-4),
                         ModulatedProbe(), DetectorModel(), noiseless=True)
    assert len(seq.segments) == 5 and len(made) == 2


def test_in_place_dot_is_bitwise_the_matvec():
    # the walk writes each row with np.dot(P, previous row, row)
    rng = np.random.default_rng(3)
    for scale in (1e-6, 1.0, 1e7):
        props = rng.normal(size=(200, 5, 5))
        props[::3, 1, 2] = 0.0
        trajectory = rng.normal(scale=scale, size=(201, 5))
        for p, prev, row in zip(props, trajectory[:-1], trajectory[1:]):
            np.dot(p, prev, row)
            assert row.tobytes() == (p @ prev).tobytes()


# ----------------------------------------------------- random segment lists

PERIOD = 10e-6
durations = st.one_of(
    st.integers(1, 12).map(lambda n: n * PERIOD),                    # on the clock
    st.tuples(st.integers(1, 12), st.sampled_from([-1e-12, -3e-13, 3e-13, 2e-12])).map(
        lambda t: t[0] * PERIOD + t[1]),                             # near the clock
    st.floats(0.3e-6, 130e-6),                                       # anywhere
)
pulses = st.builds(MicrowavePulse, st.sampled_from([0.0, 2 * math.pi * 6.6e3, 4.2e4]),
                   durations, st.sampled_from([0.0, 1500.0]),
                   st.sampled_from([0.0, -0.0, math.pi / 2]))
gaps = st.builds(FreeEvolution, durations, st.sampled_from([0.0, 1500.0]))


@st.composite
def sequences(draw):
    pool = draw(st.lists(st.one_of(pulses, gaps), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    rate = draw(st.sampled_from([100e3, 50e3, 30e3]))
    return PulseSequence(tuple(picks), probe=ProbeGate(repetition_rate=rate))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sequences(), st.booleans(), st.booleans(), st.booleans(), st.integers(0, 3))
def test_random_sequences_match_reference(seq, shifted, strong, noiseless, seed):
    # without a light shift a pulse may have no drive at all
    template = RabiModel(residual_damping=300.0,
                         carrier_light_shift=2e3 * H if shifted else 0.0)
    gate = seq.probe
    if strong:     # a near-resonant sideband: most atoms leave the manifold
        gate = ProbeGate(gate.repetition_rate, tuning=ProbeTuning.from_powers(
            sideband_power=2e-6, sideband_detuning=0.5, waist=245e-6))
        seq = PulseSequence(seq.segments, probe=gate)
    assert_same_walk(seq, EnsembleState.all_lower(1e6, cloud_rms=3e-4),
                     ModulatedProbe(), DetectorModel(), seed=seed,
                     template=template, noiseless=noiseless)


@pytest.mark.parametrize("rate, periods", [(100e3, 27), (70e3, 7), (100e3, 3), (30e3, 5)])
def test_segment_ends_one_eps_before_a_sample_match_reference(rate, periods):
    # (end + eps)/period rounds below `periods` in the first two cases and
    # to it, though periods*period lies past end + eps, in the last two
    gate = ProbeGate(rate)
    seq = PulseSequence((MicrowavePulse(4.2e4, periods / rate - 1e-12),
                         FreeEvolution(25e-6)), probe=gate)
    assert_same_walk(seq, EnsembleState.all_lower(1e6, cloud_rms=3e-4),
                     ModulatedProbe(), DetectorModel(), noiseless=True)


@pytest.mark.parametrize("rate, duration", [
    (4e11, 1.3e-11), (9e11, 4e-11), (1 / 1.0000000000000002e-12, 1e-11), (2e12, 1e-11)])
def test_periods_near_the_clock_tolerance_match_reference(rate, duration):
    # periods of a few eps (1e-12 s): rounding decides which samples take
    # a step; one ulp above eps, a sample after an on-clock step takes none
    gate = ProbeGate(rate, pulse_duration=1e-16)
    seq = PulseSequence((MicrowavePulse(4.2e4, duration), FreeEvolution(2e-11)),
                        probe=gate)
    assert_same_walk(seq, EnsembleState.all_lower(1e6, cloud_rms=3e-4),
                     ModulatedProbe(), DetectorModel(), noiseless=True)
