"""The run-length sequence walk against the per-step walk it replaced.

`walk_reference.run_sequence` is the previous list-based walk, one plain
matvec per step. The package walk fills each run of whole probe periods
by doubling, so it rounds differently: times, signal and final state
vector must match the reference to rtol 1e-12, with an absolute floor of
1e-13 of the reference's largest magnitude (for a `qndsim` run's signal,
at least 1e-13 of its full-scale signal), and any exception must match
it in type and text. Past 10^4 periods the bound is a rounding budget
that grows with the run length. A detuning scan of one sequence must still
give each trace the bits of the one-trace walk of its own sequence, the
sequence with every segment's detuning set to the trace's.
"""
import contextlib
import io
import itertools
import json
import math
import tempfile
import warnings
import weakref
from collections import Counter
from qndsim.constants import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndsim
import qndsim.cli as cli
import qndsim.harness as harness
import artifact_digests
import walk_reference as reference
from qndsim.atoms import EnsembleState, ProbeTuning, RabiModel, expm, state_vector
from qndsim.constants import H
from qndsim.errors import DomainError, StepError
from qndsim.harness import (
    FreeEvolution,
    MicrowavePulse,
    ProbeGate,
    PulseSequence,
    Trace,
    build_spin_echo,
)
from qndsim.heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    demodulated_signal,
)

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
STRONG_SCATTERING = ("probe_gate.sideband_power_nw=2000",
                     "drive.rabi_frequency_khz=0.5",
                     "ensemble.atom_number=1e6")


def outcome(engine, args, kwargs):
    """What a walk hands back: per trace (one for `run_sequence`) its times,
    signal row and final state vector, or the type and message of the
    exception it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = engine(*args, **kwargs)
        except Exception as exc:    # compared by type and message
            return type(exc), str(exc)
    if isinstance(result, Trace):
        result = reference.as_scan([result])
    times, signals, finals = result
    return [(times, signal, final) for signal, final in zip(signals, finals)]


def assert_close(new, old, signal_floor=0.0):
    """Exceptions alike in type and text, or traces alike to rounding; a
    signal's absolute floor is at least signal_floor."""
    if isinstance(old, tuple) or isinstance(new, tuple):
        assert new == old
        return
    assert len(new) == len(old)
    for got, want in zip(new, old):
        for a, b, floor in zip(got, want, (0.0, signal_floor, 0.0)):
            np.testing.assert_allclose(a, b, rtol=1e-12,
                                       atol=max(1e-13 * np.abs(b).max(), floor))


def full_scale(seq, initial, probe, det):
    """The signal of every atom of `initial` in F=2: in the small-phase
    regime, which a `qndsim` set-up checks."""
    phi = harness.sideband_phase(seq.probe, probe, initial.atom_number, initial.cloud_rms)
    return abs(float(demodulated_signal(probe, PhaseShiftTriple(phi_plus=phi), det)))


def assert_same_walk(*args, signal_floor=0.0, **kwargs):
    new = outcome(harness.run_sequence, args, kwargs)
    assert_close(new, outcome(reference.run_sequence, args, kwargs), signal_floor)
    return new


def walked_one_by_one(walk):
    """A scan as `walk` walks it: the sequence of one trace after the other."""
    def scan(seq, detunings, *args, seed=0, **kwargs):
        return reference.as_scan([walk(reference.detuned(seq, d), *args, seed=seed + i, **kwargs)
                                  for i, d in enumerate(detunings)])
    return scan


reference_scan = walked_one_by_one(reference.run_sequence)
own_walks = walked_one_by_one(harness.run_sequence)


def bits(result):
    """An outcome with every array as its bytes."""
    return result if isinstance(result, tuple) else [[a.tobytes() for a in trace]
                                                     for trace in result]


def assert_same_scan(*args, **kwargs):
    new = outcome(harness.run_scan, args, kwargs)
    assert_close(new, outcome(reference_scan, args, kwargs))
    return new


def cli_calls(monkeypatch, tmp_path, config, overrides=()):
    """The arguments of every run_sequence call of one `qndsim run`, a
    run_scan call counting as one run_sequence call per trace; the scan's
    (times, signals, finals) record goes back to `cli` unchanged. `cli`
    imports both from `harness` where it calls them, so the seams are
    harness's names; the run_scan inside a captured run_sequence is that
    same walk and is not captured again."""
    calls, walk, scan, inside = [], harness.run_sequence, harness.run_scan, []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        inside.append(True)
        try:
            return walk(*args, **kwargs)
        finally:
            inside.pop()

    def capture_scan(seq, detunings, *args, **kwargs):
        if not inside:
            seed = kwargs.get("seed", 0)
            calls.extend(((reference.detuned(seq, d), *args), {**kwargs, "seed": seed + i})
                         for i, d in enumerate(detunings))
        return scan(seq, detunings, *args, **kwargs)

    argv = ["run", str(config), "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    with monkeypatch.context() as patch, warnings.catch_warnings():
        patch.setattr(harness, "run_sequence", capture)
        patch.setattr(harness, "run_scan", capture_scan)
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


# the pi pulse of these falls between two clock ticks, so `qndsim` refuses
# them: no sample would read the echo. The walk itself takes such sequences.
UNSAMPLED_PI = ("echo-30khz-pi-20us", "echo-50khz-gapless-pi-10us")


def unchecked_echo(*, probe, **kwargs):
    """build_spin_echo's sequence without its pi-pulse sampling check."""
    dense = ProbeGate(repetition_rate=1e9, pulse_duration=1e-12)
    return replace(build_spin_echo(probe=dense, **kwargs), probe=probe)


@pytest.mark.parametrize("case", CASES)
def test_cli_walks_match_reference(monkeypatch, tmp_path, case):
    config, overrides = CASES[case]
    if case in UNSAMPLED_PI:
        monkeypatch.setattr(harness, "build_spin_echo", unchecked_echo)
    _, calls = cli_calls(monkeypatch, tmp_path, CONFIG_DIR / config, overrides)
    # a sample is a cancellation remainder where the F=2 population is a few
    # atoms of many (-1.8e-10 V of an unsampled pi): one ulp of Jz moves it
    # by 1e-10 of itself, so the signal's floor is 1e-13 of full scale
    for args, kwargs in calls:
        assert_same_walk(*args, signal_floor=1e-13 * full_scale(*args), **kwargs)


@pytest.mark.parametrize("khz", ["1e12", "1e9", "1e6", "6.6"])
def test_huge_drives_stay_within_budget_of_a_60_digit_walk(monkeypatch, tmp_path, khz):
    # expm's period matrix is good to about an ulp per unit of |G dt|, the
    # rotation per period (6.3e10 at 1e12 kHz), and the walk adds about an
    # ulp per period; the final state of `count` periods stays within
    # count * eps * (1 + |G dt|) of its largest component of the same
    # generator's walk at 60 digits (measured: 0.02 to 0.2 of that)
    mpmath = pytest.importorskip("mpmath")
    code, calls = cli_calls(monkeypatch, tmp_path, CONFIG_DIR / "rabi.json", (
        "probe_gate.sideband_detuning_linewidths=0.5", *STRONG_SCATTERING,
        f"drive.rabi_frequency_khz={khz}"))
    (seq, initial, *args), kwargs = calls[0]
    (pulse,) = seq.segments
    gate = seq.probe
    times, _, finals = harness.run_scan(seq, [pulse.detuning], initial, *args,
                                        **{**kwargs, "noiseless": True})
    count = times.size - 1
    assert code == 0 and count == 200
    drive = reference._segment_model(pulse, kwargs.get("template") or RabiModel())
    step = reference.generator(drive, gate.tuning, gate.duty_cycle, pulse.phase) * gate.period
    with mpmath.workdps(60):
        period = mpmath.expm(mpmath.matrix(step.tolist()))
        v = mpmath.matrix(state_vector(initial).tolist())
        for _ in range(count):
            v = period * v
        want = np.array(v.tolist(), dtype=float)[:, 0]
    budget = count * np.finfo(float).eps * (1 + np.abs(step).sum(axis=0).max())
    np.testing.assert_allclose(finals[0], want, rtol=0, atol=budget * np.abs(want).max())


def strong_probing_examples(test):
    """The 18-config grid of sideband power (nW), pulse duration (us) and
    atom number as explicit examples: most atoms leave the clock levels."""
    for power, pulse, atoms in itertools.product((500, 2000, 5000), (0.125, 1.25, 5),
                                                 (1e4, 1e6)):
        test = example(power, pulse, atoms)(test)
    return test


@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.floats(500, 5000), st.floats(0.125, 5), st.floats(1e4, 1e6))
@strong_probing_examples
def test_strong_probing_walks_exit_zero_as_the_reference(power, pulse, atoms):
    # a 0.5 kHz drive probed for 1 s half a linewidth off resonance: the
    # coherent population falls by over 100 orders of magnitude and the
    # Bloch vector with it. The run exits 0; the per-step walk raises
    # nothing either, so it would exit 0 too, and gives the same trace. Its
    # final state, 10^5 periods on, is held to the doubling's budget of
    # count ulp of its largest component
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
        code, calls = cli_calls(patch, Path(out), CONFIG_DIR / "rabi.json", (
            "drive.rabi_frequency_khz=0.5", "drive.duration_ms=1000",
            "probe_gate.sideband_detuning_linewidths=0.5",
            f"probe_gate.sideband_power_nw={power!r}",
            f"probe_gate.pulse_duration_us={pulse!r}", f"ensemble.atom_number={atoms!r}"))
    (args, kwargs), = calls
    new, old = (outcome(walk, args, kwargs) for walk in (harness.run_sequence,
                                                         reference.run_sequence))
    assert code == 0 and isinstance(old, list)
    assert_close([trace[:2] for trace in new], [trace[:2] for trace in old])
    (times, _, final), = new
    want = old[0][2]
    np.testing.assert_allclose(final, want, rtol=0, atol=(times.size - 1)
                               * np.finfo(float).eps * np.abs(want).max())


# the sign of a generator term flipped, and the invariant that trips
WRONG_SIGNS = {
    "coherent-population-grows": (np.s_[..., 3, :], "populations must be nonnegative"),
    "transverse-spin-grows": (np.s_[..., (0, 1), (0, 1)], "Bloch vector longer than N_coh/2"),
}


def with_wrong_sign(monkeypatch, index, detuning=None):
    """Both generator builders with gen[index] negated, for every drive or
    only for drives at the given detuning."""
    stacked, single = harness.generators, reference.generator

    def flip(gen, at):
        if detuning in (None, at):
            gen[index] *= -1
        return gen

    def flipped(drives, tuning, duty_cycle, detunings=None):
        gens = stacked(drives, tuning, duty_cycle, detunings)
        for row, (drive, _) in zip(gens, drives):
            for gen, at in zip(row.reshape(-1, 4, 4), detunings or [drive.detuning]):
                flip(gen, at)
        return gens

    monkeypatch.setattr(harness, "generators", flipped)
    monkeypatch.setattr(reference, "generator",
                        lambda drive, *a: flip(single(drive, *a), drive.detuning))


@pytest.mark.parametrize("case", WRONG_SIGNS)
def test_a_wrong_generator_sign_trips_the_invariant_check(monkeypatch, tmp_path, capsys,
                                                          case):
    index, message = WRONG_SIGNS[case]
    with_wrong_sign(monkeypatch, index)
    code, calls = cli_calls(monkeypatch, tmp_path, CONFIG_DIR / "rabi.json")
    assert code == 3
    assert (f"StepError: segment 0: invariants violated after step: {message}"
            in capsys.readouterr().err)
    kind, text = assert_same_walk(*calls[0][0], **calls[0][1])
    assert kind.__name__ == "StepError" and text.endswith(message)


def test_a_nan_state_is_a_step_error_and_exits_three(monkeypatch, tmp_path, capsys):
    # a NaN coherent population passes every invariant comparison; the walk
    # must still flag the row, and the run exits 3
    def poisoned(a):
        props = expm(a)
        props[..., 3, 3] = math.nan
        return props

    monkeypatch.setattr(harness, "expm", poisoned)
    code = cli.main(["run", str(CONFIG_DIR / "rabi.json"), "--out", str(tmp_path)])
    assert code == 3
    assert ("StepError: segment 0: invariants violated after step: atom number, Bloch "
            "vector and N_coh must be finite") in capsys.readouterr().err


def test_regime_error_matches_reference():
    # no F=2 atoms, so no phase, until the pulse of segment 1
    gate = ProbeGate(tuning=ProbeTuning(sideband_intensity=0.0, carrier_intensity=0.0))
    seq = PulseSequence((FreeEvolution(15e-6), MicrowavePulse(3e4, 40e-6)), probe=gate)
    kind, message = assert_same_walk(seq, EnsembleState.all_lower(1e12, cloud_rms=1e-4),
                                     ModulatedProbe(), DetectorModel())
    assert kind.__name__ == "RegimeError" and message.startswith("segment 1: ")


def test_echo_builds_one_generator_per_distinct_segment(monkeypatch):
    made = []
    real = harness.generators
    monkeypatch.setattr(harness, "generators",
                        lambda drives, *a: made.append(len(drives)) or real(drives, *a))
    seq = build_spin_echo(probe=ProbeGate())
    harness.run_sequence(seq, EnsembleState.all_lower(1e7, cloud_rms=3e-4),
                         ModulatedProbe(), DetectorModel(), noiseless=True)
    assert len(seq.segments) == 5 and made == [2]


def expm_batches(monkeypatch):
    """The number of matrices of each batch the walk hands to expm."""
    batches, real = [], harness.expm
    monkeypatch.setattr(harness, "expm", lambda a: batches.append(len(a)) or real(a))
    return batches


@pytest.mark.parametrize("run", ["spin_echo", "echo-scan/spin_echo@full"])
def test_echo_exponentiates_four_matrices_per_trace(monkeypatch, tmp_path, run):
    # the echo's 2.75 us and 7.25 us partial steps are each `boundary - tick`
    # at four boundaries, four roundings of one length: the drive's and the
    # gap's generator each take one matrix per step length, the period and
    # one partial step, not one per rounding (10 per trace)
    config, _ = artifact_digests.runs()[run]
    if isinstance(config, dict):    # a generated config's body
        body, config = config, tmp_path / "echo.json"
        config.write_text(json.dumps(body), encoding="utf-8")
    batches = expm_batches(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    assert batches == [4 * len(json.loads(config.read_text())["echo"]["detunings_hz"])]


def test_step_lengths_apart_by_more_than_rounding_keep_their_matrices(monkeypatch):
    # one drive, a 30 us clock: a 20 us first segment, then a step to the
    # first tick, whole periods, and a last step of 20 us + 1e-15 s. The two
    # 20 us steps differ by far more than the rounding of a 500 us boundary
    # (4 ulp: 4.3e-19 s) and less than CLOCK_TOLERANCE, so they keep one
    # matrix each: four in all
    pulse = MicrowavePulse(4.2e4, 20e-6)
    seq = PulseSequence((pulse, replace(pulse, duration=480e-6 + 1e-15)),
                        probe=ProbeGate(repetition_rate=1 / 30e-6))
    assert 1e-15 > 4 * math.ulp(seq.total_duration) and 1e-15 < harness.CLOCK_TOLERANCE
    batches = expm_batches(monkeypatch)
    assert_same_walk(seq, *ECHO_ARGS, noiseless=True)
    assert batches == [4]


@pytest.mark.parametrize("overrides", [(), STRONG_SCATTERING], ids=["rabi", "strongly-damped"])
@pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 9, 10_000])
def test_doubling_fills_a_run_as_the_sequential_matvec(monkeypatch, tmp_path, count,
                                                       overrides):
    # a pulse of `count` whole probe periods is one run: the walk fills its
    # rows by doubling, the reference multiplies by the period matrix per row
    _, calls = cli_calls(monkeypatch, tmp_path, CONFIG_DIR / "rabi.json", overrides)
    (seq, initial, *args), kwargs = calls[0]
    (pulse,) = seq.segments
    gate = seq.probe
    walked, real = [], harness.broken_invariants
    monkeypatch.setattr(harness, "broken_invariants",
                        lambda vs, n_at: walked.append(vs.copy()) or real(vs, n_at))
    harness.run_sequence(PulseSequence((replace(pulse, duration=count * gate.period),),
                                       probe=gate), initial, *args, **kwargs)
    drive = reference._segment_model(pulse, kwargs.get("template") or RabiModel())
    period = expm(reference.generator(drive, gate.tuning, gate.duty_cycle, pulse.phase)
                  * gate.period)
    rows = [state_vector(initial)]
    for _ in range(count):
        rows.append(period @ rows[-1])
    (trajectory,) = walked
    assert trajectory.shape == (count + 1, 1, 4)
    for got, want in zip(trajectory[:, 0].T, np.transpose(rows)):    # per component
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("overrides", [(), STRONG_SCATTERING], ids=["rabi", "strongly-damped"])
@pytest.mark.parametrize("count", [10**5, 10**6])
def test_doubling_error_grows_linearly_to_the_sample_limit(monkeypatch, tmp_path, count,
                                                           overrides):
    # a pulse of `count` whole periods of a 1 MHz clock at the config's duty
    # cycle ends in P^count v0. The doubled power and the sequential product
    # each carry about an ulp of relative error per factor of P, and
    # neither corrects it, so their gap grows linearly with count; a 4x4
    # matvec mixes every component, so it scales with the largest one.
    # The budget is count ulp of it (measured: 0.002 to 0.01 of that)
    _, calls = cli_calls(monkeypatch, tmp_path, CONFIG_DIR / "rabi.json", overrides)
    (seq, initial, *args), kwargs = calls[0]
    (pulse,) = seq.segments
    gate = replace(seq.probe, repetition_rate=1e6, pulse_duration=seq.probe.duty_cycle / 1e6)
    times, _, finals = harness.run_scan(
        PulseSequence((replace(pulse, duration=count * gate.period),), probe=gate),
        [pulse.detuning], initial, *args, **{**kwargs, "noiseless": True})
    drive = reference._segment_model(pulse, kwargs.get("template") or RabiModel())
    period = expm(reference.generator(drive, gate.tuning, gate.duty_cycle, pulse.phase)
                  * gate.period)
    want = state_vector(initial)
    for _ in range(count):
        want = period @ want
    assert times.shape == (count + 1,)
    np.testing.assert_allclose(finals[0], want, rtol=0,
                               atol=count * np.finfo(float).eps * np.abs(want).max())


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


# ------------------------------------------------------------------ scans

ECHO_ARGS = (EnsembleState.all_lower(1e7, cloud_rms=3e-4), ModulatedProbe(), DetectorModel())
detunings = st.one_of(st.sampled_from([0.0, -0.0, 1000.0, -1800.0]),
                      st.floats(-3000.0, 3000.0))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(detunings, min_size=1, max_size=8), st.booleans(), st.integers(0, 3))
@example([0.0], True, 0)
@example([1200.0], False, 3)
@example([0.0, -0.0, 0.0, 1000.0, 1000.0], False, 5)
def test_echo_scans_match_reference(deltas, noiseless, seed):
    # every trace of a scan is the reference walk of its own sequence with
    # its own seed: times, signal and final state
    traces = assert_same_scan(build_spin_echo(probe=ProbeGate()), deltas, *ECHO_ARGS, seed=seed,
                              noiseless=noiseless, template=RabiModel(residual_damping=300.0))
    assert len(traces) == len(deltas)


@pytest.mark.parametrize("noiseless", [True, False])
def test_scan_traces_are_their_own_walks_bitwise(noiseless):
    # row i of a scan's signals and finals holds the bits of the one-trace
    # walk of the echo built at detunings[i], at seed + i, whatever the
    # other rows of the stack hold; with back-action and without
    deltas = [0.0, -0.0, 1000.0, 1000.0, *np.linspace(-3000.0, 3000.0, 37)]
    kwargs = {"noiseless": noiseless, "template": RabiModel(residual_damping=300.0)}
    for gate in (ProbeGate(), ProbeGate(tuning=ProbeTuning(sideband_intensity=0.0,
                                                            carrier_intensity=0.0))):
        scan = outcome(harness.run_scan, (build_spin_echo(probe=gate), deltas, *ECHO_ARGS),
                       {**kwargs, "seed": 11})
        own = [outcome(harness.run_sequence, (build_spin_echo(detuning=d, probe=gate),
                                              *ECHO_ARGS), {**kwargs, "seed": 11 + i})[0]
               for i, d in enumerate(deltas)]
        assert len(scan) == len(own) == 41
        assert bits(scan) == bits(own)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sequences(), st.lists(detunings, min_size=1, max_size=4), st.booleans(),
       st.booleans(), st.booleans(), st.integers(0, 3))
def test_random_scans_match_reference(seq, deltas, shifted, strong, noiseless, seed):
    # each trace is the reference walk of its own sequence to rounding and
    # the package's one-trace walk of it bit for bit; a shifted template
    # makes an undriven pulse a DomainError, which the scan must report as
    # the first failing trace does
    template = RabiModel(residual_damping=300.0,
                         carrier_light_shift=2e3 * H if shifted else 0.0)
    if strong:
        gate = ProbeGate(seq.probe.repetition_rate, tuning=ProbeTuning.from_powers(
            sideband_power=2e-6, sideband_detuning=0.5, waist=245e-6))
        seq = PulseSequence(seq.segments, probe=gate)
    args = (seq, deltas, EnsembleState.all_lower(1e6, cloud_rms=3e-4), ModulatedProbe(),
            DetectorModel())
    kwargs = {"seed": seed, "template": template, "noiseless": noiseless}
    scan = assert_same_scan(*args, **kwargs)
    assert bits(scan) == bits(outcome(own_walks, args, kwargs))


def test_scan_step_error_is_the_failing_trace_own(monkeypatch, tmp_path):
    # of four traces only the third has the detuning at which the generator
    # makes the coherent population grow
    _, calls = cli_calls(monkeypatch, tmp_path, CONFIG_DIR / "rabi.json", STRONG_SCATTERING)
    (seq, *args), kwargs = calls[0]
    (pulse,) = seq.segments
    with_wrong_sign(monkeypatch, WRONG_SIGNS["coherent-population-grows"][0], 700.0)
    assert isinstance(outcome(reference_scan, (seq, [pulse.detuning], *args), kwargs), list)
    kind, message = assert_same_scan(seq, [pulse.detuning] * 2 + [700.0, pulse.detuning],
                                     *args, **kwargs)
    assert kind.__name__ == "StepError" and message.startswith("segment 0: ")


# no F=2 atoms, so no phase, until a resonant pulse in segment 1; a pulse
# 1 GHz off resonance transfers about 2e-11 of the atoms
FAR_OR_ON_RESONANCE = (
    PulseSequence((FreeEvolution(15e-6), MicrowavePulse(3e4, 40e-6)), probe=ProbeGate(
        tuning=ProbeTuning(sideband_intensity=0.0, carrier_intensity=0.0))),
    EnsembleState.all_lower(1e12, cloud_rms=1e-4), ModulatedProbe(), DetectorModel())


def test_scan_regime_error_is_the_failing_trace_own():
    seq, *args = FAR_OR_ON_RESONANCE
    assert isinstance(outcome(reference_scan, (seq, [1e9], *args), {}), list)
    kind, message = assert_same_scan(seq, [1e9, 1e9, 0.0, 1e9], *args)
    assert kind.__name__ == "RegimeError" and message.startswith("segment 1: ")


def test_scan_raises_the_first_failing_trace_error():
    # trace 1 leaves the small-phase regime in its walk; trace 2 fails
    # earlier in a batch, building its generator (its detuning makes the
    # rotation infinite); the scan still raises trace 1's error
    seq, *args = FAR_OR_ON_RESONANCE
    with pytest.raises(DomainError, match="not finite"):
        harness.run_scan(seq, [1e308], *args)
    kind, message = assert_same_scan(seq, [1e9, 0.0, 1e308], *args)
    assert kind.__name__ == "RegimeError" and message.startswith("segment 1: ")


def test_scan_replay_starts_once_the_failed_walk_is_freed(monkeypatch):
    # the failed scan's arrays, held by its frame and by the frames of the
    # error it was raised from, are gone before the one-trace replay walks
    walk, freed, at_replay = harness._walk, [], []

    def reject(view):
        raise DomainError("a view of the trajectory")

    def walk_failing_once(seq, detunings, *args):
        if len(detunings) == 1:
            at_replay.append(bool(freed))
            return walk(seq, detunings, *args)
        trajectory = np.zeros(8)
        weakref.finalize(trajectory, freed.append, True)
        try:
            reject(trajectory[4:])
        except DomainError as exc:
            raise StepError("segment 0: the scan") from exc

    monkeypatch.setattr(harness, "_walk", walk_failing_once)
    with pytest.raises(StepError, match="segment 0: the scan"):
        harness.run_scan(build_spin_echo(probe=ProbeGate()), [0.0, 0.0], *ECHO_ARGS)
    assert at_replay == [True, True]
    with pytest.raises(DomainError, match="a scan needs at least one detuning"):
        harness.run_scan(build_spin_echo(probe=ProbeGate()), [], *ECHO_ARGS)


def test_echo_scan_repeats_in_a_warm_worker(monkeypatch, tmp_path):
    # a worker that ran the bundled spin echo runs the full-size seed-131
    # echo-scan config twice: same bytes, one echo built, one stacked
    # generator build of two generators per trace and one expm call
    counts, expm, generators = Counter(), harness.expm, harness.generators
    echo = harness.build_spin_echo
    monkeypatch.setattr(harness, "expm", lambda a: counts.update(expm=1) or expm(a))
    monkeypatch.setattr(harness, "build_spin_echo",
                        lambda **kw: counts.update(echoes=1) or echo(**kw))

    def counted(*args):
        gens = generators(*args)
        counts.update(generators=1, built=gens[..., 0, 0].size)
        return gens

    monkeypatch.setattr(harness, "generators", counted)
    body, _ = artifact_digests.runs()["echo-scan/spin_echo@full"]
    config = tmp_path / "echo_scan.json"
    config.write_text(json.dumps(body), encoding="utf-8")

    def run(path):
        before = counts.copy()
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        return ({p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()},
                counts - before)

    run(CONFIG_DIR / "spin_echo.json")
    first, second = run(config), run(config)
    assert first == second
    assert first[1] == {"echoes": 1, "generators": 1,
                        "built": 2 * len(body["echo"]["detunings_hz"]), "expm": 1}
