"""Reference sequence walk: the per-step `run_sequence` kept as an oracle.

`run_sequence` below is the list-based walk that the run-length walk in
`qndsim.harness` replaced: one plain matvec per step, per-step and
per-sample Python lists and one generator per segment. The package walk
fills each run of whole probe periods by doubling, so tests hold it to
this walk at rtol 1e-12, with an absolute floor of 1e-13 of the largest
reference value, and require the same exceptions. It takes its matrix
exponentials from `qndsim.atoms.expm`, so those tests compare walks, not
exponentials.

Its generators come from `generator` below, the per-drive builder that the
stacked `qndsim.atoms.generators` replaced, and its segment models from a
local `_segment_model`, so the walk shares no set-up code with the engine.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from qndsim.atoms import (
    LEAK_FRACTION,
    EnsembleState,
    ProbeTuning,
    RabiModel,
    broken_invariants,
    carrier_pump_rate,
    damping_rate,
    expm,
    f2_population,
    light_shift,
    scattering_rate,
    sideband_photon_rate,
    state_vector,
    with_vector,
)
from qndsim.constants import H
from qndsim.errors import DomainError, RegimeError, StepError
from qndsim.harness import MicrowavePulse, PulseSequence, Trace
from qndsim.heterodyne import (
    SMALL_PHASE_LIMIT,
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    demodulated_signal,
    sample_noisy_signal,
)


def generator(drive: RabiModel, tuning: ProbeTuning, duty_cycle: float,
              drive_phase: float = 0.0) -> np.ndarray:
    """Generator G of dv/dt = G v for v = (Jx, Jy, Jz, N_coh), one drive at
    a time; see `qndsim.atoms.generators` for the model."""
    wx = drive.rabi_frequency * math.cos(drive_phase)
    wy = drive.rabi_frequency * math.sin(drive_phase)
    wz = 2 * math.pi * (drive.detuning + light_shift(tuning, duty_cycle) / H)
    beta = damping_rate(drive, scattering_rate(tuning, expansion_rate=0.0) * duty_cycle)
    leak = sideband_photon_rate(tuning) * duty_cycle * LEAK_FRACTION
    pump = carrier_pump_rate(tuning) * duty_cycle
    loss = (leak + pump) / 2
    if beta - loss < -1e-12 * beta:
        raise DomainError(f"branching {tuning.branching} is too small for leak fraction "
                          f"{LEAK_FRACTION}: beta - (leak + pump)/2 is {beta - loss:.3g} 1/s")
    rot = math.hypot(wx, wy, wz)
    axis = np.array([wx, wy, wz]) / rot if rot > 0 else np.array([0.0, 0.0, 1.0])
    gen = np.zeros((4, 4))
    gen[:3, :3] = [[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]]
    gen[:3, :3] -= (beta - loss) * (np.eye(3) - np.outer(axis, axis))
    gen[(0, 1), (0, 1)] -= loss
    for rate, sign in ((leak, 1.0), (pump, -1.0)):
        gen += np.outer([0, 0, -sign / 2, -1], [0, 0, sign * rate, rate / 2])
    if not np.isfinite(gen).all():
        raise DomainError("spin-engine rates are not finite")
    return gen


def _segment_model(seg, template: RabiModel) -> RabiModel:
    if isinstance(seg, MicrowavePulse):
        return replace(template, rabi_frequency=seg.rabi_frequency,
                       detuning=seg.detuning)
    # free evolution drops the drive and the shift-inhomogeneity term
    return replace(template, rabi_frequency=0.0, detuning=seg.detuning,
                   carrier_light_shift=0.0)


def run_sequence(
    seq: PulseSequence,
    initial: EnsembleState,
    probe: ModulatedProbe,
    det: DetectorModel,
    seed: int = 0,
    template: RabiModel | None = None,
    noiseless: bool = False,
) -> Trace:
    """Step the ensemble through the sequence, sampling at the probe clock.

    Each probe pulse converts the detected F=2 population (coherent upper
    level plus leaked atoms) into a dispersive phase, runs it through the
    demodulation chain and adds one shot of detection noise. Deterministic
    for a fixed seed. `template` supplies the damping bookkeeping
    (light shift, inhomogeneity, residual damping) reused by every
    segment.

    Each segment builds its generator once; one batched expm gives its
    full-period matrix and its partial steps, from the segment start to
    the first sample at k*period and from the last sample to the segment
    end, and each step is one matvec. Invariants are checked over the
    whole trajectory, and the detection chain runs once over all samples
    with one batched noise draw.

    StepError and RegimeError are re-raised with the index of the segment
    of the first offending step or sample prepended.
    """
    rng = np.random.default_rng(seed)
    base = template if template is not None else RabiModel()
    gate = seq.probe
    period = gate.period
    # per step: its segment and dt; per sample: its time, the number of
    # steps made before it and its segment
    gens, stepped_in, dts = [], [], []
    times, taken, sampled_in = [0.0], [0], [0]
    t_now = 0.0
    sample_index = 1
    eps = 1e-12
    for idx, seg in enumerate(seq.segments):
        gens.append(generator(_segment_model(seg, base), gate.tuning, gate.duty_cycle,
                              getattr(seg, "phase", 0.0)))
        seg_end = t_now + seg.duration
        while (t_next := sample_index * period) <= seg_end + eps:
            if t_next > t_now + eps:
                on_clock = t_now == (sample_index - 1) * period
                stepped_in.append(idx)
                dts.append(period if on_clock else t_next - t_now)
                t_now = t_next
            times.append(t_now)
            taken.append(len(dts))
            sampled_in.append(idx)
            sample_index += 1
        if seg_end > t_now + eps:
            stepped_in.append(idx)
            dts.append(seg_end - t_now)
            t_now = seg_end

    matrix_of: dict[tuple[int, float], int] = {}
    which = [matrix_of.setdefault(key, len(matrix_of)) for key in zip(stepped_in, dts)]
    props = expm(np.array([gens[i] * dt for i, dt in matrix_of])) if dts else ()
    v = state_vector(initial)
    trajectory = np.empty((len(dts) + 1, v.size))
    trajectory[0] = v
    for row, m in enumerate(which, 1):
        trajectory[row] = v = props[m] @ v
    bad = np.flatnonzero(broken_invariants(trajectory, initial.atom_number))
    if bad.size:
        try:
            with_vector(initial, trajectory[bad[0]])
        except StepError as exc:
            raise StepError(f"segment {stepped_in[bad[0] - 1]}: {exc}") from exc

    at = trajectory[taken]
    phi = atomic_phase(
        gate.tuning.sideband_detuning * gate.tuning.linewidth,
        np.maximum(f2_population(at, initial.atom_number), 0.0),
        probe.beam_waist,
        initial.cloud_rms,
        linewidth=gate.tuning.linewidth,
    )
    try:
        volts = demodulated_signal(probe, PhaseShiftTriple(phi_plus=phi), det)
    except RegimeError as exc:
        first = int(np.argmax(np.abs(phi) > SMALL_PHASE_LIMIT))
        raise RegimeError(f"segment {sampled_in[first]}: {exc}") from exc
    if not noiseless:
        volts = sample_noisy_signal(volts, det, probe, gate.pulse_duration, rng)

    return Trace(np.array(times), volts, with_vector(initial, trajectory[-1]))


def as_scan(traces: list[Trace]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (times, signals, finals) record `harness.run_scan` returns, stacked
    from traces sampled on one clock."""
    times = traces[0].times
    assert all(np.array_equal(trace.times, times) for trace in traces)
    return (times, np.array([trace.signal for trace in traces]),
            np.array([state_vector(trace.final_state) for trace in traces]))
