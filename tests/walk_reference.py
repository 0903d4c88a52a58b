"""Reference sequence walk: the per-step `run_sequence` kept as an oracle.

`run_sequence` below is the list-based walk that the run-length walk in
`qndsim.harness` replaced: one plain matvec per step, per-step and
per-sample Python lists and one generator per segment. Tests require the
package walk to reproduce it bit for bit. It takes its matrix exponentials
from `qndsim.atoms.expm`, so those tests compare walks, not exponentials.
"""
from __future__ import annotations

import numpy as np

from qndsim.atoms import (
    EnsembleState,
    RabiModel,
    broken_invariants,
    expm,
    f2_population,
    generator,
    state_vector,
    with_vector,
)
from qndsim.errors import RegimeError, StepError
from qndsim.harness import PulseSequence, Trace, _segment_model
from qndsim.heterodyne import (
    SMALL_PHASE_LIMIT,
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    demodulated_signal,
    sample_noisy_signal,
)


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
    trajectory = np.empty((len(dts) + 1, 5))
    trajectory[0] = v = state_vector(initial)
    for row, m in enumerate(which, 1):
        trajectory[row] = v = props[m] @ v
    bad = np.flatnonzero(broken_invariants(trajectory))
    if bad.size:
        try:
            with_vector(initial, trajectory[bad[0]])
        except StepError as exc:
            raise StepError(f"segment {stepped_in[bad[0] - 1]}: {exc}") from exc

    at = trajectory[taken]
    phi = atomic_phase(
        gate.tuning.sideband_detuning * gate.tuning.linewidth,
        np.maximum(f2_population(at[:, 4], at[:, 2], at[:, 3]), 0.0),
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
