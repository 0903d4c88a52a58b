"""Reference spin engine: the substep stepper and per-sample sequence loop.

`evolve` and `_rotate` are the axis-angle substep integrator that the
exact propagator in `qndsim.atoms` replaced, kept verbatim but for the
duty cycle, which `evolve` takes as an argument like `generators`, and
the state it returns, which carries the coherent population; the
sequence loop is the per-sample `run_sequence` that called it. Tests
compare the package engine against these where no probe scattering moves
atoms out of the coherent manifold; there the stepper's over-polarization
clamp never acts and both engines model the same dynamics.
"""
from __future__ import annotations

import math
from qndsim.constants import replace

import numpy as np

from qndsim.atoms import (
    EnsembleState,
    ProbeTuning,
    RabiModel,
    carrier_pump_rate,
    damping_rate,
    light_shift,
    scattering_rate,
    sideband_photon_rate,
)
from qndsim.constants import H
from qndsim.errors import DomainError, RegimeError, StepError
from qndsim.harness import MicrowavePulse, PulseSequence, Trace
from qndsim.heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    demodulated_signal,
    sample_noisy_signal,
)

# largest rotation angle or rate*dt product of one substep
MAX_SUBSTEP_ANGLE = 0.05


def _rotate(jx, jy, jz, ax, az, angle):
    # exact rotation about the unit axis (ax, 0, az) by angle (Rodrigues)
    c = math.cos(angle)
    s = math.sin(angle)
    dot = ax * jx + az * jz
    # cross product (ax,0,az) x (jx,jy,jz)
    cx = -az * jy
    cy = az * jx - ax * jz
    cz = ax * jy
    return (
        jx * c + cx * s + ax * dot * (1 - c),
        jy * c + cy * s,
        jz * c + cz * s + az * dot * (1 - c),
    )


def _segment_model(seg, template: RabiModel) -> RabiModel:
    if isinstance(seg, MicrowavePulse):
        return replace(template, rabi_frequency=seg.rabi_frequency,
                       detuning=seg.detuning)
    # free evolution drops the drive and the shift-inhomogeneity term
    return replace(template, rabi_frequency=0.0, detuning=seg.detuning,
                   carrier_light_shift=0.0)


def evolve(
    state: EnsembleState,
    drive: RabiModel,
    tuning: ProbeTuning,
    duty_cycle: float,
    dt: float,
    leak_fraction: float = 0.5,
    drive_phase: float = 0.0,
) -> EnsembleState:
    """Advance the ensemble by dt under microwave drive and pulsed probing
    at duty_cycle.

    Per substep, in order: exact axis-angle rotation of the Bloch vector
    about (Omega_R*cos(phase), Omega_R*sin(phase), 2*pi*detuning_total),
    where detuning_total adds the duty-averaged differential light shift to
    the microwave detuning; exponential damping of the components
    perpendicular to the rotation axis at the rate from damping_rate (the
    damping rate is defined as the fitted envelope rate of the driven
    oscillation, and the inhomogeneous-rate dephasing it models spares the
    axis-parallel component; with no rotation at all the z coherence
    damps); population transfer. The transfer branches: upper-level
    atoms scatter sideband photons and land in |F=2, m!=0> with probability
    leak_fraction, lower-level atoms are pumped to F=2 by the carrier (they
    join the incoherent leaked pool as well). Substepping keeps every
    per-step angle and rate-time product below 0.05.

    Probe rates are duty-cycle averaged over the whole step; sub-period
    pulse gating is not resolved (callers sampling at the probe period see
    the identical average).

    Negative dt runs the exact algebraic inverse of the positive-dt step
    and exists for reversibility verification.

    Raises StepError if the step leaves the state violating its invariants.
    """
    if dt == 0:
        return state
    shift = light_shift(tuning, duty_cycle)
    omega_z = 2 * math.pi * (drive.detuning + shift / H)
    omega_x = drive.rabi_frequency * math.cos(drive_phase)
    omega_y = drive.rabi_frequency * math.sin(drive_phase)
    rot = math.sqrt(omega_x**2 + omega_y**2 + omega_z**2)
    spont = scattering_rate(tuning, expansion_rate=0.0) * duty_cycle
    beta = damping_rate(drive, spont)
    if not 0 <= leak_fraction <= 1:
        raise DomainError("leak fraction must lie in [0, 1]")
    leak = sideband_photon_rate(tuning) * duty_cycle * leak_fraction
    pump = carrier_pump_rate(tuning) * duty_cycle

    fastest = max(rot, beta, leak, pump)
    n_sub = max(1, math.ceil(fastest * abs(dt) / MAX_SUBSTEP_ANGLE))
    tau = dt / n_sub

    jx, jy, jz = state.jx, state.jy, state.jz
    coherent = state.coherent_number
    if rot > 0:
        ax, ay, az = omega_x / rot, omega_y / rot, omega_z / rot
    damp = math.exp(-beta * tau)
    for _ in range(n_sub):
        if rot > 0:
            if ay == 0.0:
                jx, jy, jz = _rotate(jx, jy, jz, ax, az, rot * tau)
            else:
                # general axis: rotate frame so the drive lies along x
                cph = math.cos(drive_phase)
                sph = math.sin(drive_phase)
                rx = cph * jx + sph * jy
                ry = -sph * jx + cph * jy
                axp = math.hypot(ax, ay)
                rx, ry, jz = _rotate(rx, ry, jz, axp, az, rot * tau)
                jx = cph * rx - sph * ry
                jy = sph * rx + cph * ry
        if rot > 0:
            dot = ax * jx + ay * jy + az * jz
            jx = dot * ax + damp * (jx - dot * ax)
            jy = dot * ay + damp * (jy - dot * ay)
            jz = dot * az + damp * (jz - dot * az)
        else:
            jx *= damp
            jy *= damp
        if leak != 0.0:
            upper = coherent / 2 + jz
            d_leak = upper * -math.expm1(-leak * tau)
            jz -= d_leak / 2
            coherent -= d_leak
        if pump != 0.0:
            lower = coherent / 2 - jz
            d_pump = lower * -math.expm1(-pump * tau)
            jz += d_pump / 2
            coherent -= d_pump
        # scattering cannot leave the shrunken manifold over-polarized
        limit = max(coherent, 0.0) / 2
        trans = math.hypot(jx, jy)
        allowed = limit**2 - jz**2
        if trans**2 > allowed:
            factor = math.sqrt(max(allowed, 0.0)) / trans if trans > 0 else 0.0
            jx *= factor
            jy *= factor
    try:
        return replace(state, jx=jx, jy=jy, jz=jz, coherent_number=coherent)
    except DomainError as exc:
        raise StepError(f"invariants violated after step: {exc}") from exc


def run_sequence(
    seq: PulseSequence,
    initial: EnsembleState,
    probe: ModulatedProbe,
    det: DetectorModel,
    seed: int = 0,
    template: RabiModel | None = None,
    leak_fraction: float = 0.5,
    noiseless: bool = False,
) -> Trace:
    """Step the ensemble through the sequence, sampling at the probe clock.

    Each probe pulse converts the detected F=2 population (coherent upper
    level plus leaked atoms) into a dispersive phase, runs it through the
    demodulation chain and adds one shot of detection noise. Deterministic
    for a fixed seed. `template` supplies the damping bookkeeping
    (light shift, inhomogeneity, residual damping) reused by every
    segment.

    StepError and RegimeError from inside a segment are re-raised with the
    segment index prepended.
    """
    rng = np.random.default_rng(seed)
    base = template if template is not None else RabiModel()
    gate = seq.probe
    state = initial
    times: list[float] = []
    volts: list[float] = []

    def measure(t: float) -> None:
        phi = atomic_phase(
            gate.tuning.sideband_detuning * gate.tuning.linewidth,
            state.f2_population,
            probe.beam_waist,
            state.cloud_rms,
            linewidth=gate.tuning.linewidth,
        )
        ideal = demodulated_signal(probe, PhaseShiftTriple(phi_plus=phi), det)
        value = ideal if noiseless else sample_noisy_signal(
            ideal, det, probe, gate.pulse_duration, rng
        )
        times.append(t)
        volts.append(value)

    t_now = 0.0
    eps = 1e-12
    measure(0.0)
    sample_index = 1
    for idx, seg in enumerate(seq.segments):
        model = _segment_model(seg, base)
        seg_start = t_now
        seg_end = seg_start + seg.duration
        try:
            while (t_next := sample_index * gate.period) <= seg_end + eps:
                if t_next > t_now + eps:
                    state = evolve(
                        state, model, gate.tuning, gate.duty_cycle, t_next - t_now,
                        leak_fraction=leak_fraction,
                        drive_phase=getattr(seg, "phase", 0.0),
                    )
                    t_now = t_next
                measure(t_now)
                sample_index += 1
            if seg_end > t_now + eps:
                state = evolve(
                    state, model, gate.tuning, gate.duty_cycle, seg_end - t_now,
                    leak_fraction=leak_fraction,
                    drive_phase=getattr(seg, "phase", 0.0),
                )
                t_now = seg_end
        except (StepError, RegimeError) as exc:
            raise type(exc)(f"segment {idx}: {exc}") from exc

    return Trace(np.array(times), np.array(volts), state)
