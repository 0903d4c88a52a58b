"""Pulse-sequence engine: composes the ensemble and detection models into
simulated experiments, adds Monte Carlo detection noise, and fits traces.

A sequence is an ordered list of microwave-pulse and free-evolution
segments; probing is a global sampling clock (repetition rate, pulse
duration, probe tuning) that runs concurrently with every segment, the way
the experiments interleave short detection pulses with the microwave
drive. All phases are tracked in the frame of the microwave oscillator, so
a detuned frame keeps precessing during free evolution; that precession is
the interferometric phase.
"""
from __future__ import annotations

import math

import numpy as np

from .atoms import (
    EnsembleState,
    ProbeTuning,
    RabiModel,
    broken_invariants,
    expm,
    f2_population,
    generators,
    sideband_photon_rate,
    state_vector,
    with_vector,
)
from .constants import DEFAULTS, Record, replace
from .errors import DomainError, FitDiverged, RegimeError, StepError
from .heterodyne import (
    SMALL_BETA_LIMIT,
    SMALL_PHASE_LIMIT,
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    demodulated_signal,
    noise_sigma,
    sample_noisy_signal,
)

MAX_DURATION = 1.0            # s, the longest sequence
MAX_PROBE_SAMPLES = 10**6     # probe periods per sequence and per scan: 1 s at a 1 MHz clock
CLOCK_TOLERANCE = 1e-12       # s, below which two times on the probe clock coincide
EXPM_BLOCK = 4096             # matrices per expm call: bounds the temporaries of a large scan


class MicrowavePulse(Record):
    """Drive segment: Rabi frequency (rad/s), duration, detuning (Hz), phase."""

    rabi_frequency: float
    duration: float
    detuning: float = 0.0
    phase: float = 0.0


class FreeEvolution(Record):
    """Undriven segment; the frame detuning keeps accumulating phase."""

    duration: float
    detuning: float = 0.0


class ProbeGate(Record):
    """Probe sampling clock: pulse timing plus the optical tuning."""

    repetition_rate: float = DEFAULTS["repetition_rate"]
    pulse_duration: float = DEFAULTS["pulse_duration"]
    tuning: ProbeTuning = ProbeTuning()     # one shared default: a record is immutable

    def __post_init__(self) -> None:
        if self.duty_cycle > 1:
            raise DomainError("probe duty cycle exceeds 1")

    @property
    def duty_cycle(self) -> float:
        return self.repetition_rate * self.pulse_duration

    @property
    def period(self) -> float:
        return 1.0 / self.repetition_rate


def sideband_phase(gate: ProbeGate, probe: ModulatedProbe, f2_population,
                   cloud_rms: float):
    """Dispersive phase of the gate's probing sideband across a cloud whose
    F=2 population, a number or an array of samples, it detects."""
    return atomic_phase(gate.tuning.sideband_detuning * gate.tuning.linewidth,
                        f2_population, probe.beam_waist, cloud_rms,
                        linewidth=gate.tuning.linewidth)


class PulseSequence(Record):
    segments: tuple
    probe: ProbeGate

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not isinstance(self.probe, ProbeGate):
            raise DomainError("a sequence needs a probe gate")
        for seg in self.segments:
            if not isinstance(seg, (MicrowavePulse, FreeEvolution)):
                raise DomainError(f"unknown segment type {type(seg).__name__}")
        if self.total_duration > MAX_DURATION:
            raise DomainError(f"sequence runs {self.total_duration:.6f} s, "
                              f"over the maximum {MAX_DURATION:g} s")
        if (periods := self.total_duration * self.probe.repetition_rate) > MAX_PROBE_SAMPLES:
            raise DomainError(f"sequence spans {periods:.7g} probe periods, over the "
                              f"budget of {MAX_PROBE_SAMPLES} probe samples")

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)

    def segment_window(self, index: int) -> tuple[float, float]:
        """Start/end times of one segment within the sequence."""
        start = sum(seg.duration for seg in self.segments[:index])
        return start, start + self.segments[index].duration


class Trace(Record):
    """Sampled detector record and the ensemble state it ends in."""

    times: np.ndarray
    signal: np.ndarray
    final_state: EnsembleState | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "signal", np.asarray(self.signal, dtype=float))
        if self.times.shape != self.signal.shape:
            raise DomainError("time and signal arrays must have equal length")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise DomainError("time samples must be strictly increasing")


def _segment_drive(seg, template: RabiModel) -> tuple[RabiModel, float]:
    if isinstance(seg, MicrowavePulse):
        return replace(template, rabi_frequency=seg.rabi_frequency,
                       detuning=seg.detuning), seg.phase
    # free evolution: the shift-inhomogeneity dephasing term is normalized
    # by the drive and only defined while driving, so its bookkeeping input
    # is zeroed; light-shift precession still comes in through the tuning
    return replace(template, rabi_frequency=0.0, detuning=seg.detuning,
                   carrier_light_shift=0.0), 0.0


def run_sequence(seq: PulseSequence, initial: EnsembleState, probe: ModulatedProbe,
                 det: DetectorModel, seed: int = 0, template: RabiModel | None = None,
                 noiseless: bool = False) -> Trace:
    """Step the ensemble through the sequence, sampling at the probe clock.

    Each probe pulse converts the detected F=2 population (coherent upper
    level plus leaked atoms) into a dispersive phase, runs it through the
    demodulation chain and adds one shot of detection noise. Deterministic
    for a fixed seed. `template` supplies the damping bookkeeping (light
    shift, inhomogeneity, residual damping) reused by every segment. This
    is `run_scan`'s walk at the segments' own detunings, in a Trace.

    StepError and RegimeError are re-raised with the index of the segment
    of the first offending step or sample prepended.
    """
    times, signals, finals = _walk(seq, None, seed, initial, probe, det, template, noiseless)
    return Trace(times, signals[0], with_vector(initial, finals[0]))


def run_scan(seq: PulseSequence, detunings, initial: EnsembleState, probe: ModulatedProbe,
             det: DetectorModel, seed: int = 0, template: RabiModel | None = None,
             noiseless: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk one sequence at n detunings (Hz) into (times, signals, finals):
    the shared sample times, the (n, samples) signals and each trace's final
    `state_vector`; row i is bit for bit `run_sequence` of seq with every
    segment's detuning set to detunings[i], at seed + i. Sample k is labelled
    k / f_rep, the double nearest k/f_rep, unless the walk takes it off the
    clock, within CLOCK_TOLERANCE of the time it already reached; it keeps
    that time.

    One step schedule, one generator build and one expm per EXPM_BLOCK
    matrices serve every trace (DomainError for no detuning). A trace takes
    one matrix per segment drive and step length; lengths within 4 ulp of the
    end time are one length rounded at two boundaries and share it, so an
    echo takes 4. A run of count whole periods is filled by doubling in about
    log2(count) stacked np.matmul calls: within rtol 1e-12 of one matvec
    per step up to 10^4 periods, within count ulp of the largest state
    component up to 10^6.
    A period matrix is good to about an ulp per unit of |G dt|_1, so a run
    ends within count * eps * (1 + |G dt|_1) of its largest component of a
    60-digit walk of G: after 200 periods 5.2e-5 of it at a 1e12 kHz drive,
    8e-15 at 6.6 kHz. Invariants are checked and the detection chain run
    once over every sample; noise is drawn per trace. A failing scan is
    replayed one trace at a time to raise the first failing trace's error.
    """
    if not len(detunings):
        raise DomainError("a scan needs at least one detuning")
    try:
        return _walk(seq, detunings, seed, initial, probe, det, template, noiseless)
    except Exception as exc:   # re-raised, by the first failing trace if a replay finds it
        import traceback    # only a failing scan needs it
        failure = exc
        while exc is not None:    # the replay starts once the failed walk's arrays are freed
            traceback.clear_frames(exc.__traceback__)
            exc = exc.__context__
    for i, delta in enumerate(detunings if len(detunings) > 1 else ()):
        _walk(seq, [delta], seed + i, initial, probe, det, template, noiseless)
    raise failure


def _walk(seq, detunings, seed, initial, probe, det, template, noiseless):
    base = template if template is not None else RabiModel()
    gate, traces = seq.probe, 1 if detunings is None else len(detunings)
    eps, period, near = CLOCK_TOLERANCE, gate.period, 4 * math.ulp(seq.total_duration)
    # steps are runs (slot, count), one slot per (segment, dt); samples runs
    # (first row, count), sample k labelled k / f_rep unless off the clock
    slot_of, runs, off, seg_steps, seg_samples, taken = {}, [], [], [], [], {}
    t_now, n_steps, k, samples = 0.0, 0, 1, [(0, 1)]    # sample 0 is at t = 0

    def step(s: int, dt: float, count: int = 1) -> None:
        nonlocal n_steps
        # a dt within near of a length already taken (looked up in bins near
        # wide) is that length rounded at another boundary
        b = math.floor(dt / near)
        dt = next((x for x in map(taken.get, (b, b - 1, b + 1)) if x and abs(x - dt) <= near), dt)
        taken.setdefault(b, dt)
        runs.append((slot_of.setdefault((s, dt), len(slot_of)), count))
        n_steps += count

    for s, seg in enumerate(seq.segments):
        seg_steps.append(n_steps)
        seg_samples.append(k)
        seg_end = t_now + seg.duration
        # the last sample index with last*period <= seg_end + eps: the
        # rounded quotient is at most one off
        last = math.floor((seg_end + eps) / period)
        last += ((last + 1) * period <= seg_end + eps) - (last * period > seg_end + eps)
        while k <= last:
            t_next = k * period
            if t_next > t_now + eps:
                on_clock = t_now == (k - 1) * period
                # unless rounding could merge samples, every later sample
                # is then one whole period after the one before
                if on_clock and period > 4 * (eps + math.ulp(seg_end + eps)):
                    samples.append((n_steps + 1, last + 1 - k))
                    step(s, period, last + 1 - k)
                    t_now, k = last * period, last + 1
                    break
                step(s, period if on_clock else t_next - t_now)
                t_now = t_next
            else:
                off.append((k, t_now))
            samples.append((n_steps, 1))
            k += 1
        if seg_end > t_now + eps:
            step(s, seg_end - t_now)
            t_now = seg_end

    # one generator per distinct segment drive (with its own detuning when
    # detunings is None), built from its first segment, and one matrix per
    # distinct (drive, dt) and trace: slot j steps trace i with props[which[j] + i]
    first, matrix_of = {}, {}
    g = [first.setdefault((getattr(seg, "rabi_frequency", None), getattr(seg, "phase", 0.0),
                           seg.detuning if detunings is None else None), (len(first), seg))[0]
         for seg in seq.segments]
    which = [matrix_of.setdefault((g[s], dt), len(matrix_of)) * traces for s, dt in slot_of]
    gens = generators([_segment_drive(seg, base) for _, seg in first.values()],
                      gate.tuning, gate.duty_cycle, detunings).reshape(len(first), traces, 4, 4)
    pairs = np.array(list(matrix_of)).reshape(-1, 2)    # (generator, dt) per matrix
    props = (gens[pairs[:, 0].astype(np.intp)] * pairs[:, 1, None, None, None]).reshape(-1, 4, 4)
    for b in range(0, len(props), EXPM_BLOCK):
        props[b:b + EXPM_BLOCK] = expm(props[b:b + EXPM_BLOCK])
    trajectory = np.empty((n_steps + 1, traces, state_vector(initial).size))
    trajectory[0], done = state_vector(initial), 0
    for j, count in runs:    # row k of a run is P^k v0 per trace, filled by doubling
        rows, m = trajectory[done:done + count + 1].swapaxes(0, 1), 1
        power = props[which[j]:which[j] + traces]
        while m <= count:    # rows [m, m + n) are rows [0, n) times (P^m)^T
            power = power.swapaxes(1, 2) if m == 1 else power @ power
            n = min(m, count + 1 - m)
            np.matmul(rows[:, :n], power, out=rows[:, m:m + n])    # one gemm per trace
            m *= 2
        done += count
    bad = np.argwhere(broken_invariants(trajectory, initial.atom_number))  # (trace, step)
    if bad.size:
        i, row = bad[0]
        try:
            with_vector(initial, trajectory[row, i])
        except StepError as exc:
            seg = np.searchsorted(seg_steps[1:], row - 1, side="right")
            raise StepError(f"segment {seg}: {exc}") from exc

    times = np.arange(k) / gate.repetition_rate
    for i, t in off:
        times[i] = t
    at = trajectory[np.concatenate([np.arange(r, r + n) for r, n in samples])]
    # at the Bloch pole rounding may leave the population a few ulp below 0
    phi = sideband_phase(gate, probe, np.maximum(f2_population(at, initial.atom_number), 0.0),
                         initial.cloud_rms)
    try:
        volts = demodulated_signal(probe, PhaseShiftTriple(phi_plus=phi), det)
    except RegimeError as exc:
        sample = int(np.argmax(np.abs(phi) > SMALL_PHASE_LIMIT)) // traces
        seg = np.searchsorted(seg_samples[1:], sample, side="right")
        raise RegimeError(f"segment {seg}: {exc}") from exc
    if not noiseless:
        for i in range(traces):
            volts[:, i] = sample_noisy_signal(volts[:, i], det, probe,
                                              gate.pulse_duration, seed + i)
    return times, volts.T, trajectory[-1].copy()    # a copy frees the trajectory


class SineFit(Record):
    frequency: float      # Hz
    damping: float        # 1/s
    amplitude: float
    phase: float
    offset: float
    drift: float
    std_errors: dict
    residual_rms: float


def _sine_model(t, amp, damping, freq, phase, offset, drift):
    return amp * np.exp(-damping * t) * np.cos(2 * np.pi * freq * t + phase) \
        + offset + drift * t


def curve_fit(t, y, p0, maxfev: int = 20000, tol: float = 1.49012e-8):
    """`_sine_model` fit: Levenberg-Marquardt, MINPACK's scaled trust region and
    ftol/xtol tests (More, LNM 630, 1978), curve_fit's covariance s^2 (J^T J)^-1,
    s^2 = SSR/(n - p), inf where undetermined. RuntimeError after maxfev calls."""
    x, r, tiny = np.array(p0, dtype=float), _sine_model(t, *p0) - y, np.finfo(float).tiny
    cost, d, delta, ratio = r @ r, 0.0, math.inf, 1.0
    for _ in range(maxfev - 1):
        if ratio >= 1e-4:    # at a new point: the Jacobian over its column scales
            e, arg = np.exp(-x[1] * t), 2 * np.pi * x[2] * t + x[3]
            c, s = e * np.cos(arg), -x[0] * e * np.sin(arg)
            jac = np.array([c, -x[0] * t * c, 2 * np.pi * t * s, s, np.ones_like(t), t]).T
            d = np.maximum(d, np.sqrt((jac * jac).sum(axis=0)))
            d[d == 0] = 1.0    # MINPACK's scale for a column that was always 0
            u, sv, vt = np.linalg.svd(jac / d, full_matrices=False)
            g, sv2 = sv * (u.T @ r), sv * sv
        lam, q = 0.0, g / np.maximum(sv2, tiny)    # q = V^T d p
        while (qn := math.sqrt(q @ q)) > 1.1 * delta:    # Newton on 1/|q| = 1/delta
            lam += qn**2 / (q * q / np.maximum(sv2 + lam, tiny)).sum() * (qn - delta) / delta
            q = g / np.maximum(sv2 + lam, tiny)
        p = -(vt.T @ q) / d
        r1, jp = _sine_model(t, *(x + p)) - y, jac @ p
        actred, prered = cost - r1 @ r1, jp @ jp + 2 * lam * qn**2
        ratio = actred / prered if prered else 0.0
        done = abs(actred) <= tol * cost and prered <= tol * cost and ratio <= 2
        delta = (0.5 * min(delta, qn) if not ratio > 0.25
                 else 2 * qn if lam == 0 or ratio >= 0.75 else delta)
        x, r, cost = (x + p, r1, r1 @ r1) if ratio >= 1e-4 else (x, r, cost)
        if done or delta <= tol * math.sqrt((d * x) @ (d * x)):
            with np.errstate(divide="ignore", invalid="ignore"):
                w = vt.T / sv / d[:, None]
                cov = w @ w.T * (cost / (t.size - x.size))
            return x, np.where(np.isnan(cov), np.inf, cov)
    raise RuntimeError(f"no convergence in {maxfev} model evaluations")


def _median(x):    # np.median of finite x, bit for bit, without loading numpy.ma
    s = np.sort(x)
    return (s[(s.size - 1) // 2] + s[s.size // 2]) / 2


def fit_damped_sine(trace: Trace, window: float | None = None) -> SineFit:
    """Least-squares fit of a damped cosine with linear offset drift.

    Start: frequency from the spectral peak of the detrended window, damping
    from a log-envelope fit of chunk maxima, the rest by linear least squares.
    Raises FitDiverged for degenerate input, a non-converging fit, or a fit
    that is none: a frequency whose standard error exceeds it, or less than
    one of its periods in the window.
    """
    t = trace.times
    y = trace.signal
    if window is not None:
        keep = t <= window
        t, y = t[keep], y[keep]
    if t.size < 10:
        raise FitDiverged(f"only {t.size} samples in window, need at least 10")
    if np.std(y) <= 1e-12 * max(float(np.max(np.abs(y))), 1e-300):
        raise FitDiverged("flat trace: oscillation amplitude is degenerate")
    t0 = t - t[0]
    drift0, offset0 = np.polyfit(t0, y, 1)
    resid = y - (offset0 + drift0 * t0)
    dt = _median(np.diff(t0))
    spectrum = np.fft.rfft(resid)
    freqs = np.fft.rfftfreq(t0.size, dt)
    k = 1 + int(np.argmax(np.abs(spectrum[1:])))
    f0 = freqs[k]
    # damping from chunk-maxima envelope regression
    n_chunks = max(4, min(8, t0.size // 8))
    chunks = np.array_split(np.arange(t0.size), n_chunks)
    env_t = np.array([t0[c].mean() for c in chunks])
    env_a = np.array([np.abs(resid[c]).max() for c in chunks])
    if np.all(env_a > 0):
        beta0 = max(0.0, -np.polyfit(env_t, np.log(env_a), 1)[0])
    else:
        beta0 = 0.0
    decay, arg = np.exp(-beta0 * t0), 2 * np.pi * f0 * t0
    basis = np.array([decay * np.cos(arg), decay * np.sin(arg), np.ones_like(t0), t0]).T
    (a, b, offset0, drift0), *_ = np.linalg.lstsq(basis, y, rcond=None)
    p0 = [math.hypot(a, b), beta0, f0, math.atan2(-b, a), offset0, drift0]
    try:
        popt, pcov = curve_fit(t0, y, p0)
    except RuntimeError as exc:
        rms = float(np.sqrt(np.mean((_sine_model(t0, *p0) - y) ** 2)))
        raise FitDiverged(
            f"damped-sine fit did not converge (seed residual rms {rms:.3e})"
        ) from exc
    if popt[0] < 0:     # canonical sign: positive amplitude
        popt[0] = -popt[0]
        popt[3] += math.pi
    popt[3] = math.atan2(math.sin(popt[3]), math.cos(popt[3]))
    if popt[2] < 0:
        popt[2] = -popt[2]
        popt[3] = -popt[3]
    errs = np.sqrt(np.abs(np.diag(pcov)))
    if errs[2] > popt[2]:
        raise FitDiverged(f"frequency {popt[2]:.3g} Hz has a standard error of {errs[2]:.3g} Hz")
    if popt[2] * t0[-1] < 1:
        raise FitDiverged(f"the {t0[-1]:.3g} s window holds {popt[2] * t0[-1]:.3g} periods "
                          f"of the fitted {popt[2]:.3g} Hz, under one")
    resid_rms = float(np.sqrt(np.mean((_sine_model(t0, *popt) - y) ** 2)))
    names = ("amplitude", "damping", "frequency", "phase", "offset", "drift")
    # offset refers to t=0 of the fitted window
    return SineFit(**dict(zip(names, map(float, popt))),
                   std_errors=dict(zip(names, map(float, errs))), residual_rms=resid_rms)


def destructivity_at_unit_snr(
    gate: ProbeGate,
    ensemble: EnsembleState,
    probe: ModulatedProbe,
    det: DetectorModel,
) -> float:
    """Scattering events per atom when one probe pulse reaches SNR = 1.

    Trace SNR here is the ideal demodulated signal of a single pulse over
    the rms noise in the pulse-matched bandwidth; this single-pulse
    definition is a modeling choice. Only the sideband power varies: the
    noise depends on the carrier alone and the signal grows with the
    modulation depth sqrt(P_s/P_c), so SNR = K*sqrt(P_s) and one evaluation
    gives the unit-SNR power. The returned destructivity counts sideband
    photon scattering only, over one pulse duration.

    Raises DomainError when unit SNR needs a sideband power above
    SMALL_BETA_LIMIT**2 P_c (the two-sideband bound on the modulation depth
    sqrt(P_s/P_c)) or no power reaches it (zero signal).
    """
    if ensemble.f2_population <= 0:
        raise DomainError("need detectable F=2 population")
    phi = sideband_phase(gate, probe, ensemble.f2_population, ensemble.cloud_rms)
    base_ps = probe.sideband_power if probe.sideband_power > 0 else DEFAULTS["sideband_power"]
    top = SMALL_BETA_LIMIT**2 * probe.carrier_power
    ref = min(base_ps, top)
    scaled = replace(probe, sideband_power=ref,
                     modulation_depth=math.sqrt(ref / probe.carrier_power))
    ideal = abs(demodulated_signal(scaled, PhaseShiftTriple(phi_plus=phi), det))
    sigma = noise_sigma(det, scaled, gate.pulse_duration)
    ps = ref * (sigma / ideal) ** 2 if ideal else math.inf
    if ps > top:
        raise DomainError("unit SNR unreachable within the modulation regime")
    scaled_tuning = replace(
        gate.tuning,
        sideband_intensity=gate.tuning.sideband_intensity
        * ps / base_ps if probe.sideband_power > 0 else 2 * ps / (
            math.pi * probe.beam_waist**2),
    )
    return sideband_photon_rate(scaled_tuning) * gate.pulse_duration


def build_spin_echo(
    pi_duration: float = DEFAULTS["pi_duration"],
    total_duration: float = DEFAULTS["total_duration"],
    detuning: float = 0.0,
    gap: float | None = None,
    *,
    probe: ProbeGate,
) -> PulseSequence:
    """pi/2 - gap - pi - gap - pi/2 sequence about one axis, driven at the
    Rabi frequency pi/pi_duration that makes the middle pulse a pi pulse.

    By default the two symmetric free-evolution gaps are sized to fill
    total_duration (by default the experiments' window);
    pass gap explicitly (0 suppresses free evolution) to override.

    Raises DomainError when no probe clock tick k*period falls in the pi
    pulse, where mid_pulse_amplitude reads the echo (to within CLOCK_TOLERANCE).
    """
    if pi_duration <= 0:
        raise DomainError("pi duration must be positive")
    omega = math.pi / pi_duration
    if gap is None:
        gap = (total_duration - 2 * pi_duration) / 2
    if gap < 0:
        raise DomainError("gaps would be negative; enlarge total_duration")
    half = MicrowavePulse(omega, pi_duration / 2, detuning=detuning)
    wait = (FreeEvolution(gap, detuning=detuning),) if gap > 0 else ()
    segments = (half, *wait, replace(half, duration=pi_duration), *wait, half)
    seq = PulseSequence(segments, probe=probe)
    start, end = seq.segment_window(len(segments) // 2)
    first = math.ceil((start - CLOCK_TOLERANCE) / probe.period)   # the rounded quotient: +-1
    if not any(start - CLOCK_TOLERANCE <= k * probe.period <= end + CLOCK_TOLERANCE
               for k in range(first - 1, first + 2)):
        raise DomainError(f"probe period {probe.period:.3g} s leaves no sample inside "
                          f"the pi pulse ({start:.3g} s to {end:.3g} s)")
    return seq


def mid_pulse_amplitude(trace: Trace, seq: PulseSequence) -> float:
    """Half peak-to-peak signal during the middle microwave pulse.

    Locates the central of the three microwave segments (the echo's pi
    pulse) and measures the sampled signal swing inside its window.
    """
    return float(mid_pulse_amplitudes(trace.times, trace.signal, seq))


def mid_pulse_amplitudes(times: np.ndarray, signals: np.ndarray,
                         seq: PulseSequence) -> np.ndarray:
    """`mid_pulse_amplitude` of each row of signals (..., sample) at times."""
    pulses = [i for i, s in enumerate(seq.segments)
              if isinstance(s, MicrowavePulse)]
    if len(pulses) != 3:
        raise DomainError("sequence does not look like a three-pulse echo")
    start, end = seq.segment_window(pulses[1])
    inside = (times >= start - CLOCK_TOLERANCE) & (times <= end + CLOCK_TOLERANCE)
    if not np.any(inside):
        raise DomainError("no samples inside the central pulse")
    window = signals[..., inside]
    return (window.max(axis=-1) - window.min(axis=-1)) / 2
