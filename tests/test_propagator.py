"""Exact 4x4 propagator: oracle comparison against the substep stepper
without probe scattering, against the Lindblad equation of the 2x2 density
matrix with level losses, invariant properties of one exact step, the
stacked generator build against the per-drive builder, and the batched
detection chain."""
import math
import warnings
from qndsim.constants import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qndsim
import qndsim.cli as cli
import qndsim.harness as harness
import stepper_reference as reference
import walk_reference
from qndsim.atoms import (
    LEAK_FRACTION,
    EnsembleState,
    ProbeTuning,
    RabiModel,
    carrier_pump_rate,
    damping_rate,
    expm,
    generators,
    light_shift,
    scattering_rate,
    sideband_photon_rate,
    state_vector,
    with_vector,
)
from qndsim.constants import H
from qndsim.errors import DomainError
from qndsim.heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    demodulated_signal,
    noise_sigma,
    sample_noisy_signal,
)

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
DUTY = 0.125    # 1.25 us probe pulses at 100 kHz


def step(state, drive, tuning, dt, drive_phase=0.0):
    """One exact step of the spin engine, as the sequence walk takes it."""
    gen = generators([(drive, drive_phase)], tuning, DUTY)[0]
    return with_vector(state, expm(gen * dt) @ state_vector(state))


# ------------------------------------------------------------------ oracle


def captured_runs(monkeypatch, tmp_path, engine, config, overrides=()):
    """Every run_sequence call of one CLI run, made through `engine`; a
    run_scan call is made as one run_sequence call per detuning, of the
    sequence with every segment at that detuning. The seams are harness's
    names, which `cli` imports where it calls them."""
    calls, scan, inside = [], harness.run_scan, []

    def capture(seq, initial, probe, det, **kwargs):
        inside.append(True)
        try:
            trace = engine(seq, initial, probe, det, **kwargs)
        finally:
            inside.pop()
        calls.append((seq, initial, probe, det, kwargs, trace))
        return trace

    def capture_scan(*args, **kwargs):
        if inside:    # a scan inside a captured call is that call's own walk
            return scan(*args, **kwargs)
        seq, detunings, initial, probe, det = args
        seed = kwargs.pop("seed", 0)
        return walk_reference.as_scan([capture(walk_reference.detuned(seq, d), initial, probe,
                                               det, seed=seed + i, **kwargs)
                                       for i, d in enumerate(detunings)])

    args = ["run", str(config), "--out", str(tmp_path / engine.__module__)]
    for item in overrides:
        args += ["--set", item]
    with monkeypatch.context() as patch, warnings.catch_warnings():
        patch.setattr(harness, "run_sequence", capture)
        patch.setattr(harness, "run_scan", capture_scan)
        warnings.simplefilter("ignore")
        assert cli.main(args) == 0
    return calls


def detected_atoms(call):
    """Per-sample F=2 population read back from a trace's ideal signal."""
    seq, initial, probe, det, kwargs, trace = call
    gate = seq.probe
    ideal = trace.signal
    if not kwargs.get("noiseless"):
        sigma = noise_sigma(det, probe, gate.pulse_duration)
        ideal = ideal - np.random.default_rng(kwargs["seed"]).normal(
            0.0, sigma, ideal.size)
    per_atom = atomic_phase(
        gate.tuning.sideband_detuning * gate.tuning.linewidth, 1.0,
        probe.beam_waist, initial.cloud_rms, linewidth=gate.tuning.linewidth)
    volts_per_sine = demodulated_signal(
        probe, PhaseShiftTriple(phi_plus=0.1), det) / math.sin(0.1)
    return np.arcsin(ideal / volts_per_sine) / per_atom


def oracle_deviation(monkeypatch, tmp_path, config, overrides=()):
    """Largest per-sample and final-state difference from the stepper, in N."""
    new = captured_runs(monkeypatch, tmp_path, harness.run_sequence,
                        config, overrides)
    old = captured_runs(monkeypatch, tmp_path, reference.run_sequence,
                        config, overrides)
    assert len(new) == len(old) > 0
    worst = 0.0
    for a, b in zip(new, old):
        assert np.array_equal(a[5].times, b[5].times)
        n_at = a[1].atom_number
        worst = max(worst, np.max(np.abs(detected_atoms(a) - detected_atoms(b))) / n_at)
        for name in ("jx", "jy", "jz", "coherent_number"):
            diff = getattr(a[5].final_state, name) - getattr(b[5].final_state, name)
            worst = max(worst, abs(diff) / n_at)
    return worst


@pytest.mark.parametrize("overrides", [(), ("options.noiseless=true",)],
                         ids=["seeded", "noiseless"])
def test_rabi_matches_stepper(monkeypatch, tmp_path, overrides):
    # without back-action no atom leaves the coherent manifold, so both
    # engines model the same dynamics; the gap is the stepper's splitting
    # error: it shrinks when the stepper's substeps do
    assert oracle_deviation(monkeypatch, tmp_path, CONFIG_DIR / "rabi.json",
                            ("probe_gate.backaction=false",) + overrides) < 1e-6


@pytest.mark.parametrize("overrides", [(), ("options.noiseless=false",)],
                         ids=["noiseless", "seeded"])
def test_spin_echo_matches_stepper(monkeypatch, tmp_path, overrides):
    assert oracle_deviation(monkeypatch, tmp_path,
                            CONFIG_DIR / "spin_echo.json", overrides) < 1e-6


# ------------------------------------------------ density-matrix oracle

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@pytest.mark.parametrize("rabi_frequency", [0.0, 2 * math.pi * 5e4], ids=["free", "driven"])
def test_generator_is_the_lindblad_equation_with_level_losses(rabi_frequency):
    # rho over the coherent atoms, upper level first: H = w.sigma/2,
    # dephasing about the rotation axis at beta - (leak + pump)/2 (sigma_z
    # without drive), and the upper and lower levels lost at leak and pump
    from scipy.integrate import solve_ivp
    drive = RabiModel(rabi_frequency=rabi_frequency, detuning=1500.0,
                      carrier_light_shift=0.0)
    tuning = ProbeTuning.from_powers(sideband_power=2e-6, sideband_detuning=0.5,
                                     waist=245e-6)
    leak = sideband_photon_rate(tuning) * DUTY * LEAK_FRACTION
    pump = carrier_pump_rate(tuning) * DUTY
    beta = damping_rate(drive, scattering_rate(tuning, expansion_rate=0.0) * DUTY)
    w = np.array([rabi_frequency, 0.0,
                  2 * math.pi * (drive.detuning + light_shift(tuning, DUTY) / H)])
    hamiltonian = np.tensordot(w, PAULI, 1) / 2
    axis = np.tensordot(w / np.linalg.norm(w), PAULI, 1)
    losses = np.diag([leak, pump])

    def rhs(_, y):
        rho = y[:4].reshape(2, 2)
        d_rho = (-1j * (hamiltonian @ rho - rho @ hamiltonian)
                 + (beta - (leak + pump) / 2) / 2 * (axis @ rho @ axis - rho)
                 - (losses @ rho + rho @ losses) / 2)
        return np.append(d_rho.ravel(), np.trace(losses @ rho))

    state = EnsembleState(1e6, jx=2e5, jy=-1.5e5, jz=1e5, coherent_number=9e5)
    rho = state.coherent_number / 2 * np.eye(2) + np.tensordot(
        [state.jx, state.jy, state.jz], PAULI, 1)
    dt = 4e-6
    y = solve_ivp(rhs, (0.0, dt), np.append(rho.ravel(), state.n_leak),
                  method="DOP853", rtol=1e-12, atol=1e-6).y[:, -1]
    spin = np.einsum("ij,kji->k", y[:4].reshape(2, 2), PAULI).real / 2
    after = step(state, drive, tuning, dt)
    assert leak * dt > 0.5 and pump > 0
    np.testing.assert_allclose([after.jx, after.jy, after.jz, after.n_leak],
                               [*spin, y[4].real], rtol=0, atol=1e-11 * state.atom_number)


# ------------------------------------------------------- one-step properties

drives = st.builds(
    RabiModel,
    rabi_frequency=st.floats(0.0, 2 * math.pi * 2e4),
    detuning=st.floats(-5e3, 5e3),
    carrier_light_shift=st.floats(0.0, H * 3e3),
    inhomogeneity=st.floats(0.0, 0.3),
    residual_damping=st.floats(0.0, 500.0),
).filter(lambda d: d.carrier_light_shift == 0 or d.rabi_frequency > 1.0)
tunings = st.builds(
    ProbeTuning.from_powers,
    carrier_power=st.floats(0.0, 200e-6),
    sideband_power=st.floats(0.0, 2e-6),
    waist=st.floats(200e-6, 1e-3),
    sideband_detuning=st.floats(0.5, 10.0),
    modulation_frequency=st.floats(2.4e9, 3.0e9),
)


@st.composite
def states(draw):
    n_at = draw(st.floats(1.0, 1e7))
    coherent = draw(st.floats(0.5, 1.0)) * n_at
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(-math.pi, math.pi))
    length = draw(st.floats(0.0, 1.0)) * coherent / 2
    return EnsembleState(
        n_at, jx=length * math.sin(theta) * math.cos(phi),
        jy=length * math.sin(theta) * math.sin(phi),
        jz=length * math.cos(theta), coherent_number=coherent)


@PROPERTY
@given(states(), drives, tunings, st.floats(-math.pi, math.pi), st.floats(1e-7, 1e-3))
def test_evolve_keeps_invariants(state, drive, tuning, phase, dt):
    after = step(state, drive, tuning, dt, phase)
    n_at = state.atom_number
    assert after.atom_number == n_at
    norm = math.hypot(after.jx, after.jy, after.jz)
    assert norm <= after.coherent_number / 2 * (1 + 1e-9) + 1e-12
    assert after.coherent_number / 2 + after.jz >= -1e-9 * n_at
    assert after.coherent_number / 2 - after.jz >= -1e-9 * n_at
    assert after.coherent_number <= state.coherent_number * (1 + 1e-12)


DARK = ProbeTuning(sideband_intensity=0.0, carrier_intensity=0.0)


@PROPERTY
@given(states(), drives, st.floats(-math.pi, math.pi), st.floats(1e-7, 1e-3),
       st.floats(1e-7, 1e-3))
def test_evolve_is_a_group_without_dissipation(state, drive, phase, a, b):
    drive = RabiModel(rabi_frequency=drive.rabi_frequency, detuning=drive.detuning,
                      carrier_light_shift=0.0, residual_damping=0.0)
    tol = 1e-9 * state.atom_number
    there = step(state, drive, DARK, a, drive_phase=phase)
    back = step(there, drive, DARK, -a, drive_phase=phase)
    split = step(step(state, drive, DARK, a, drive_phase=phase), drive, DARK, b,
                   drive_phase=phase)
    joint = step(state, drive, DARK, a + b, drive_phase=phase)
    for name in ("jx", "jy", "jz", "coherent_number"):
        assert abs(getattr(back, name) - getattr(state, name)) <= tol
        assert abs(getattr(split, name) - getattr(joint, name)) <= tol


# ------------------------------------------------- stacked generator build

signed = st.sampled_from([0.0, -0.0])
segment_drives = st.tuples(
    st.builds(
        RabiModel,
        rabi_frequency=st.one_of(signed, st.floats(0.0, 2 * math.pi * 2e4)),
        detuning=st.one_of(signed, st.floats(-1e5, 1e5)),
        carrier_light_shift=st.one_of(signed, st.floats(0.0, H * 3e3)),
        inhomogeneity=st.floats(0.0, 0.3),
        residual_damping=st.floats(0.0, 500.0),
    ),
    st.one_of(signed, st.sampled_from([math.pi / 2, math.pi]), st.floats(-math.pi, math.pi)),
)


def first_outcome(build):
    """The built generators, or the type and message of the error raised."""
    try:
        return [gen.tobytes() for gen in build()]
    except DomainError as exc:
        return type(exc), str(exc)


@PROPERTY
@given(st.lists(segment_drives, max_size=6), tunings, st.booleans(),
       st.one_of(st.just(DUTY), st.floats(0.0, 1.0)),
       st.one_of(st.none(), st.tuples(*[st.floats(0.0, 1.0)] * 3)))
def test_stacked_generators_are_the_per_drive_builder_bitwise(drives, tuning, backaction,
                                                              duty, branching):
    # an undriven pulse with a light shift leaves the shift damping
    # undefined, and a small sideband branching makes the damping rest
    # negative: both builders raise the first such drive's error
    if branching is not None:
        tuning = replace(tuning, branching=branching)
    if not backaction:
        tuning = replace(tuning, sideband_intensity=0.0, carrier_intensity=0.0)
    stacked = first_outcome(lambda: generators(drives, tuning, duty))
    assert stacked == first_outcome(lambda: [
        walk_reference.generator(drive, tuning, duty, phase) for drive, phase in drives])
    if isinstance(stacked, list):
        assert generators(drives, tuning, duty).shape == (len(drives), 4, 4)


# ------------------------------------------------------ rates and detection

def test_rates_that_are_not_finite_raise_domain_error():
    # 2*hbar^2*Omega_R underflows to 0 long before Omega_R does
    tiny = RabiModel(rabi_frequency=2 * math.pi * 1e-305)
    with pytest.raises(DomainError, match="Rabi frequency"):
        damping_rate(tiny, 0.0)
    with pytest.raises(DomainError, match="not finite"):
        damping_rate(RabiModel(inhomogeneity=1e308), 0.0)
    with pytest.raises(DomainError, match="not finite"):
        generators([(RabiModel(rabi_frequency=1e300, detuning=1e308), 0.0)], DARK, DUTY)


def test_huge_rotation_sets_no_step_count():
    # the stepper needed ~1e12 substeps for this probe period
    drive = RabiModel(rabi_frequency=2 * math.pi * 1e15)
    after = step(EnsembleState.all_lower(1e7), drive, ProbeTuning(), 1e-5)
    norm = math.hypot(after.jx, after.jy, after.jz)
    assert norm <= after.coherent_number / 2 * (1 + 1e-9) + 1e-12


def test_detection_chain_is_elementwise():
    probe, det = ModulatedProbe(), DetectorModel()
    atoms_at = np.array([0.0, 1e5, 5e5, 2e6])
    phi = atomic_phase(4.81 * 6e6, atoms_at, 245e-6, 1e-4)
    assert phi.tolist() == [atomic_phase(4.81 * 6e6, n, 245e-6, 1e-4)
                            for n in atoms_at.tolist()]
    volts = demodulated_signal(probe, PhaseShiftTriple(phi_plus=phi), det,
                               path_error=1e-6)
    assert volts.tolist() == [
        demodulated_signal(probe, PhaseShiftTriple(phi_plus=p), det, path_error=1e-6)
        for p in phi.tolist()]
    noisy = sample_noisy_signal(volts, det, probe, 1e-5, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    assert noisy.tolist() == [sample_noisy_signal(v, det, probe, 1e-5, rng)
                              for v in volts.tolist()]
    with pytest.raises(DomainError):
        atomic_phase(1e6, np.array([1.0, -1.0]), 245e-6, 0.0)
    with pytest.raises(DomainError):
        PhaseShiftTriple(phi_plus=np.array([0.0, np.nan]))
