import math
from qndsim.constants import replace

import numpy as np
import pytest

from qndsim.atoms import (
    EnsembleState,
    ProbeTuning,
    RabiModel,
    broken_invariants,
    carrier_pump_rate,
    cavity_enhancement,
    damping_rate,
    expm,
    generators,
    light_shift,
    rabi_frequency_pull,
    scattering_rate,
    sideband_photon_rate,
    squeezing_estimate,
    state_vector,
    with_vector,
)
from qndsim.constants import H
from qndsim.errors import DomainError, StepError

# Hand-evaluated before implementation, term by term:
#   sideband 1340.8605647807333; carrier terms 0 / 237.8534244062839 /
#   231.12964992296426; background 120. Probe: 120 uW carrier, 76 nW
#   sideband, 245 um waist, modulation 2.808 GHz, delta = 4.81 linewidths.
SCATTERING_GOLDEN = 1929.8436391099815
CARRIER_SUM_GOLDEN = 468.9830743292482
# Same model at the Rabi-experiment probe (70 uW / 90 nW / 800 um waist,
# carrier 2.5 GHz below, delta = 7.9 linewidths), duty cycle 0.125.
LIGHT_SHIFT_GOLDEN = 1.3098840934459077e-30   # J; 1976.86 Hz * h
RABI_PULL_GOLDEN = 221.04815251521188         # Hz
BETA_SHIFT_GOLDEN = 308.44727871608876        # 1/s
# 1.25 us probe pulses at 100 kHz
DUTY = 0.125


def _zero_tuning(**kw):
    return ProbeTuning(sideband_intensity=0.0, carrier_intensity=0.0, **kw)


def step(state, drive, tuning, dt, drive_phase=0.0):
    """One exact step of the spin engine, as the sequence walk takes it."""
    gen = generators([(drive, drive_phase)], tuning, DUTY)[0]
    return with_vector(state, expm(gen * dt) @ state_vector(state))


def _clean_drive(**kw):
    # no shift, no residual damping: coherent rotation only
    defaults = dict(carrier_light_shift=0.0, residual_damping=0.0)
    defaults.update(kw)
    return RabiModel(**defaults)


def test_scattering_rate_golden():
    assert scattering_rate(ProbeTuning()) == pytest.approx(
        SCATTERING_GOLDEN, rel=1e-9, abs=0
    )
    assert carrier_pump_rate(ProbeTuning()) == pytest.approx(
        CARRIER_SUM_GOLDEN, rel=1e-12, abs=0
    )


def test_scattering_rate_zero_intensity_is_background_exactly():
    assert scattering_rate(_zero_tuning()) == 120.0
    assert scattering_rate(_zero_tuning(), expansion_rate=0.0) == 0.0


def test_scattering_rate_far_detuned_sideband():
    near = ProbeTuning()
    far = ProbeTuning(sideband_detuning=1e6)
    want = carrier_pump_rate(far) + 120.0
    assert scattering_rate(far) == pytest.approx(want, rel=1e-9, abs=0)
    assert scattering_rate(far) < scattering_rate(near)


def test_sideband_term_monotone_in_detuning():
    rates = [
        sideband_photon_rate(ProbeTuning(sideband_detuning=d))
        for d in np.linspace(0.0, 10.0, 40)
    ]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_from_powers_matches_defaults():
    built = ProbeTuning.from_powers()
    base = ProbeTuning()
    assert built == base
    half = ProbeTuning.from_powers(sideband_power=38e-9)
    assert half.sideband_intensity == pytest.approx(
        base.sideband_intensity / 2, rel=1e-12, abs=0
    )


def test_tuning_validation():
    with pytest.raises(DomainError):
        ProbeTuning(sideband_intensity=-1.0)
    with pytest.raises(DomainError):
        ProbeTuning(linewidth=0.0)
    with pytest.raises(DomainError):
        ProbeTuning(branching=(0.0, 0.2, 1.5))
    with pytest.raises(DomainError):
        ProbeTuning.from_powers(waist=0.0)


def test_light_shift_golden_and_paper_scale():
    tuning = ProbeTuning.from_powers(
        carrier_power=70e-6,
        sideband_power=90e-9,
        waist=800e-6,
        sideband_detuning=7.9,
        modulation_frequency=2.5e9,
    )
    shift = light_shift(tuning, 0.125)
    assert shift == pytest.approx(LIGHT_SHIFT_GOLDEN, rel=1e-9, abs=0)
    # duty-averaged shift of the pulsed probe lands on the ~2 kHz scale
    assert abs(shift - H * 2e3) < 0.5 * H * 2e3
    # linear in duty cycle
    assert light_shift(tuning, 0.0625) == pytest.approx(shift / 2, rel=1e-12,
                                                         abs=0)
    assert light_shift(_zero_tuning(), 0.5) == 0.0
    with pytest.raises(DomainError):
        light_shift(tuning, 1.5)


def test_rabi_frequency_pull():
    pull = rabi_frequency_pull(2 * math.pi * 6600.0, 2000.0, 1000.0)
    assert pull == pytest.approx(RABI_PULL_GOLDEN, rel=1e-9, abs=0)
    assert rabi_frequency_pull(2 * math.pi * 6600.0, 1500.0, 1500.0) == 0.0
    # zero drive: generalized Rabi frequency reduces to the shifts
    assert rabi_frequency_pull(0.0, 2000.0, 1000.0) == pytest.approx(
        1000.0, rel=1e-12, abs=0
    )
    with pytest.raises(DomainError):
        rabi_frequency_pull(-1.0, 0.0, 0.0)


def test_damping_rate_decomposition():
    model = RabiModel()
    beta = damping_rate(model, 0.0)
    assert beta - model.residual_damping == pytest.approx(
        BETA_SHIFT_GOLDEN, rel=1e-9, abs=0
    )
    # probe off: residual damping only
    assert damping_rate(_clean_drive(residual_damping=90.0), 0.0) == 90.0
    # additive in the spontaneous term
    assert damping_rate(model, 250.0) == pytest.approx(beta + 250.0, rel=1e-12, abs=0)
    # monotone increasing in the shift
    shifts = [H * s for s in (0.0, 500.0, 1000.0, 2000.0, 4000.0)]
    betas = [
        damping_rate(RabiModel(carrier_light_shift=s), 0.0) for s in shifts
    ]
    assert all(a < b for a, b in zip(betas, betas[1:]))
    with pytest.raises(DomainError):
        damping_rate(RabiModel(rabi_frequency=0.0), 0.0)
    with pytest.raises(DomainError):
        damping_rate(model, -1.0)


def test_ensemble_state_validation_and_properties():
    state = EnsembleState.all_lower(1e6)
    assert state.jz == -5e5
    assert state.coherent_number / 2 - state.jz == 1e6
    assert state.f2_population == 0.0
    css = EnsembleState.css_x(1000.0)
    assert css.coherent_number / 2 + css.jz == pytest.approx(500.0)
    assert css.f2_population == pytest.approx(500.0)
    with pytest.raises(DomainError):
        EnsembleState(100.0, jz=60.0)
    with pytest.raises(DomainError):
        EnsembleState(100.0, coherent_number=-50.0)
    with pytest.raises(DomainError):
        EnsembleState(-1.0)
    with pytest.raises(DomainError):
        EnsembleState(100.0, jz=50.0, coherent_number=90.0)  # bound shrinks with leak
    with pytest.raises(DomainError):
        EnsembleState(100.0, coherent_number=100.0 + 1e-12)  # a negative leak
    assert EnsembleState(100.0, coherent_number=90.0).n_leak == 10.0


def test_pi_pulse_inverts_population():
    drive = _clean_drive()
    tuning = _zero_tuning()
    state = EnsembleState.all_lower(1e6)
    t_pi = math.pi / drive.rabi_frequency
    after = step(state, drive, tuning, t_pi)
    assert after.jz == pytest.approx(5e5, abs=1e-6)
    assert after.f2_population == pytest.approx(1e6, rel=1e-9, abs=0)
    assert after.n_leak == 0.0


def test_norm_preserved_over_many_steps():
    drive = _clean_drive(detuning=300.0)
    tuning = _zero_tuning()
    state = EnsembleState.css_x(1e6)
    norm0 = math.hypot(state.jx, state.jy, state.jz)
    for _ in range(10_000):
        state = step(state, drive, tuning, 1e-6)
    assert abs(math.hypot(state.jx, state.jy, state.jz) - norm0) < 1e-9 * norm0


def test_reversibility_without_dissipation():
    drive = _clean_drive(detuning=740.0)
    tuning = _zero_tuning()
    start = EnsembleState.css_x(1e6)
    fwd = step(start, drive, tuning, 1e-4)
    back = step(fwd, drive, tuning, -1e-4)
    for name in ("jx", "jy", "jz"):
        assert abs(getattr(back, name) - getattr(start, name)) < 1e-9 * 1e6


def test_two_half_pulses_compose_to_pi():
    drive = _clean_drive(detuning=1234.0)
    tuning = _zero_tuning()
    state = EnsembleState.all_lower(1e4)
    t_pi = math.pi / drive.rabi_frequency
    once = step(state, drive, tuning, t_pi)
    half = step(state, drive, tuning, t_pi / 2)
    twice = step(half, drive, tuning, t_pi / 2)
    for name in ("jx", "jy", "jz"):
        assert abs(getattr(once, name) - getattr(twice, name)) < 1e-10 * 1e4


def test_detuned_drive_transfer_fraction():
    # detuning chosen so the generalized Rabi axis sits at 45 degrees:
    # transfer probability peaks at one half
    drive = _clean_drive(detuning=6600.0)
    tuning = _zero_tuning()
    state = EnsembleState.all_lower(1e6)
    omega_gen = math.sqrt(2) * drive.rabi_frequency
    after = step(state, drive, tuning, math.pi / omega_gen)
    assert after.f2_population == pytest.approx(5e5, rel=1e-9, abs=0)


def test_probe_leak_grows_and_uplifts_f2():
    # near-resonant probing leaks upper-level atoms into F=2, m!=0 much
    # faster than a far-detuned probe
    drive = RabiModel(carrier_light_shift=0.0, residual_damping=0.0)
    near = ProbeTuning.from_powers(
        carrier_power=70e-6, sideband_power=90e-9, waist=800e-6,
        sideband_detuning=0.8, modulation_frequency=2.5e9,
    )
    far = ProbeTuning.from_powers(
        carrier_power=70e-6, sideband_power=90e-9, waist=800e-6,
        sideband_detuning=7.9, modulation_frequency=2.5e9,
    )
    state = EnsembleState.all_lower(1e7)
    s_near = s_far = state
    for _ in range(200):
        s_near = step(s_near, drive, near, 10e-6)
        s_far = step(s_far, drive, far, 10e-6)
    assert 0.0 < s_far.n_leak < s_near.n_leak
    assert s_near.atom_number == 1e7  # accounting: nothing created or lost
    assert s_near.coherent_number + s_near.n_leak == pytest.approx(1e7, rel=1e-12, abs=0)
    # leaked atoms keep contributing to the detected state
    assert s_near.f2_population > s_near.coherent_number / 2 + s_near.jz


def test_branching_below_half_the_leak_is_a_domain_error():
    # a sideband branching into F=2 of 0.05 with half the scattered upper
    # atoms leaking leaves the coherence damping faster than its
    # perpendicular total: beta - (leak + pump)/2 < 0, no longer completely
    # positive
    drive = RabiModel(rabi_frequency=2 * math.pi * 500)
    tuning = replace(ProbeTuning.from_powers(sideband_power=2e-6, sideband_detuning=0.5),
                     branching=(0.0, 0.2, 0.05))
    with pytest.raises(DomainError, match=r"branching \(0\.0, 0\.2, 0\.05\)"):
        step(EnsembleState.all_lower(1e6), drive, tuning, 10e-6)


def test_light_shift_precession():
    # with the microwave off, the duty-averaged shift precesses the
    # transverse spin at 2*pi*shift/h
    tuning = ProbeTuning()
    drive = RabiModel(rabi_frequency=0.0, carrier_light_shift=0.0,
                      residual_damping=0.0)
    state = EnsembleState.css_x(1e6)
    t = 100e-6
    after = step(state, drive, tuning, t)
    got = math.atan2(after.jy, after.jx)
    want = 2 * math.pi * light_shift(tuning, DUTY) / H * t
    assert got == pytest.approx(
        math.atan2(math.sin(want), math.cos(want)), rel=1e-9, abs=0
    )


def test_drive_phase_sets_rotation_axis():
    drive = _clean_drive()
    tuning = _zero_tuning()
    state = EnsembleState.all_lower(1e6)
    t_half = math.pi / 2 / drive.rabi_frequency
    a = step(state, drive, tuning, t_half, drive_phase=0.0)
    b = step(state, drive, tuning, t_half, drive_phase=math.pi / 2)
    # both half pulses reach the equator, along opposite transverse axes
    assert a.jz == pytest.approx(0.0, abs=1e-6)
    assert b.jz == pytest.approx(0.0, abs=1e-6)
    assert a.jy == pytest.approx(-b.jx, rel=1e-9, abs=0)


def test_step_error_on_impossible_inverse():
    # running the probe backwards in time would need to un-leak atoms that
    # are not there
    state = EnsembleState.css_x(1e6)
    with pytest.raises(StepError):
        step(state, RabiModel(), ProbeTuning(), -1e-3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index, name", enumerate(["jx", "jy", "jz", "n_leak", None]))
def test_non_finite_state_is_an_invariant_break(index, name, value):
    # a NaN passes every comparison, so finiteness is checked on its own. A
    # non-finite leak leaves N_coh = N_at - n_leak, the vector's index 3,
    # non-finite; the atom number is held outside the vector, and a state
    # with a non-finite one is never built, so no walk starts from it
    state = EnsembleState.all_lower(1e6)
    if name is None:
        with pytest.raises(DomainError, match="must be finite|must be >= 0.0"):
            EnsembleState(value)
        return
    if name == "n_leak":
        name, value = "coherent_number", state.atom_number - value
    v = state_vector(state)
    v[index] = value
    with np.errstate(invalid="ignore"):    # inf - inf on the way
        assert broken_invariants(v[None], state.atom_number).tolist() == [True]
    with pytest.raises(DomainError):
        EnsembleState(1e6, **{name: value})
    with pytest.raises(StepError, match="invariants violated after step"):
        with_vector(state, v)


def test_zero_dt_is_identity():
    state = EnsembleState.css_x(10.0)
    assert step(state, RabiModel(), ProbeTuning(), 0.0) == state


def test_squeezing_estimate():
    kappa_sq, xi_sq = squeezing_estimate(0.0, 1e6, 1e8)
    assert kappa_sq == 0.0 and xi_sq == 1.0
    kappa_sq, xi_sq = squeezing_estimate(1e-5, 1e6, 1e5)
    assert kappa_sq == pytest.approx(5.0, rel=1e-12, abs=0)
    assert xi_sq == pytest.approx(1.0 / 6.0, rel=1e-12, abs=0)
    # linear in photon number
    k2, _ = squeezing_estimate(1e-5, 1e6, 2e5)
    assert k2 == pytest.approx(10.0, rel=1e-12, abs=0)
    with pytest.raises(DomainError):
        squeezing_estimate(1e-5, -1.0, 1e5)


def test_cavity_enhancement():
    assert cavity_enhancement(1.0, 0.37) == 0.37
    assert cavity_enhancement(4.0, 1.5) == pytest.approx(3.0, rel=1e-12, abs=0)
    assert cavity_enhancement(102000.0, 1.0) == pytest.approx(
        319.37438845342626, rel=1e-12, abs=0
    )
    with pytest.raises(DomainError):
        cavity_enhancement(0.0, 1.0)


def test_generator_rejects_a_duty_cycle_outside_the_unit_interval():
    for duty in (-0.1, 1.5):
        with pytest.raises(DomainError, match="duty cycle"):
            generators([(RabiModel(), 0.0)], ProbeTuning(), duty)


def test_rabi_model_validation():
    with pytest.raises(DomainError):
        RabiModel(rabi_frequency=-1.0)
    with pytest.raises(DomainError):
        RabiModel(inhomogeneity=-0.1)
