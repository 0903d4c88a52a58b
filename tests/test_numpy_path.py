"""One numpy path per model function, held to the scalar code it replaced.

`exact_phase_terms`, `demodulated_signal` and `sideband_photon_rate` once
chose `math` for scalar inputs and numpy for arrays, and
`sample_noisy_signal` drew one scalar sample without a size. The
`math` forms live on here as the oracle: a scalar call must agree with
them to 2 ulp (numpy's SIMD kernels may round differently from the C
library on another CPU), come back as a `float` and print as one in JSON.
`signal_scale` and `sideband_phase` name expressions once written out at
each use; they must give those expressions' bits. A source guard keeps an
input-type fork from returning.
"""
import ast
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndsim
from qndsim.atoms import ProbeTuning, f2_population, sideband_photon_rate
from qndsim.harness import ProbeGate, sideband_phase
from qndsim.heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    demodulated_signal,
    exact_phase_terms,
    interferometer_length_signal,
    length_noise_signal,
    noise_sigma,
    sample_noisy_signal,
    signal_scale,
)

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)
SOURCES = Path(qndsim.__file__).parent
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]
phases = st.one_of(st.sampled_from(EDGES), st.floats(-0.3, 0.3))
path_errors = st.one_of(st.sampled_from(EDGES), st.floats(-1e-3, 1e-3))
detunings = st.one_of(st.sampled_from(EDGES + [-1e150, 1e150]),
                      st.floats(-50.0, 50.0), st.floats(-1e150, 1e150))


def reference_phase_terms(phases):
    a = phases.phi_plus - phases.phi_carrier
    b = phases.phi_carrier - phases.phi_minus
    return (math.cos(a) - math.cos(b), math.sin(a) - math.sin(b),
            math.cos(a) + math.cos(b), math.sin(a) + math.sin(b))


def reference_signal(probe, phases, det, path_error=0.0):
    d_plus, d_minus, d_plus_am, d_minus_am = reference_phase_terms(phases)
    eps = probe.ram_asymmetry
    chi = 2.0 * math.pi * path_error / probe.modulation_wavelength
    scale = det.gain * probe.modulation_depth * probe.carrier_power
    return scale * (math.cos(chi) * (d_minus + eps * d_minus_am)
                    + math.sin(chi) * (d_plus + eps * d_plus_am))


def reference_photon_rate(tuning):
    s = tuning.sideband_intensity / tuning.saturation_intensities[2]
    gamma_ang = 2 * math.pi * tuning.linewidth
    d = tuning.sideband_detuning
    return gamma_ang * (s / 2) / (1 + 4 * d**2 + s)


def assert_scalar_matches(got, want):
    assert isinstance(got, float)
    assert json.dumps(got) == json.dumps(float(got))
    np.testing.assert_array_max_ulp(np.asarray(got), np.asarray(want), maxulp=2)


@PROPERTY
@given(phases, phases, phases)
def test_phase_terms_match_the_math_form(minus, carrier, plus):
    triple = PhaseShiftTriple(minus, carrier, plus)
    for got, want in zip(exact_phase_terms(triple), reference_phase_terms(triple)):
        assert_scalar_matches(got, want)


@PROPERTY
@given(phases, phases, phases, path_errors, st.floats(-0.5, 0.5))
@example(0.0, 0.0, -0.0, -0.0, 1e-2)
def test_demodulated_signal_matches_the_math_form(minus, carrier, plus, path_error,
                                                  ram):
    probe, det = ModulatedProbe(ram_asymmetry=ram), DetectorModel()
    triple = PhaseShiftTriple(minus, carrier, plus)
    got = demodulated_signal(probe, triple, det, path_error=path_error)
    assert_scalar_matches(got, reference_signal(probe, triple, det, path_error))


@PROPERTY
@given(detunings, st.floats(0.0, 1e3))
def test_sideband_photon_rate_matches_the_math_form(detuning, intensity):
    tuning = ProbeTuning(sideband_detuning=detuning, sideband_intensity=intensity)
    assert_scalar_matches(sideband_photon_rate(tuning), reference_photon_rate(tuning))


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def scalars_or_arrays(elements):
    return st.one_of(elements, st.lists(elements, min_size=1, max_size=20).map(np.array))


signed_zeros = st.sampled_from([0.0, -0.0])
positive = st.floats(1e-3, 1e3)
chains = st.builds(
    lambda gain, r_f, eta, beta, power: (
        ModulatedProbe(modulation_depth=beta, carrier_power=power),
        DetectorModel(buffer_gain=gain, transimpedance=r_f, sensitivity=eta)),
    positive, st.floats(1.0, 1e5), st.floats(1e-3, 1.0),
    st.one_of(signed_zeros, st.floats(0.0, 0.3)),
    st.one_of(signed_zeros, st.floats(0.0, 1e-2)))


@PROPERTY
@given(chains, scalars_or_arrays(st.one_of(st.sampled_from(EDGES),
                                           st.floats(-1e-3, 1e-3))),
       phases, st.one_of(st.sampled_from([780e-9, 1e-6]), positive))
def test_signal_scale_gives_the_bits_of_the_products_it_names(chain, path_error, phi,
                                                               wavelength):
    probe, det = chain
    assert_same_bits(signal_scale(probe, det),
                     det.gain * probe.modulation_depth * probe.carrier_power)
    assert_same_bits(
        length_noise_signal(probe, phi, det, path_error),
        det.gain * probe.modulation_depth * probe.carrier_power
        * (phi**2 + probe.ram_asymmetry) * path_error / probe.modulation_wavelength)
    assert_same_bits(
        interferometer_length_signal(probe, det, path_error, wavelength),
        det.gain * probe.modulation_depth * probe.carrier_power * path_error / wavelength)


def clipped_populations(atom_number, levels):
    """F=2 populations of states with these (jz/N_coh, N_coh/N) levels, clipped
    at 0 as the walk clips them: at the lower pole rounding may leave one a
    few ulp below 0."""
    vs = np.array([[0.0, 0.0, jz * c * atom_number, c * atom_number] for jz, c in levels])
    return np.maximum(f2_population(vs, atom_number), 0.0)


detuning_linewidths = st.one_of(signed_zeros, st.floats(-1e3, 1e3))
cloud_sizes = st.one_of(signed_zeros, st.floats(0.0, 1e-3))
atom_numbers = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324]), st.floats(0.0, 1e9))
levels = st.tuples(st.one_of(st.sampled_from([-0.5, 0.5]), st.floats(-0.5, 0.5)),
                   st.one_of(st.just(1.0), st.floats(0.0, 1.0)))


@PROPERTY
@given(detuning_linewidths, st.floats(1e3, 1e8), st.floats(1e-6, 1e-2), cloud_sizes,
       st.one_of(scalars_or_arrays(atom_numbers),
                 st.tuples(st.floats(0.0, 1e9), st.lists(levels, min_size=1, max_size=20))
                 .map(lambda drawn: clipped_populations(*drawn))))
@example(4.81, 6.0666e6, 245e-6, -0.0, clipped_populations(1e6, [(-0.5, 1.0)]))
def test_sideband_phase_gives_the_bits_of_the_call_it_names(detuning, linewidth, waist,
                                                            cloud_rms, population):
    tuning = ProbeTuning(sideband_detuning=detuning, linewidth=linewidth)
    gate, probe = ProbeGate(tuning=tuning), ModulatedProbe(beam_waist=waist)
    assert_same_bits(
        sideband_phase(gate, probe, population, cloud_rms),
        atomic_phase(tuning.sideband_detuning * tuning.linewidth, population,
                     probe.beam_waist, cloud_rms, linewidth=tuning.linewidth))


@PROPERTY
@given(st.floats(-1.0, 1.0), st.integers(0, 2**32))
def test_a_scalar_sample_draws_the_stream_of_one_normal(ideal, seed):
    probe, det = ModulatedProbe(), DetectorModel()
    sigma = noise_sigma(det, probe, 10e-6)
    want = ideal + np.random.default_rng(seed).normal(0.0, sigma)
    got = sample_noisy_signal(ideal, det, probe, 10e-6, np.random.default_rng(seed))
    assert got == want
    assert json.dumps(got) == json.dumps(want)


# ------------------------------------------------------------------ guard

def input_type_forks(source: str) -> list[int]:
    """Line numbers of `isinstance(..., np.ndarray)` tests and `xp` bindings."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and any(getattr(n, "attr", getattr(n, "id", None)) == "ndarray"
                        for arg in node.args[1:] for n in ast.walk(arg))):
            lines.append(node.lineno)
        elif ((isinstance(node, ast.Name) and node.id == "xp"
               and isinstance(node.ctx, ast.Store))
              or (isinstance(node, ast.arg) and node.arg == "xp")
              or (isinstance(node, ast.alias) and node.asname == "xp")):
            lines.append(node.lineno)
    return lines


def test_the_guard_finds_an_input_type_fork():
    assert input_type_forks("xp = np if isinstance(a, np.ndarray) else math") == [1, 1]
    assert input_type_forks("if isinstance(x, (list, ndarray)):\n    pass") == [1]
    assert input_type_forks("def f(x, xp=np):\n    return x") == [1]
    assert input_type_forks("import numpy as xp") == [1]
    assert input_type_forks("for xp in (np, math):\n    pass") == [1]
    assert input_type_forks("if isinstance(x, tuple):\n    y = np.cos(x)") == []


def test_no_model_function_forks_on_input_type():
    offenders = [f"{path.name}:{line}" for path in sorted(SOURCES.glob("*.py"))
                 for line in input_type_forks(path.read_text(encoding="utf-8"))]
    assert offenders == []
