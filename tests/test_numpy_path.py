"""One numpy path per model function, held to the scalar code it replaced.

`exact_phase_terms`, `demodulated_signal` and `sideband_photon_rate` once
chose `math` for scalar inputs and numpy for arrays, and
`sample_noisy_signal` drew one scalar sample without a size. The
`math` forms live on here as the oracle: a scalar call must agree with
them to 2 ulp (numpy's SIMD kernels may round differently from the C
library on another CPU), come back as a `float` and print as one in JSON.
A source guard keeps an input-type fork from returning.
"""
import ast
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndsim
from qndsim.atoms import ProbeTuning, sideband_photon_rate
from qndsim.heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    demodulated_signal,
    exact_phase_terms,
    noise_sigma,
    sample_noisy_signal,
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


def reference_signal(probe, phases, det, demod_phase=None, path_error=0.0):
    d_plus, d_minus, d_plus_am, d_minus_am = reference_phase_terms(phases)
    eps = probe.ram_asymmetry
    chi = 2.0 * math.pi * path_error / probe.modulation_wavelength
    if demod_phase is not None:
        chi += demod_phase - probe.matched_demod_phase
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
@given(phases, phases, phases, path_errors,
       st.one_of(st.none(), st.floats(-math.pi, math.pi)), st.floats(-0.5, 0.5))
@example(0.0, 0.0, -0.0, -0.0, None, 1e-2)
def test_demodulated_signal_matches_the_math_form(minus, carrier, plus, path_error,
                                                  demod_phase, ram):
    probe, det = ModulatedProbe(ram_asymmetry=ram), DetectorModel()
    triple = PhaseShiftTriple(minus, carrier, plus)
    got = demodulated_signal(probe, triple, det, demod_phase, path_error)
    assert_scalar_matches(got, reference_signal(probe, triple, det, demod_phase,
                                                path_error))


@PROPERTY
@given(detunings, st.floats(0.0, 1e3))
def test_sideband_photon_rate_matches_the_math_form(detuning, intensity):
    tuning = ProbeTuning(sideband_detuning=detuning, sideband_intensity=intensity)
    assert_scalar_matches(sideband_photon_rate(tuning), reference_photon_rate(tuning))


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
