"""Array-evaluated sweeps and trap map against the scalar model functions.

Every row a sweep runner writes must equal the scalar call at that row's
own coordinates. The bound is 2 ulp rather than equality because numpy's
SIMD kernels may round differently from the C library on another CPU.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import artifact_digests as digests
import qndsim
from qndsim.atoms import ProbeTuning, scattering_rate
from qndsim.cli import _mirrored_axis, main
from qndsim.constants import K_B
from qndsim.heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    demodulated_signal,
    interferometer_length_signal,
    length_noise_signal,
)
from qndsim.trap import DipoleTrapConfig, potential_at

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"


def run(tmp_path, stem, overrides=()):
    """The bundled config with overrides, run; its config and CSV rows."""
    cfg = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    for pair in overrides:
        dotted, value = pair.split("=")
        section, key = dotted.split(".")
        cfg.setdefault(section, {})[key] = json.loads(value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "art"
    assert main(["run", str(path), "--out", str(out)]) == 0
    csv = next(out.glob("*.csv")).read_text().splitlines()[1:]
    return cfg, np.array([[float(c) for c in row.split(",")] for row in csv])


def assert_ulp(got, want):
    np.testing.assert_array_max_ulp(np.asarray(got), np.asarray(want),
                                    maxulp=2)


@pytest.mark.parametrize("overrides", [
    (), ("trap.backscatter_depth=0.3", "grid.points_per_axis=6",
         "grid.half_span_um=400.0")])
def test_trap_map_rows_equal_scalar_potential(tmp_path, overrides):
    cfg, rows = run(tmp_path, "trap_map", overrides)
    sec, grid = cfg["trap"], cfg["grid"]
    trap = DipoleTrapConfig(
        power_per_arm=sec["power_per_arm_w"],
        waist_par=sec["waist_par_um"] * 1e-6,
        waist_perp=sec["waist_perp_um"] * 1e-6,
        backscatter_depth=sec.get("backscatter_depth", 0.0))
    axis = _mirrored_axis(grid["half_span_um"] * 1e-6, grid["points_per_axis"])
    points = [(x, y, z) for x in axis for y in axis for z in axis]
    # the coordinate columns name exactly the grid points
    np.testing.assert_array_equal(rows[:, :3], np.array(points) * 1e6)
    assert_ulp(rows[:, 3], [potential_at(trap, p) / K_B * 1e6
                            for p in points])


# -------------------------------------------------------- mirrored axes

@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.one_of(st.integers(2, 101), st.integers(2, 100_001)),
       st.one_of(st.sampled_from([150e-6, 100e-6, 87.3e-6, 1.0]), st.floats(1e-300, 1e300)))
@example(25, 150e-6)
@example(30_000, 87.3e-6)
def test_mirrored_axis_is_linspace_made_antisymmetric(n, half):
    axis, plain = _mirrored_axis(half, n), np.linspace(-half, half, n)
    bits = axis.view(np.int64)
    # linspace rounds each point at the scale of its span, so its own mirror
    # defect, the distance here, stays under 2 ulp of 2*half (1.5 measured)
    assert np.all(np.abs(axis - plain) <= 2 * np.spacing(2 * half))
    assert np.array_equal(bits[:n // 2], (-axis[::-1]).view(np.int64)[:n // 2])
    if n % 2:
        assert bits[n // 2] == 0    # +0.0, where linspace may miss 0
    assert axis[0] == -half and axis[-1] == half
    assert np.all(np.diff(axis) > 0)


def artifact_cells(tmp_path, name: str) -> list:
    """The cell strings of each row of the CSV that digest-table run
    ``name`` writes."""
    config, extra = digests.runs()[name]
    digests.digests(config, extra, tmp_path / "out")
    csv = next((tmp_path / "out").glob("*.csv"))
    return [line.split(",") for line in csv.read_text().splitlines()[1:]]


@pytest.mark.parametrize("name", ["trap_map", "scaled-sweeps/trap_map",
                                  "scaled-sweeps/trap_map@full"])
def test_trap_cube_equals_its_mirror_images(tmp_path, name):
    rows = artifact_cells(tmp_path, name)
    n = round(len(rows) ** (1 / 3))
    assert len(rows) == n**3
    cube = np.array([row[3] for row in rows]).reshape(n, n, n)
    for axis in range(3):
        assert np.array_equal(cube, np.flip(cube, axis))


@pytest.mark.parametrize("name", ["noise_sweep", "scaled-sweeps/noise_sweep",
                                  "scaled-sweeps/noise_sweep@full"])
def test_odd_noise_sweep_cells_flip_sign_in_their_mirror_rows(tmp_path, name):
    rows = artifact_cells(tmp_path, name)
    n = len(rows)
    for column in (0, 2, 3):    # path_error_m, budget_v, reference_v
        for i in range(n // 2):
            cell, mirror = rows[i][column], rows[n - 1 - i][column]
            assert cell == "-" + mirror or mirror == "-" + cell, (i, column)
    if n % 2:
        assert rows[n // 2][0] == "0.0"


@pytest.mark.parametrize("overrides", [
    (), ("sweep.phi_at_rad=-0.2", "probe.ram_asymmetry=-0.3",
         "sweep.points=513", "sweep.path_error_max_um=2e5",
         "detector.buffer_gain=3.5")])
def test_noise_sweep_rows_equal_scalar_signals(tmp_path, overrides):
    cfg, rows = run(tmp_path, "noise_sweep", overrides)
    sec, sweep = cfg["probe"], cfg["sweep"]
    probe = ModulatedProbe(
        carrier_power=sec["carrier_power_uw"] * 1e-6,
        modulation_depth=sec["modulation_depth"],
        modulation_frequency=2 * math.pi * sec["modulation_frequency_ghz"]
        * 1e9,
        ram_asymmetry=sec["ram_asymmetry"],
        carrier_detuning=sec["carrier_detuning_ghz"] * 1e9,
        sideband_power=sec["sideband_power_nw"] * 1e-9,
        beam_waist=sec["beam_waist_um"] * 1e-6,
        path_length=sec.get("path_length_m", 1.0))
    d = cfg["detector"]
    det = DetectorModel(
        sensitivity=d["sensitivity_a_per_w"],
        transimpedance=d["transimpedance_v_per_a"],
        buffer_gain=d["buffer_gain"], load=d["load_ohm"],
        bandwidth=d["bandwidth_mhz"] * 1e6, kappa_e=d["kappa_e_uw"] * 1e-6)
    phi = sweep["phi_at_rad"]
    triple = PhaseShiftTriple(phi_plus=phi)
    base = demodulated_signal(probe, triple, det)
    wavelength = sweep["reference_wavelength_um"] * 1e-6
    want = [(demodulated_signal(probe, triple, det, path_error=pe) - base,
             length_noise_signal(probe, phi, det, pe),
             interferometer_length_signal(probe, det, pe, wavelength))
            for pe in rows[:, 0].tolist()]
    assert len(rows) == sweep["points"]
    assert_ulp(rows[:, 1:], want)


@pytest.mark.parametrize("overrides", [
    (), ("sweep.detuning_min_linewidths=-40.0", "sweep.points=1001",
         "tuning.sideband_power_nw=5000.0")])
def test_scattering_sweep_rows_equal_scalar_rate(tmp_path, overrides):
    cfg, rows = run(tmp_path, "scattering_sweep", overrides)
    sec = cfg["tuning"]
    want = [scattering_rate(ProbeTuning.from_powers(
                carrier_power=sec["carrier_power_uw"] * 1e-6,
                sideband_power=sec["sideband_power_nw"] * 1e-9,
                waist=sec["waist_um"] * 1e-6, sideband_detuning=delta,
                modulation_frequency=sec["modulation_frequency_ghz"] * 1e9),
                sec["expansion_rate_hz"])
            for delta in rows[:, 0].tolist()]
    assert len(rows) == cfg["sweep"]["points"]
    assert_ulp(rows[:, 1], want)


# ------------------------------------------------------ elementwise models

def test_demodulated_signal_is_elementwise_in_path_error_and_phase():
    rng = np.random.default_rng(1)
    probe, det = ModulatedProbe(), DetectorModel()
    pe = rng.uniform(-1e-3, 1e-3, 2000)
    phi = rng.uniform(-0.3, 0.3, 2000)
    fixed = PhaseShiftTriple(phi_plus=0.1)
    assert_ulp(demodulated_signal(probe, fixed, det, path_error=pe),
               [demodulated_signal(probe, fixed, det, path_error=e)
                for e in pe.tolist()])
    both = PhaseShiftTriple(phi_minus=-phi, phi_plus=phi)
    assert_ulp(
        demodulated_signal(probe, both, det, path_error=pe),
        [demodulated_signal(probe, PhaseShiftTriple(phi_minus=-a, phi_plus=a),
                            det, path_error=e)
         for a, e in zip(phi.tolist(), pe.tolist())])


def test_scattering_rate_is_elementwise_in_sideband_detuning():
    rng = np.random.default_rng(2)
    delta = np.concatenate([rng.uniform(-50.0, 50.0, 5000),
                            [0.0, -0.0, 1e-300, 1e150, -1e150]])
    got = scattering_rate(ProbeTuning(sideband_detuning=delta), 90.0)
    want = [scattering_rate(ProbeTuning(sideband_detuning=d), 90.0)
            for d in delta.tolist()]
    assert_ulp(got, want)


def test_float_power_squares_as_a_scalar_does():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-3.0, 3.0, 100_000),
                        rng.standard_normal(1000) * 1e150])
    assert_ulp(np.float_power(x, 2), [v**2 for v in x.tolist()])
