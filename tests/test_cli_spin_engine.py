"""CLI runs of the spin engine at extreme drive strengths: exit codes and
finite artifacts."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qndsim
from qndsim.cli import main

RABI = Path(qndsim.__file__).parent / "configs" / "rabi.json"


def reject_constant(token):
    raise ValueError(f"non-finite JSON value {token}")


@pytest.mark.parametrize("khz", ["1e-308", "5e-324"])
def test_underflowing_rabi_frequency_is_config_error(tmp_path, capsys, khz):
    # inside the field's bound, the shift-damping denominator 2*hbar^2*Omega_R
    # underflows to zero: the set-up asks atoms.damping_rate of the walk's
    # drive, so validate and run both stop before the walk
    override = f"drive.rabi_frequency_khz={khz}"
    assert main(["validate", str(RABI), "--set", override]) == 2
    assert "  drive.rabi_frequency_khz: shift damping undefined" in capsys.readouterr().err
    assert main(["run", str(RABI), "--out", str(tmp_path / "art"),
                 "--set", override]) == 2
    assert not (tmp_path / "art").exists()


def test_undriven_probed_trace_is_config_error(tmp_path, capsys):
    # with back-action on, the shift damping divides by the Rabi frequency:
    # the zero is rejected by its field before any run; a pure sampling
    # clock shifts nothing and runs undriven
    override = "drive.rabi_frequency_khz=0"
    assert main(["validate", str(RABI), "--set", override]) == 2
    assert "drive.rabi_frequency_khz: shift damping undefined" in capsys.readouterr().err
    assert main(["run", str(RABI), "--out", str(tmp_path / "art"), "--set", override]) == 2
    assert not (tmp_path / "art").exists()
    assert main(["run", str(RABI), "--out", str(tmp_path / "clock"), "--set", override,
                 "--set", "probe_gate.backaction=false"]) == 0
    trace = (tmp_path / "clock" / "rabi_trace.csv").read_text().splitlines()
    assert len(trace) == 202    # header and 2 ms at 100 kHz


def test_huge_rabi_frequency_finishes_with_finite_artifacts(tmp_path):
    # the substep stepper split each probe period into ~1e12 rotations at
    # the huge drive, and the clamp fallback into ~2.5e22 substeps at the
    # tiny waist
    env = {**os.environ, "PYTHONPATH": str(Path(qndsim.__file__).parents[1])}
    for override in ("drive.rabi_frequency_khz=1e12", "probe_gate.waist_um=1e-3"):
        out = tmp_path / override
        done = subprocess.run(
            [sys.executable, "-m", "qndsim.cli", "run", str(RABI), "--out", str(out),
             "--set", override],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode in (0, 3), done.stderr
        if done.returncode == 3:
            continue
        manifest = json.loads((out / "manifest.json").read_text())
        for name in manifest["artifacts"]:
            text = (out / name).read_text()
            if name.endswith(".json"):
                json.loads(text, parse_constant=reject_constant)
                continue
            for row in text.splitlines()[1:]:
                assert all(math.isfinite(float(cell)) for cell in row.split(",")), row


@pytest.mark.parametrize("ms", [200, 500, 1000])
def test_a_fit_over_a_long_window_finds_the_drive_or_says_it_diverged(tmp_path, capsys, ms):
    # the probed Rabi signal damps out within a few ms, so over a long window
    # the fit may lose the 6.9 kHz drive; what it then finds (a sub-Hz
    # frequency) must be written as a diverged fit, not as a fit
    argv = ["run", str(RABI), "--out", str(tmp_path), "--set", f"drive.duration_ms={ms}",
            "--set", f"options.fit_window_ms={ms}"]
    assert main(argv) == 0
    fit = json.loads((tmp_path / "rabi_fit.json").read_text(encoding="utf-8"))
    if "error" in fit:
        assert fit["error"].startswith("fit diverged: ")
        assert capsys.readouterr().err.startswith("warning: rabi fit diverged: ")
    else:
        assert fit["frequency"] == pytest.approx(6.9e3, rel=0.01, abs=0)


def mean_field_prediction() -> tuple[float, float]:
    """The bundled rabi set-up's generalized Rabi frequency at the duty-averaged
    light shift, Hz, and `damping_rate` of its drive at its spontaneous rate."""
    from qndsim.atoms import ProbeTuning, RabiModel, damping_rate, light_shift, scattering_rate
    from qndsim.constants import H, to_si
    from qndsim.harness import ProbeGate
    cfg = json.loads(RABI.read_text(encoding="utf-8"))
    gate_si = dict(to_si(key, x) for key, x in cfg["probe_gate"].items())
    drive_si = dict(to_si(key, x) for key, x in cfg["drive"].items())
    tuning = ProbeTuning.from_powers(
        carrier_power=gate_si["carrier_power"], sideband_power=gate_si["sideband_power"],
        waist=gate_si["waist"], sideband_detuning=gate_si["sideband_detuning_linewidths"],
        modulation_frequency=gate_si["modulation_frequency"])
    gate = ProbeGate(repetition_rate=gate_si["repetition_rate"],
                     pulse_duration=gate_si["pulse_duration"], tuning=tuning)
    shift = light_shift(tuning, gate.duty_cycle)
    omega = 2 * math.pi * cfg["drive"]["rabi_frequency_khz"] * 1e3
    drive = RabiModel(rabi_frequency=omega, carrier_light_shift=shift,
                      inhomogeneity=drive_si["inhomogeneity"],
                      residual_damping=drive_si["residual_damping"])
    frequency = math.hypot(omega, 2 * math.pi * shift / H) / (2 * math.pi)
    return frequency, damping_rate(drive, scattering_rate(tuning, 0.0) * gate.duty_cycle)


def test_bundled_rabi_fit_closes_the_loop_on_the_mean_field_model(tmp_path):
    # the fitted frequency is the generalized Rabi frequency at the
    # duty-averaged light shift, and the fitted damping is damping_rate of
    # the walk's drive at its spontaneous rate, each within 2 standard errors
    assert main(["run", str(RABI), "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "rabi_fit.json").read_text(encoding="utf-8"))
    frequency, damping = mean_field_prediction()
    errors = fit["std_errors"]
    assert abs(fit["frequency"] - frequency) < 2 * errors["frequency"]
    assert abs(fit["damping"] - damping) < 2 * errors["damping"]


def test_noiseless_bundled_rabi_fit_closes_the_loop_to_a_thousandth_of_the_noise(tmp_path):
    # without detection noise the fit's standard errors are those of the
    # model misfit alone, 0.013 Hz and 0.08 1/s, a thousandth of the seeded
    # fit's: a time axis or a walk off by 4e-6 of itself fails here
    assert main(["run", str(RABI), "--out", str(tmp_path),
                 "--set", "options.noiseless=true"]) == 0
    fit = json.loads((tmp_path / "rabi_fit.json").read_text(encoding="utf-8"))
    frequency, damping = mean_field_prediction()
    errors = fit["std_errors"]
    assert errors["frequency"] < 0.05 and errors["damping"] < 0.5
    assert abs(fit["frequency"] - frequency) < 2 * errors["frequency"]
    assert abs(fit["damping"] - damping) < 2 * errors["damping"]
