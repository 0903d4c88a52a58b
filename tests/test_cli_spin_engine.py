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
