"""`qndsim validate` names the field behind each regime limit. For a probed
scenario it builds the run's set-up and nothing more, and the run reuses that
set-up, so a config it accepts does not fail in it."""
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qndsim
import qndsim.cli as cli
from qndsim.cli import main
from qndsim.harness import build_spin_echo

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"


@pytest.mark.parametrize("stem, override, path", [
    ("rabi", "probe_gate.pulse_duration_us=20", "probe_gate.pulse_duration_us"),
    ("spin_echo", "probe_gate.pulse_duration_us=20",
     "probe_gate.pulse_duration_us"),
    ("rabi", "probe_gate.sideband_power_nw=10000",
     "probe_gate.sideband_power_nw"),
    ("rabi", "probe_gate.carrier_power_uw=0", "probe_gate.carrier_power_uw"),
    ("noise_sweep", "probe.ram_asymmetry=1.5", "probe.ram_asymmetry"),
    ("spin_echo", "echo.total_duration_us=100", "echo.total_duration_us"),
    ("scattering_sweep", "sweep.detuning_min_linewidths=20",
     "sweep.detuning_max_linewidths"),
])
def test_regime_diagnostic_names_field(capsys, stem, override, path):
    assert main(["validate", str(CONFIG_DIR / f"{stem}.json"),
                 "--set", override]) == 2
    assert f"{path}: " in capsys.readouterr().err


@pytest.mark.parametrize("stem, override", [
    ("noise_sweep", "probe.beam_waist_um=5e-324"),
    ("rabi", "drive.duration_ms=2000"),
    ("spin_echo", "echo.total_duration_us=2e6"),
])
def test_validate_and_run_agree(tmp_path, capsys, stem, override):
    # the run's set-up fails at these values, so validate must reject them
    # and the run must stop at validation, before writing anything
    config = str(CONFIG_DIR / f"{stem}.json")
    assert main(["validate", config, "--set", override]) == 2
    out = tmp_path / "art"
    assert main(["run", config, "--out", str(out), "--set", override]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_validate_builds_one_echo_sequence_and_runs_no_kernel(monkeypatch,
                                                              capsys):
    # validation builds the set-up the run reuses: one echo sequence per
    # detuning of spin_echo.json, and no walk, demodulation or sweep kernel
    built = []
    monkeypatch.setattr(cli, "build_spin_echo",
                        lambda **kw: built.append(kw) or build_spin_echo(**kw))
    for kernel in ("run_scan", "run_sequence", "demodulated_signal",
                   "length_noise_signal", "interferometer_length_signal",
                   "noise_rejection_ratio", "scattering_rate"):
        monkeypatch.setattr(cli, kernel, None)
    for stem in ("noise_sweep", "scattering_sweep", "rabi", "spin_echo"):
        assert main(["validate", str(CONFIG_DIR / f"{stem}.json")]) == 0
    assert len(built) == 4


@pytest.mark.parametrize("stem, builder, count", [
    ("rabi", "light_shift", 1),
    ("spin_echo", "build_spin_echo", 4),   # one per detuning
])
def test_run_builds_each_setup_once(monkeypatch, tmp_path, stem, builder, count):
    # the runner takes the set-up validation built and builds none of its own
    calls, build = [], getattr(cli, builder)
    monkeypatch.setattr(cli, builder,
                        lambda *a, **kw: calls.append(a) or build(*a, **kw))
    assert main(["run", str(CONFIG_DIR / f"{stem}.json"),
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == count


@pytest.mark.parametrize("rate", ["1e-10", "1e-300"])
def test_slow_probe_clock_that_skips_the_pi_pulse_is_a_config_error(tmp_path, capsys,
                                                                     rate):
    # no clock tick falls inside the echo's pi pulse, so the echo amplitude
    # has no sample to read: rejected before the walk, naming the clock
    config = str(CONFIG_DIR / "spin_echo.json")
    override = f"probe_gate.repetition_rate_khz={rate}"
    assert main(["validate", config, "--set", override]) == 2
    assert "probe_gate.repetition_rate_khz: " in capsys.readouterr().err
    out = tmp_path / "art"
    assert main(["run", config, "--out", str(out), "--set", override]) == 2
    assert "probe_gate.repetition_rate_khz: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stem", ["rabi", "spin_echo"])
def test_fast_probe_clock_over_the_sample_budget_is_a_config_error(tmp_path, capsys,
                                                                   stem):
    # a 1 THz clock would sample every picosecond: more samples than the
    # walk's arrays can hold, rejected before the walk, naming the clock
    config = str(CONFIG_DIR / f"{stem}.json")
    overrides = ["--set", "probe_gate.repetition_rate_khz=1e9",
                 "--set", "probe_gate.pulse_duration_us=1e-6"]
    assert main(["validate", config, *overrides]) == 2
    assert "probe_gate.repetition_rate_khz: " in capsys.readouterr().err
    out = tmp_path / "art"
    assert main(["run", config, "--out", str(out), *overrides]) == 2
    assert "probe_gate.repetition_rate_khz: " in capsys.readouterr().err
    assert not out.exists()


# an echo scan walks every trace at once, so its traces share one budget:
# 16 detunings of a 1 s echo at a 1 MHz clock would hold 1.6e7 samples,
# several GB; 4 of a 0.25 s echo fill the budget of 10^6
BIG_ECHO = ["--set", "probe_gate.repetition_rate_khz=1000",
            "--set", "probe_gate.pulse_duration_us=0.5"]
DETUNINGS = "echo.detunings_hz=" + str([100.0 * i for i in range(16)])


@pytest.mark.parametrize("overrides, span", [
    (["--set", "echo.total_duration_us=1e6", "--set", DETUNINGS], "16 traces span 1.6e+07"),
    (["--set", "echo.total_duration_us=250001"], "4 traces span 1000004"),
])
def test_scan_over_the_sample_budget_is_a_config_error(tmp_path, capsys, overrides,
                                                       span):
    config = str(CONFIG_DIR / "spin_echo.json")
    assert main(["validate", config, *BIG_ECHO, *overrides]) == 2
    assert f"echo.detunings_hz: {span} probe periods, over" in capsys.readouterr().err
    out = tmp_path / "art"
    assert main(["run", config, "--out", str(out), *BIG_ECHO, *overrides]) == 2
    assert "echo.detunings_hz: " in capsys.readouterr().err
    assert not out.exists()


def test_largest_admitted_scan_runs_in_a_few_hundred_mib(tmp_path):
    # a fresh interpreter under a 512 MiB address-space cap; one BLAS
    # thread, since each thread's buffers count against the cap
    config, cap = str(CONFIG_DIR / "spin_echo.json"), 512 * 2**20
    overrides = [*BIG_ECHO, "--set", "echo.total_duration_us=250000"]
    assert main(["validate", config, *overrides]) == 0
    src = str(Path(qndsim.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "art"
    proc = subprocess.run(
        [sys.executable, "-m", "qndsim.cli", "run", config, "--out", str(out), *overrides],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 0, proc.stderr
    rows = (out / "spin_echo_traces.csv").read_text(encoding="utf-8").count("\n")
    assert rows == 1 + 4 * 250001


def test_a_sequence_just_over_the_budget_says_by_how_much(capsys):
    # the count is printed to the sample, not rounded onto the budget
    assert main(["validate", str(CONFIG_DIR / "rabi.json"), "--set", "drive.duration_ms=1000",
                 "--set", "probe_gate.repetition_rate_khz=1000.004",
                 "--set", "probe_gate.pulse_duration_us=0.5"]) == 2
    assert "sequence spans 1000004 probe periods, over the budget of 1000000" \
        in capsys.readouterr().err
