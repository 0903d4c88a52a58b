"""Cold start: the package loads scipy's heavy submodules only where used.

`constants` holds literals instead of importing scipy.constants, and
`atoms.expm`, `harness.curve_fit` and `harness.brentq` import scipy.linalg
and scipy.optimize on their first call. These tests pin the literals to
scipy's values, check in fresh interpreters that the scipy-free scenarios
stay free of those submodules, and check the diverged-fit warning, which
goes through the `harness.curve_fit` seam.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants as sc

import qndsim
import qndsim.cli as cli
from qndsim import constants, harness

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
HEAVY = ("scipy.constants", "scipy.linalg", "scipy.optimize")


def test_constants_equal_scipy():
    if sc.epsilon_0 != 8.8541878188e-12:
        pytest.skip(f"installed scipy carries an older CODATA release "
                    f"(epsilon_0 = {sc.epsilon_0!r})")
    pairs = {"C": sc.c, "H": sc.h, "HBAR": sc.hbar, "K_B": sc.k,
             "EPSILON_0": sc.epsilon_0, "E_CHARGE": sc.e,
             "ATOMIC_MASS": sc.atomic_mass,
             "RB87_MASS": 86.909180527 * sc.atomic_mass}
    for name, value in pairs.items():
        assert getattr(constants, name) == value, name


# a fresh interpreter runs one config and reports which heavy submodules
# ended up loaded
PROBE = """
import json, sys
from qndsim import cli
code = cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, sorted(m for m in {heavy!r} if m in sys.modules)]))
""".format(heavy=HEAVY)


def loaded_after_run(config: str, out: Path) -> list[str]:
    src = str(Path(qndsim.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(CONFIG_DIR / config), str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    return loaded


@pytest.mark.parametrize("config", ["cavity_spectrum.json", "trap_map.json",
                                    "noise_sweep.json",
                                    "scattering_sweep.json",
                                    "squeezing.json"])
def test_scipy_free_scenarios_load_no_heavy_scipy(tmp_path, config):
    assert loaded_after_run(config, tmp_path) == []


def test_rabi_loads_scipy_optimize_through_the_shims(tmp_path):
    loaded = loaded_after_run("rabi.json", tmp_path)
    assert "scipy.optimize" in loaded and "scipy.linalg" in loaded


def test_diverged_fit_warns_on_stderr(monkeypatch, tmp_path, capsys):
    config = CONFIG_DIR / "rabi.json"
    assert cli.main(["run", str(config), "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()

    def diverge(*args, **kwargs):
        raise RuntimeError("Optimal parameters not found")

    monkeypatch.setattr(harness, "curve_fit", diverge)
    out = tmp_path / "diverged"
    assert cli.main(["run", str(config), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    fit = json.loads((out / "rabi_fit.json").read_text(encoding="utf-8"))
    assert fit["error"].startswith("fit diverged: ")
    assert err.splitlines() == [
        f"warning: rabi fit diverged: {fit['error'][len('fit diverged: '):]}"]
    # only the fit failed: the trace is the converged run's
    assert ((out / "rabi_trace.csv").read_bytes()
            == (tmp_path / "ok" / "rabi_trace.csv").read_bytes())
