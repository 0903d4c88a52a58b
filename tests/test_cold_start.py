"""Cold start: a run loads only what it computes with, so neither scipy nor
numpy.ma.

`constants` holds literals instead of importing scipy.constants,
`atoms.expm` and `harness.curve_fit` are numpy code, and the unit-SNR
sideband power of `destructivity_at_unit_snr` has a closed form. The
manifest's scipy version is read from scipy/version.py, and the fit's
median sampling step is the middle mean of the sorted steps, without the
numpy.ma import of np.median's NaN check. These tests pin the literals,
the version and the median to scipy's and numpy's own, check in fresh
interpreters that `import qndsim.cli`, every bundled config and the demo
that calls `destructivity_at_unit_snr` load no module of scipy or numpy.ma
beyond what `import numpy` itself loads, and check the diverged-fit warning,
which goes through the `harness.curve_fit` seam.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.constants as sc
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndsim
import qndsim.cli as cli
from qndsim import constants, harness

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
UNUSED = ("scipy", "numpy.ma")


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


def test_scipy_version_is_scipy_own():
    assert cli._scipy_version() == cli._VERSIONS["scipy"] == scipy.__version__


# np.median is the mean of the middle one or two of the sorted values; above
# half the float range the odd-length (a + a) / 2 would overflow where
# np.median returns a, and a sampling step is far below that
steps = st.floats(min_value=0.0, max_value=sys.float_info.max / 2, exclude_min=True)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(steps, st.sampled_from([1e-5, 1e-5 + 2e-21, 5e-324])),
                min_size=1, max_size=40))
@example([1e-5] * 10)
@example([1e-5, 1e-5, 2e-5, 2e-5])
@example([sys.float_info.max / 2] * 2)
def test_median_is_numpy_median(values):
    x = np.array(values)
    assert harness._median(x).tobytes() == np.median(x).tobytes()


# a fresh interpreter runs one config, or imports numpy alone or qndsim.cli,
# and reports which modules of UNUSED ended up loaded
LOADED = "sorted(m for m in sys.modules if m in {!r} or m.startswith({!r}))".format(
    UNUSED, tuple(f"{p}." for p in UNUSED))
PROBE = f"""
import json, sys
from qndsim import cli
code = cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, {LOADED}]))
"""
IMPORT_PROBE = f"""
import json, sys
import {{}}
print(json.dumps([0, {LOADED}]))
"""


# the same for a demo script, run as __main__
DEMO_PROBE = f"""
import json, runpy, sys
runpy.run_path(sys.argv[1], run_name="__main__")
print(json.dumps([0, {LOADED}]))
"""


def loaded_after(probe: str, *args) -> list[str]:
    src = str(Path(qndsim.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    return loaded


@pytest.fixture(scope="module")
def numpy_alone():
    # numpy releases before 2.0 import numpy.ma with numpy itself
    return loaded_after(IMPORT_PROBE.format("numpy"))


def test_importing_the_cli_loads_no_heavy_scipy(numpy_alone):
    assert loaded_after(IMPORT_PROBE.format("qndsim.cli")) == numpy_alone


@pytest.mark.parametrize("config", ["cavity_spectrum.json", "trap_map.json",
                                    "noise_sweep.json",
                                    "scattering_sweep.json",
                                    "squeezing.json", "rabi.json",
                                    "spin_echo.json"])
def test_scipy_free_scenarios_load_no_heavy_scipy(tmp_path, config, numpy_alone):
    assert loaded_after(PROBE, CONFIG_DIR / config, tmp_path) == numpy_alone


def test_detection_budget_demo_loads_no_heavy_scipy(numpy_alone):
    demo = Path(__file__).parents[1] / "demos" / "detection_budget.py"
    assert loaded_after(DEMO_PROBE, demo) == numpy_alone


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
