"""Cold start: a run loads only what it computes with: neither scipy nor
numpy.ma, and of qndsim only the modules its scenarios use.

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
which goes through the `harness.curve_fit` seam, and that a numpy overflow
in a valid run is no warning under `-W error`. Of qndsim's own modules,
`import qndsim.cli` loads the four of CORE, each bundled config's run loads
those and its model modules (MODEL_MODULES), validating a config without a
set-up loads no model module, and a bare `import qndsim` still resolves each
module on first access and in a star import.

numpy is loaded only by code that computes with arrays. The manifest's
numpy version is read from numpy/version.py the way scipy's is, so
`import qndsim.cli`, `list-scenarios`, validating a config without a set-up
or the noise sweep's, and a cavity-spectrum, squeezing, noise-sweep or
scattering-sweep run load no numpy module: a sweep of the bundled size is
evaluated point by point with math. The rabi and spin-echo runs, a trap
map and a sweep longer than cli.SCALAR_SWEEP_POINTS points load it. An
older numpy whose version.py imports numpy (a versioneer build) skips those
pins, and a synthetic package of that layout checks that its version is
still read. `import qndsim.atoms` and `import qndsim.heterodyne` load no
numpy either, as their array functions import it themselves; called first
in a fresh interpreter, the array functions of atoms compute the bits they
compute in process, and a scalar call returns a float. The model records
are built without generated code, so those same commands, and `--help`,
load neither dataclasses nor inspect. Only a run's manifest hashes, so
`--help`, `list-scenarios` and `validate` load no hashlib.

A command's process ends with its heap frozen: `cli.main` registers
gc.freeze with atexit once, however often it runs, and `import qndsim.cli`
registers nothing. With no exit-time collection to close a file, no run
leaves one open, and a cold run of each bundled config writes the bytes of
the digest table, which is made in process.
"""
import ast
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.constants as sc
from hypothesis import example, given, settings
from hypothesis import strategies as st

import artifact_digests
import qndsim
import qndsim.cli as cli
from qndsim import constants, harness

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
TABLE = json.loads(artifact_digests.TABLE.read_text(encoding="utf-8"))
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
    assert cli._version("scipy") == cli._VERSIONS["scipy"] == scipy.__version__


def test_numpy_version_is_numpy_own():
    assert cli._version("numpy") == cli._VERSIONS["numpy"] == np.__version__


def test_a_missing_package_is_named(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
    with pytest.raises(ModuleNotFoundError, match="'scipy'") as missing:
        cli._version("scipy")
    assert missing.value.name == "scipy"


# a package's __init__, _version.py and version.py: numpy 2 and scipy write
# version.py as plain assignments; numpy before 2.0 builds it with
# versioneer, and its version.py imports the sibling _version and with it
# the package
LAYOUTS = {
    "plain": ("raise ImportError('the package ran')\n", None,
              'version = "2.4.6"\n__version__ = version\n'),
    "versioneer": ("RAN = True\n",
                   "def get_versions():\n    return {'version': '1.24.4'}\n",
                   "from __future__ import annotations\n\n"
                   "from ._version import get_versions\n\n"
                   "vinfo: dict[str, str] = get_versions()\n"
                   "version = vinfo['version']\n"
                   "__version__ = vinfo.get('closest-tag', vinfo['version'])\n"
                   "del get_versions, vinfo\n"),
}


@pytest.mark.parametrize("layout, version", [("plain", "2.4.6"), ("versioneer", "1.24.4")])
def test_version_is_read_from_either_layout(tmp_path, monkeypatch, layout, version):
    name = f"qndsim_{layout}_layout"
    (tmp_path / name).mkdir()
    for file, text in zip(("__init__.py", "_version.py", "version.py"), LAYOUTS[layout]):
        if text is not None:
            (tmp_path / name / file).write_text(text, encoding="utf-8")
    monkeypatch.syspath_prepend(tmp_path)
    try:
        assert cli._version(name) == version
        # only the versioneer layout runs the package
        assert (name in sys.modules) == (layout == "versioneer")
        assert layout == "plain" or sys.modules[name].RAN
    finally:
        for module in (name, f"{name}._version"):
            sys.modules.pop(module, None)


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


# a fresh interpreter runs cli.main on its arguments, imports one module, or
# runs a demo script as __main__, and reports which modules of UNUSED, or of
# qndsim, ended up loaded
LOADED = "sorted(m for m in sys.modules if m in {!r} or m.startswith({!r}))".format(
    UNUSED, tuple(f"{p}." for p in UNUSED))
OWN = "sorted(m for m in sys.modules if m.partition('.')[0] == 'qndsim')"


def probe(body: str, loaded: str = LOADED) -> str:
    return f"import json, sys\n{body}\nprint(json.dumps([code, {loaded}]))\n"


MAIN = "from qndsim import cli\ncode = cli.main(sys.argv[1:])"
PROBE = probe(MAIN)
IMPORT_PROBE = probe("import {}\ncode = 0")
DEMO_PROBE = probe("import runpy\nrunpy.run_path(sys.argv[1], run_name='__main__')\ncode = 0")

# the qndsim modules of `import qndsim.cli`, and those each bundled config's
# run imports beyond them
CORE = ["qndsim", "qndsim.cli", "qndsim.constants", "qndsim.errors"]
MODEL_MODULES = {
    "cavity_spectrum.json": ["cavity"],
    "trap_map.json": ["trap"],
    "noise_sweep.json": ["heterodyne"],
    "scattering_sweep.json": ["atoms"],
    "squeezing.json": ["atoms"],
    "rabi.json": ["atoms", "harness", "heterodyne"],
    "spin_echo.json": ["atoms", "harness", "heterodyne"],
}


def fresh(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter run on ``args``, with this package importable."""
    src = str(Path(qndsim.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def loaded_after(probe: str, *args) -> list[str]:
    proc = fresh("-c", probe, *args)
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
    assert loaded_after(PROBE, "run", CONFIG_DIR / config, "--out", tmp_path) == numpy_alone


def test_detection_budget_demo_loads_no_heavy_scipy(numpy_alone):
    demo = Path(__file__).parents[1] / "demos" / "detection_budget.py"
    assert loaded_after(DEMO_PROBE, demo) == numpy_alone


# the installed numpy/version.py imports numpy where it is a versioneer build
NUMPY_VERSION_PY = Path(importlib.util.find_spec("numpy").origin).with_name("version.py")
versioneer_numpy = any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in
                       ast.walk(ast.parse(NUMPY_VERSION_PY.read_bytes())))
numpy_free = pytest.mark.skipif(
    versioneer_numpy, reason=f"{NUMPY_VERSION_PY} imports numpy to give its version")
NUMPY = "sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy')"
SET_UP_FREE = ["cavity_spectrum.json", "trap_map.json", "scattering_sweep.json",
               "squeezing.json"]
# the noise sweep's set-up builds its probe and detector, records of math alone
NUMPY_FREE_VALIDATION = SET_UP_FREE + ["noise_sweep.json"]


@numpy_free
def test_importing_the_cli_loads_no_numpy():
    assert loaded_after(probe("import qndsim.cli\ncode = 0", NUMPY)) == []


@numpy_free
@pytest.mark.parametrize("argv", [["list-scenarios"],
                                  *(["validate", CONFIG_DIR / c] for c in NUMPY_FREE_VALIDATION)],
                         ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_commands_without_arrays_load_no_numpy(argv):
    assert loaded_after(probe(MAIN, NUMPY), *argv) == []


# `cavity` is math and cmath, the squeezing estimate is math, and a sweep of
# at most cli.SCALAR_SWEEP_POINTS points is evaluated point by point with math
MATH_RUNS = ["cavity_spectrum.json", "squeezing.json", "noise_sweep.json",
             "scattering_sweep.json"]


@numpy_free
@pytest.mark.parametrize("config", MATH_RUNS)
def test_cavity_spectrum_run_loads_no_numpy(tmp_path, config):
    assert loaded_after(probe(MAIN, NUMPY), "run", CONFIG_DIR / config,
                        "--out", tmp_path) == []


# the model records are built without generated code, so a command that
# computes with math alone loads neither dataclasses nor inspect
CODEGEN = "sorted(m for m in sys.modules if m in ('dataclasses', 'inspect'))"
HELP = ("from qndsim import cli\ntry:\n    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exit:\n    code = exit.code")


@numpy_free
def test_importing_the_cli_loads_no_code_generation():
    assert loaded_after(probe("import qndsim.cli\ncode = 0", CODEGEN)) == []


@numpy_free
def test_help_loads_no_code_generation():
    assert loaded_after(probe(HELP, CODEGEN), "--help") == []


@numpy_free
@pytest.mark.parametrize("argv", [["list-scenarios"],
                                  *(["validate", CONFIG_DIR / c] for c in NUMPY_FREE_VALIDATION)],
                         ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_commands_without_arrays_load_no_code_generation(argv):
    assert loaded_after(probe(MAIN, CODEGEN), *argv) == []


@numpy_free
@pytest.mark.parametrize("config", MATH_RUNS)
def test_math_runs_load_no_code_generation(tmp_path, config):
    assert loaded_after(probe(MAIN, CODEGEN), "run", CONFIG_DIR / config,
                        "--out", tmp_path) == []


def test_importing_atoms_loads_no_numpy():
    # no version is read, so this holds where numpy/version.py imports numpy too
    assert loaded_after(probe("import qndsim.atoms\ncode = 0", NUMPY)) == []


def test_importing_heterodyne_loads_no_numpy():
    assert loaded_after(probe("import qndsim.heterodyne\ncode = 0", NUMPY)) == []


# the runs that build arrays: a sweep does past cli.SCALAR_SWEEP_POINTS points
ARRAY_RUNS = {**dict.fromkeys(set(MODEL_MODULES) - set(MATH_RUNS), ()),
              **dict.fromkeys(["noise_sweep.json", "scattering_sweep.json"],
                              ("--set", f"sweep.points={cli.SCALAR_SWEEP_POINTS + 1}"))}


@pytest.mark.parametrize("config", sorted(ARRAY_RUNS))
def test_array_runs_load_numpy(tmp_path, config):
    assert "numpy" in loaded_after(probe(MAIN, NUMPY), "run", CONFIG_DIR / config,
                                   *ARRAY_RUNS[config], "--out", tmp_path)


# OpenSSL's _hashlib, which `import hashlib` loads, serves only the manifest
HASHLIB = "sorted(m for m in sys.modules if m in ('hashlib', '_hashlib'))"


# (a numpy release may load it with numpy.random: the commands load no numpy)
@numpy_free
@pytest.mark.parametrize("argv", [["list-scenarios"], ["--help"],
                                  *(["validate", CONFIG_DIR / c] for c in NUMPY_FREE_VALIDATION)],
                         ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_commands_without_a_manifest_load_no_hashlib(argv):
    assert loaded_after(probe(HELP, HASHLIB), *argv) == []


def test_a_run_loads_hashlib_for_its_manifest(tmp_path):
    assert "hashlib" in loaded_after(probe(MAIN, HASHLIB), "run", CONFIG_DIR / "squeezing.json",
                                     "--out", tmp_path)


# each array function of `atoms`, the validation of EnsembleState, and the
# scattering rate at a scalar and at an array detuning. Run first in a fresh
# interpreter, the first call imports numpy; the inputs built with numpy come
# after those calls
ARRAY_CALLS = """from qndsim.atoms import (EnsembleState, ProbeTuning, RabiModel,
    broken_invariants, expm, generators, scattering_rate, sideband_photon_rate,
    state_vector)
tuning = ProbeTuning()
results = {"sideband_photon_rate": sideband_photon_rate(tuning)}
results["generators"] = gens = generators(
    [(RabiModel(), 0.0), (RabiModel(detuning=250.0), 1.3)], tuning, 0.1)
results["expm"] = steps = expm(gens * 1e-3)
results["all_lower"] = state = EnsembleState.all_lower(1e6, cloud_rms=1e-3)
results["state_vector"] = vector = state_vector(state)
results["scattering_rate"] = scattering_rate(tuning)
import numpy as np
vs = steps @ vector
results["broken_invariants"] = broken_invariants(np.concatenate([vs, 2 * vs]), 1e6)
results["scattering_rate[array]"] = scattering_rate(
    ProbeTuning(sideband_detuning=np.linspace(-20.0, 20.0, 41)))
"""


def bits(value):
    """The type of value and of each number in it, with the numbers' bytes."""
    if isinstance(value, constants.Record):
        return type(value).__name__, [bits(getattr(value, name)) for name in value._fields]
    array = np.asarray(value)
    return type(value).__name__, array.dtype.str, array.shape, array.tobytes()


def test_atoms_imported_first_computes_the_same_bits():
    body = ("import qndsim.atoms\nimport pickle, sys\n" + ARRAY_CALLS
            + "sys.stdout.write(pickle.dumps(results).hex())\n")
    proc = fresh("-c", body)
    assert proc.returncode == 0, proc.stderr
    cold = pickle.loads(bytes.fromhex(proc.stdout))
    warm = {}
    exec(ARRAY_CALLS, warm)
    assert {k: bits(v) for k, v in cold.items()} == {
        k: bits(v) for k, v in warm["results"].items()}
    assert warm["results"]["broken_invariants"].tolist() == [False, False, True, True]
    # as sideband_photon_rate's docstring says of a float detuning
    assert type(cold["sideband_photon_rate"]) is float
    assert type(cold["scattering_rate"]) is float


def test_importing_the_cli_loads_only_the_core_modules():
    assert loaded_after(probe("import qndsim.cli\ncode = 0", OWN)) == CORE


@pytest.mark.parametrize("config", sorted(MODEL_MODULES))
def test_each_config_loads_only_its_model_modules(tmp_path, config):
    want = sorted(CORE + [f"qndsim.{m}" for m in MODEL_MODULES[config]])
    assert loaded_after(probe(MAIN, OWN),
                        "run", CONFIG_DIR / config, "--out", tmp_path) == want


@pytest.mark.parametrize("config", SET_UP_FREE)
def test_validating_a_config_without_set_up_loads_no_model_module(config):
    assert loaded_after(probe(MAIN, OWN),
                        "validate", CONFIG_DIR / config) == CORE


def test_bare_package_import_still_resolves_every_module():
    # a bare import loads no module of the package; the first access to one
    # imports it, and a star import brings in every name of __all__
    body = """import qndsim
bare = sorted(m for m in sys.modules if m.startswith('qndsim.'))
run_scan = qndsim.harness.run_scan.__module__
star = {}
exec('from qndsim import *', star)
resolved = sorted(n for n in qndsim.__all__ if star[n].__name__ == f'qndsim.{n}')
code = 0"""
    bare, run_scan, resolved = loaded_after(probe(body, "[bare, run_scan, resolved]"))
    assert bare == [] and run_scan == "qndsim.harness"
    assert resolved == sorted(qndsim.__all__)


def test_an_overflow_in_a_run_is_no_warning(tmp_path):
    # the detuning's square overflows to inf in the scattering rate on the
    # way to finite rows: past cli.SCALAR_SWEEP_POINTS points float_power's,
    # which main quiets, so -W error does not turn it into exit 1, and at the
    # bundled size the scalar square, which gives inf as numpy does
    for points in (96, cli.SCALAR_SWEEP_POINTS + 1):
        proc = fresh("-W", "error", "-m", "qndsim.cli", "run",
                     CONFIG_DIR / "scattering_sweep.json",
                     "--set", "sweep.detuning_max_linewidths=1e200",
                     "--set", f"sweep.points={points}", "--out", tmp_path / str(points))
        assert (proc.returncode, proc.stderr) == (0, ""), points


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


# `cli.main` registers gc.freeze with atexit, so a command's process ends
# without the final collections walking the heap it loaded. A checker
# registered before main runs after the hook (atexit is last in, first
# out) and prints how often gc.freeze ran and how many objects it froze.
AT_EXIT = """import atexit, gc
freeze, calls = gc.freeze, []
gc.freeze = lambda: (calls.append(None), freeze())
atexit.register(lambda: print(json.dumps([len(calls), gc.get_freeze_count()])))
"""
TWICE = "from qndsim import cli\ncode = max(cli.main(sys.argv[1:]) for _ in range(2))"


def at_exit(body: str, *args) -> list:
    proc = fresh("-c", probe(AT_EXIT + body, "None"), *args)
    assert proc.returncode == 0, proc.stderr
    (code, _), frozen = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    assert code == 0
    return frozen


def test_main_freezes_the_heap_once_at_exit():
    calls, count = at_exit(TWICE, "list-scenarios")
    assert calls == 1 and count > 0


def test_the_exit_hook_is_gc_freeze_itself():
    # so a program embedding main can take it off with one unregister
    assert at_exit(TWICE + "\natexit.unregister(gc.freeze)", "list-scenarios") == [0, 0]


def test_importing_the_cli_registers_no_exit_hook():
    assert at_exit("import qndsim.cli\ncode = 0") == [0, 0]


# no collection runs at exit to close a file a run left open, and buffered
# bytes of such a file would be lost: after main returns, the only open files
# are the standard streams and the buffers and raw files beneath them (under
# -u or PYTHONUNBUFFERED, stdout's buffer is its raw file)
STREAMS = """import gc, io
def layers(f):
    while f is not None:
        yield f
        f = getattr(f, "buffer", getattr(f, "raw", None))
std = [s for f in (sys.stdin, sys.stdout, sys.stderr) for s in layers(f)]
"""
OPEN = ("sorted(repr(o) for o in gc.get_objects() if isinstance(o, io.IOBase)"
        " and not o.closed and not any(o is s for s in std))")


@pytest.mark.parametrize("config", sorted(MODEL_MODULES))
def test_a_run_leaves_no_file_open(tmp_path, config):
    assert loaded_after(probe(STREAMS + MAIN, OPEN),
                        "run", CONFIG_DIR / config, "--out", tmp_path) == []


# the digest table is made in process; a cold `python -m qndsim.cli run` of
# each bundled config, which exits frozen, writes the same bytes
@pytest.mark.skipif(TABLE["versions"] != artifact_digests.versions(),
                    reason=f"digests recorded with {TABLE['versions']}, "
                           f"running {artifact_digests.versions()}")
@pytest.mark.parametrize("config", sorted(MODEL_MODULES))
def test_a_cold_run_writes_the_pinned_bytes(tmp_path, config):
    out = tmp_path / "out"
    proc = fresh("-m", "qndsim.cli", "run", CONFIG_DIR / config, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(out / "manifest.json")
    assert artifact_digests.hashes(out) == TABLE["runs"][Path(config).stem]
