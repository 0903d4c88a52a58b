"""Every statement of src/qndsim has a user.

One fresh interpreter runs the package's users under `sys.settrace`:
`validate` and `run` of every bundled config, the demos, and the contract
tests tests/test_acceptance.py and tests/test_cli.py. A statement of
src/qndsim that none of them reaches fails the check unless it is an error
path or ALLOWLIST holds it, keyed by (module, qualname, stripped first line)
and naming the test that reaches it. An entry fails the check too once its
statement is reached or gone.

A statement is reached when any line of its span that has code (is in
`co_lines` of the compiled module) ran; a compound statement is judged by
its header alone. Python 3.10 and 3.11 give the continuation lines of a
statement different code, so a line-by-line count would differ between them.

Error paths are exempt: a `raise` statement, an `except` body, the body of
an `if`, `for`, `while` or `with` block that ends in `raise`, and such a
block of cli that calls `complain`. A function body that ends in `raise`
is not an error path.

Standard library only: the tracer is `sys.settrace`, not `coverage`.
"""
import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path
from typing import NamedTuple

import pytest

import qndsim

PACKAGE = Path(qndsim.__file__).parent
ROOT = PACKAGE.parents[1]

COLD = "tests/test_cold_start.py::"
WALK = "tests/test_walk.py::"
# the array path of a sweep longer than cli.SCALAR_SWEEP_POINTS
LONG_NOISE = "tests/test_sweeps.py::test_noise_sweep_rows_equal_scalar_signals"
LONG_SCATTERING = "tests/test_sweeps.py::test_scattering_sweep_rows_equal_scalar_rate"
LONG_FIT = ("tests/test_cli_spin_engine.py::"
            "test_a_fit_over_a_long_window_finds_the_drive_or_says_it_diverged")
ALLOWLIST = {
    ("__init__", "__getattr__", "import importlib"):
        COLD + "test_bare_package_import_still_resolves_every_module",
    ("__init__", "__getattr__", 'return importlib.import_module(f"{__name__}.{name}")'):
        COLD + "test_bare_package_import_still_resolves_every_module",
    ("atoms", "_square", "import numpy as np"): LONG_SCATTERING,
    ("atoms", "_square", "return np.float_power(x, 2)"): LONG_SCATTERING,
    ("atoms", "expm", "r[s > k] = r[s > k] @ r[s > k]"):
        "tests/test_kernels.py::test_expm_matches_scipy_or_beats_it",
    ("cavity", "_solve_axis", "q = ((a - d) - disc) / (2.0 * c)"):
        "tests/test_cavity.py::test_stability_sweep_never_returns_bad_mode",
    ("cli", "", "sys.exit(main())"):
        COLD + "test_an_overflow_in_a_run_is_no_warning",
    ("cli", "_mirror_cells", "import numpy as np"): LONG_NOISE,
    ("cli", "_mirror_cells", "bits = front[:back.size].view(np.int64) ^ back.view(np.int64)"):
        LONG_NOISE,
    ("cli", "_mirror_cells",
     "flipped = ((bits == np.iinfo(np.int64).min) & ~np.isnan(back)).tolist()"): LONG_NOISE,
    ("cli", "_mirror_cells", "cells = list(map(repr, front.tolist()))"): LONG_NOISE,
    ("cli", "_mirror_cells",
     'mirrored = [(s[1:] if s[0] == "-" else "-" + s) if flip else repr(x)'): LONG_NOISE,
    ("cli", "_mirror_cells", "return cells, mirrored[::-1]"): LONG_NOISE,
    ("cli", "_scattering_sweep", "import numpy as np"): LONG_SCATTERING,
    ("cli", "_scattering_sweep", "delta = np.linspace(lo, hi, n)"): LONG_SCATTERING,
    ("constants", "Record.__eq__", "return self._values() == other._values() "
                                   "if other.__class__ is self.__class__ \\"):
        "tests/test_records.py::test_equality_and_hash_go_by_the_fields",
    ("constants", "Record.__hash__", "return hash(self._values())"):
        "tests/test_records.py::test_equality_and_hash_go_by_the_fields",
    ("harness", "_walk", "off.append((k, t_now))"):
        WALK + "test_periods_near_the_clock_tolerance_match_reference",
    ("harness", "_walk", "times[i] = t"):
        WALK + "test_periods_near_the_clock_tolerance_match_reference",
    ("harness", "_walk", "i, row = bad[0]"):
        WALK + "test_a_wrong_generator_sign_trips_the_invariant_check",
    ("harness", "_walk", "try:"):
        WALK + "test_a_wrong_generator_sign_trips_the_invariant_check",
    ("harness", "_walk", "with_vector(initial, trajectory[row, i])"):
        WALK + "test_a_wrong_generator_sign_trips_the_invariant_check",
    ("harness", "run_scan",
     "for i, delta in enumerate(detunings if len(detunings) > 1 else ()):"):
        WALK + "test_scan_raises_the_first_failing_trace_error",
    ("harness", "run_scan",
     "_walk(seq, [delta], seed + i, initial, probe, det, template, noiseless)"):
        WALK + "test_scan_raises_the_first_failing_trace_error",
    ("harness", "curve_fit", "q = g / np.maximum(sv2 + lam, tiny)"):
        LONG_FIT,
    ("harness", "curve_fit", "lam += qn**2 / (q * q / np.maximum(sv2 + lam, tiny)).sum() "
                             "* (qn - delta) / delta"):
        LONG_FIT,
    ("harness", "fit_damped_sine", "beta0 = 0.0"):
        "tests/test_harness.py::test_a_chunk_on_the_trend_line_starts_the_fit_undamped",
    ("harness", "fit_damped_sine", "popt[0] = -popt[0]"):
        "tests/test_harness.py::test_damped_sine_sign_canonicalization",
    ("harness", "fit_damped_sine", "popt[3] += math.pi"):
        "tests/test_harness.py::test_damped_sine_sign_canonicalization",
    ("harness", "fit_damped_sine", "popt[2] = -popt[2]"):
        "tests/test_harness.py::test_damped_sine_sign_canonicalization",
    ("harness", "fit_damped_sine", "popt[3] = -popt[3]"):
        "tests/test_harness.py::test_damped_sine_sign_canonicalization",
    ("heterodyne", "sample_noisy_signal", "return ideal"):
        "tests/test_heterodyne.py::test_sample_noisy_signal_zero_noise_limit",
    ("trap", "arm_intensity", "k = 2.0 * math.pi / config.wavelength"):
        "tests/test_trap.py::test_backscatter_modulation_factor",
    ("trap", "arm_intensity", "intensity = intensity * (1.0 + config.backscatter_depth "
                              "* np.cos(2.0 * k * u))"):
        "tests/test_trap.py::test_backscatter_modulation_factor",
    ("trap", "trap_frequencies", "k = 2.0 * math.pi / config.wavelength"):
        "tests/test_sweeps.py::test_trap_map_rows_equal_scalar_potential",
    ("trap", "trap_frequencies", "axial += 4.0 * k**2 * config.backscatter_depth"):
        "tests/test_sweeps.py::test_trap_map_rows_equal_scalar_potential",
}

# Runs in a fresh interpreter: argv is the directory holding qndsim, the
# repository root and the JSON file to write {module file: lines that ran}.
DRIVER = r'''
import contextlib, io, json, os, runpy, sys, tempfile
from pathlib import Path

src, root, out = sys.argv[1:4]
prefix = os.path.join(src, "qndsim", "")
ran = {}


def line(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return line


def call(frame, event, arg):
    name = frame.f_code.co_filename
    if name.startswith(prefix):
        ran.setdefault(name, set())
        return line
    return None


sys.settrace(call)
import pytest
from qndsim.cli import main

configs = sorted(Path(prefix, "configs").glob("*.json"))
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    codes = [main([command, str(config), *(["--out", os.path.join(tmp, config.stem)]
                                           if command == "run" else [])])
             for config in configs for command in ("validate", "run")]
    for demo in sorted(Path(root, "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    codes.append(int(pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", root,
                                  os.path.join(root, "tests", "test_acceptance.py"),
                                  os.path.join(root, "tests", "test_cli.py")])))
sys.settrace(None)
Path(out).write_text(json.dumps({"codes": codes, "ran": {
    os.path.relpath(name, prefix): sorted(lines) for name, lines in ran.items()}}))
'''


class Statement(NamedTuple):
    key: tuple          # (module, qualname, stripped first line)
    lines: frozenset    # the lines of its span, or of its header, that have code
    exempt: bool        # an error path


def _code_lines(code: types.CodeType) -> set:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _calls_complain(node: ast.stmt) -> bool:
    value = getattr(node, "value", None) if isinstance(node, (ast.Expr, ast.Return)) else None
    return isinstance(value, ast.Call) and getattr(value.func, "id", None) == "complain"


def _error_block(owner: ast.stmt, block: list, module: str) -> bool:
    if not block or not isinstance(owner, (ast.If, ast.For, ast.While, ast.With)):
        return False
    return isinstance(block[-1], ast.Raise) or (
        module == "cli" and any(map(_calls_complain, block)))


def statements(path: Path):
    """Every statement of one module of the package."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    code = _code_lines(compile(source, str(path), "exec"))
    module = path.stem

    def walk(body: list, qualname: str, exempt: bool):
        for node in body:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
            span = code.intersection(range(first, max(first, last) + 1))
            yield Statement((module, qualname, text[node.lineno - 1].strip()), frozenset(span),
                            exempt or isinstance(node, ast.Raise))
            inner = qualname
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{qualname}.{node.name}" if qualname else node.name
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, [])
                yield from walk(block, inner, exempt or _error_block(node, block, module))
            for handler in getattr(node, "handlers", ()):
                yield from walk(handler.body, inner, True)

    yield from walk(ast.parse(source).body, "", False)


def audit(ran: dict, allowlist: dict) -> tuple[list, list]:
    """Unreached statements the allowlist lacks, and its stale entries, each
    with why it is stale, for the lines ``ran[module file]`` that ran."""
    unreached, reached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        done = set(ran.get(path.name, ()))
        for st in statements(path):
            if st.lines and not st.exempt:
                (reached if st.lines & done else unreached).add(st.key)
    stale = [(key, "reached" if key in reached else "gone")
             for key in allowlist if key not in unreached]
    return sorted(unreached - allowlist.keys()), stale


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    out = tmp_path_factory.mktemp("reach") / "ran.json"
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", DRIVER, src, str(ROOT), str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["codes"] == [0] * len(result["codes"]), done.stdout
    return result["ran"]


def test_every_statement_of_the_package_has_a_user(ran):
    unlisted, stale = audit(ran, ALLOWLIST)
    assert not unlisted, "unreached by any user:\n" + "\n".join(map(repr, unlisted))
    assert not stale, "stale allowlist entries:\n" + "\n".join(map(repr, stale))


def test_every_allowlist_entry_names_a_test():
    for test in set(ALLOWLIST.values()):
        path, _, name = test.partition("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test


def test_a_stale_allowlist_entry_fails_the_check(ran):
    # an entry whose statement a user reaches, and one whose line is gone
    key = next(st.key for st in statements(PACKAGE / "cli.py")
               if st.key[1] == "main" and st.lines and not st.exempt)
    gone = ("atoms", "EnsembleState.css_x",
            "return cls(atom_number, jx=atom_number / 2, **kwargs)")
    allowlist = {**ALLOWLIST, key: "a user", gone: "no test"}
    assert audit(ran, allowlist) == ([], [(key, "reached"), (gone, "gone")])
