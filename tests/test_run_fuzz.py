"""`qndsim run` at extreme field values: never an internal error, and never
a non-finite artifact behind exit 0."""
import json
import math
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qndsim
from qndsim.cli import FIELDS, NULLABLE, NUMBER, main

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
STEMS = ("cavity_spectrum", "trap_map", "noise_sweep", "scattering_sweep",
         "squeezing", "rabi", "spin_echo")
SPIN_STEMS = ("rabi", "spin_echo")     # a run walks the spin engine: fewer examples


def reject_constant(token):
    raise ValueError(f"non-finite JSON value {token}")


def run_checked(tmp_path, stem, section, key, value):
    """Exit code of one run with one field set; checks what exit 0 wrote."""
    cfg = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    cfg.setdefault(section, {})[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "art"
    shutil.rmtree(out, ignore_errors=True)
    rc = main(["run", str(path), "--out", str(out)])
    if rc == 0:
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=reject_constant)
        for name in manifest["artifacts"]:
            text = (out / name).read_text()
            if name.endswith(".json"):
                json.loads(text, parse_constant=reject_constant)
                continue
            for row in text.splitlines()[1:]:
                assert all(math.isfinite(float(c)) for c in row.split(",")), \
                    (name, row)
    return rc


# Finite values that pass `validate` but overflow or divide by zero in a
# model's scalar set-up
@pytest.mark.parametrize("stem, field, value", [
    ("trap_map", "trap.waist_par_um", 1e300),
    ("trap_map", "trap.waist_perp_um", 2e-141),
    ("scattering_sweep", "tuning.waist_um", 1e-300),
    ("scattering_sweep", "tuning.waist_um", 1e308),
    ("scattering_sweep", "tuning.modulation_frequency_ghz", 7e267),
    ("noise_sweep", "probe.modulation_frequency_ghz", 1e308),
    ("cavity_spectrum", "cavity.astigmatism_factor", 5e-324),
    ("squeezing", "squeezing.phase_per_atom_rad", 1e300),
])
def test_arithmetic_failure_is_physics_error(tmp_path, capsys, stem, field,
                                             value):
    section, key = field.split(".")
    assert main(["validate", str(CONFIG_DIR / f"{stem}.json"),
                 "--set", f"{field}={value!r}"]) == 0
    assert run_checked(tmp_path, stem, section, key, value) == 3
    err = capsys.readouterr().err
    assert "physics error: DomainError: " in err
    assert ("OverflowError" in err) or ("ZeroDivisionError" in err)
    assert not (tmp_path / "art" / "manifest.json").exists()


FLOAT_FIELDS = [(stem, row.section, row.key)
                for stem in STEMS for row in FIELDS[stem.replace("_", "-")]
                if row.kind in (NUMBER, NULLABLE)]
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324,
                     -5e-324, 1e-300, -1e-300, 0.0, -0.0]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("run-fuzz")


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(field=st.sampled_from([f for f in FLOAT_FIELDS if f[0] not in SPIN_STEMS]),
       value=VALUES)
def test_run_never_exits_one(fuzz_dir, field, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_checked(fuzz_dir, *field, value) in (0, 2, 3)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(field=st.sampled_from([f for f in FLOAT_FIELDS if f[0] in SPIN_STEMS]),
       value=VALUES)
def test_spin_run_never_exits_one(fuzz_dir, field, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_checked(fuzz_dir, *field, value) in (0, 2, 3)


# Finite values that pass `validate` and overflow numpy on the way to a
# failed finiteness check: the check, not a warning, decides the exit code
@pytest.mark.parametrize("stem, field, value", [
    ("rabi", "probe_gate.waist_um", 1e-3),
    ("noise_sweep", "detector.buffer_gain", 1e308),
])
def test_overflow_exits_three_with_warnings_as_errors(tmp_path, capsys, stem, field,
                                                      value):
    section, key = field.split(".")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_checked(tmp_path, stem, section, key, value) == 3
    assert "physics error: " in capsys.readouterr().err
