"""Config resolution: non-finite input, canonical hashing, scenario lists."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qndsim
import qndsim.cli as cli
from qndsim.cli import (BOOL, FIELDS, INTEGER, NUMBER_LIST, REQUIRED,
                        config_hash, main, validate_config)

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
BUNDLED = sorted(CONFIG_DIR.glob("*.json"))


def bundled(stem):
    return json.loads((CONFIG_DIR / f"{stem}.json").read_text())


def fields_of(cfg):
    return FIELDS[cfg["scenario"]]


def write_text(tmp_path, text, name="cfg.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------- non-finite input

@pytest.mark.parametrize("text, path", [
    ('{"schema_version": 1, "scenario": "cavity-spectrum",'
     ' "cavity": {"fsr_mhz": NaN}}', "cavity.fsr_mhz"),
    ('{"schema_version": 1, "scenario": "squeezing",'
     ' "squeezing": {"atom_number": Infinity}}', "squeezing.atom_number"),
    ('{"schema_version": 1, "scenario": "squeezing",'
     ' "squeezing": {"atom_number": 1e400}}', "squeezing.atom_number"),
    ('{"schema_version": 1, "scenario": "squeezing",'
     ' "description": -Infinity, "squeezing": {}}', "description"),
])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, text,
                                                  path):
    cfg = write_text(tmp_path, text)
    out = tmp_path / "art"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert f"{path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_set_value_is_config_error(tmp_path, capsys, token):
    cfg = str(CONFIG_DIR / "cavity_spectrum.json")
    out = tmp_path / "art"
    assert main(["run", cfg, "--out", str(out),
                 "--set", f"cavity.fsr_mhz={token}"]) == 2
    assert "cavity.fsr_mhz: must be a finite number" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stem, override", [
    ("cavity_spectrum", "cavity.fsr_mhz=1e-308"),
    ("noise_sweep", "detector.buffer_gain=1e308"),
])
def test_non_finite_result_exits_three(tmp_path, capsys, stem, override):
    # finite inputs whose results overflow: the writers refuse them, so no
    # run ends with exit 0 and a NaN or infinity in an artifact
    out = tmp_path / "art"
    assert main(["run", str(CONFIG_DIR / f"{stem}.json"), "--out", str(out),
                 "--set", override]) == 3
    assert "non-finite value" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# ------------------------------------------------------- validate never fails

@pytest.mark.parametrize("override", [
    "ensemble.cloud_rms_um=1e308",
])
def test_regime_check_arithmetic_failure_is_diagnostic(capsys, override):
    cfg = str(CONFIG_DIR / "rabi.json")
    assert main(["validate", cfg, "--set", override]) == 2
    assert "probe_gate: regime checks cannot be evaluated" in \
        capsys.readouterr().err


@pytest.mark.parametrize("override, line", [
    ("probe_gate.carrier_power_uw=5e-324", "probe_gate.carrier_power_uw: carrier power "
                                           "must be positive when the sideband carries power"),
    ("probe_gate.waist_um=5e-324", "probe_gate.waist_um: waist must be positive"),
])
def test_power_or_waist_underflowing_to_zero_names_its_field(capsys, override, line):
    # inside the field's bound, its SI value underflows to 0.0: the set-up's
    # zero test sees that zero, and its error names the field
    cfg = str(CONFIG_DIR / "rabi.json")
    assert main(["validate", cfg, "--set", override]) == 2
    assert f"  {line}\n" in capsys.readouterr().err


JSON_SCALARS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "rabi", "1.0", "NaN", "true"]),
)
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=4))
TABLE_FIELDS = [(path.stem, row.section, row.key)
                for path in BUNDLED
                for row in fields_of(json.loads(path.read_text()))]


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


@settings(max_examples=300, derandomize=True, deadline=None,
          database=None)
@given(field=st.sampled_from(TABLE_FIELDS), value=JSON_VALUES)
def test_validate_exits_zero_or_two_for_any_field_value(cfg_path, field,
                                                        value):
    stem, section, key = field
    cfg = bundled(stem)
    cfg.setdefault(section, {})[key] = value
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["validate", str(cfg_path)]) in (0, 2)


# ------------------------------------------------------------ config hash

def test_hash_ignores_spelling_of_the_same_config():
    # a default written out, an integral number written as an integer, a
    # scenario written as a one-element list: the same resolved config
    for path in BUNDLED:
        base = json.loads(path.read_text())
        h0 = config_hash(base)
        spelled = json.loads(json.dumps(base))
        spelled["scenario"] = [base["scenario"]]
        for row in fields_of(base):
            sec = spelled.setdefault(row.section, {})
            value = sec.get(row.key, row.default)
            if row.key not in sec and row.default != REQUIRED:
                sec[row.key] = (list(value) if isinstance(value, tuple)
                                else value)
            elif isinstance(value, float) and value.is_integer() \
                    and abs(value) < 2**53:
                sec[row.key] = int(value)
        assert config_hash(spelled) == h0, path.name


@settings(max_examples=60, derandomize=True, deadline=None,
          database=None)
@given(data=st.data())
def test_hash_invariant_under_order_defaults_and_annotations(data):
    path = data.draw(st.sampled_from(BUNDLED))
    base = json.loads(path.read_text())
    cfg = json.loads(json.dumps(base))
    for row in fields_of(base):
        sec = cfg.get(row.section)
        if (isinstance(sec, dict) and sec.get(row.key) == row.default
                and data.draw(st.booleans())):
            del sec[row.key]      # an omitted default
    for key, value in (("seed", st.integers(min_value=0)),
                       ("out_dir", st.sampled_from(["", "a/b", "art"])),
                       ("description", st.sampled_from(["", "reworded"]))):
        if data.draw(st.booleans()):
            cfg[key] = data.draw(value)
    items = data.draw(st.permutations(list(cfg.items())))
    shuffled = {k: (dict(data.draw(st.permutations(list(v.items()))))
                    if isinstance(v, dict) else v) for k, v in items}
    assert config_hash(shuffled) == config_hash(base)


def _changed(row, value):
    if row.kind == BOOL:
        return not value
    if row.kind == INTEGER:
        return value + 1
    if row.kind == NUMBER_LIST:
        return list(value) + [1.0]
    if value is None:
        return 1.0
    return value * (1 + 2**-20) if value else 2**-20


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_hash_changes_with_every_table_field(path):
    base = json.loads(path.read_text())
    h0 = config_hash(base)
    for row in fields_of(base):
        cfg = json.loads(path.read_text())
        sec = cfg.setdefault(row.section, {})
        sec[row.key] = _changed(row, sec.get(row.key, row.default))
        assert validate_config(cfg) == [], (row, validate_config(cfg))
        assert config_hash(cfg) != h0, row


def test_run_and_validate_resolve_the_config_once(monkeypatch, tmp_path, capsys):
    # the run hashes the resolved config it runs, not a second resolution
    path = str(CONFIG_DIR / "squeezing.json")
    want = config_hash(bundled("squeezing"))
    calls, resolve = [], cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda cfg: calls.append(cfg) or resolve(cfg))
    assert main(["validate", path]) == 0
    assert len(calls) == 1
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    assert len(calls) == 2
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config_sha256"] == want


def test_one_parser_serves_every_call_and_no_argument_carries_over(monkeypatch, tmp_path):
    # the parser is built once per process; a plain run after runs with
    # overrides and a rejected command line is the run of a fresh process
    path = str(CONFIG_DIR / "rabi.json")
    parser = cli._parser()
    assert main(["run", path, "--set", "drive.detuning_hz=500", "--seed", "7",
                 "--out", str(tmp_path / "overridden")]) == 0
    with pytest.raises(SystemExit) as rejected:
        main(["run", path, "--set", "drive.detuning_hz=250", "--seed", "seven"])
    assert rejected.value.code == 2
    assert main(["validate", path]) == 0
    assert main(["list-scenarios"]) == 0
    for name in ("plain", "fresh"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "plain")
    assert main(["run", path]) == 0
    assert cli._parser() is parser
    src = str(Path(qndsim.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-m", "qndsim.cli", "run", path], cwd=tmp_path / "fresh",
                   env=env, check=True, capture_output=True, timeout=120)
    plain, fresh = tmp_path / "plain" / "artifacts", tmp_path / "fresh" / "artifacts"
    manifest = json.loads((plain / "manifest.json").read_text())
    assert manifest["seed"] == bundled("rabi")["seed"]
    assert manifest["config_sha256"] == config_hash(bundled("rabi"))
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in plain.iterdir()) == names
    assert all((plain / name).read_bytes() == (fresh / name).read_bytes() for name in names)


# ------------------------------------------------------------ scenario lists

def test_noise_and_scattering_sweeps_share_the_sweep_section(tmp_path):
    noise, scat = bundled("noise_sweep"), bundled("scattering_sweep")
    cfg = {**noise, **scat,
           "scenario": ["noise-sweep", "scattering-sweep"],
           "sweep": {**noise["sweep"], **scat["sweep"]}}
    del cfg["sweep"]["points"]      # each sweep keeps its own default
    out = tmp_path / "art"
    assert main(["run", write_text(tmp_path, json.dumps(cfg)),
                 "--out", str(out)]) == 0
    noise_rows = (out / "noise_sweep.csv").read_text().splitlines()
    scat_rows = (out / "scattering_sweep.csv").read_text().splitlines()
    assert len(noise_rows) == 1 + 41 and len(scat_rows) == 1 + 96
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["noise_sweep.csv", "noise_rejection.json",
                                     "scattering_sweep.csv"]


def test_repeated_scenario_is_config_error(tmp_path, capsys):
    cfg = bundled("rabi")
    cfg["scenario"] = ["rabi", "rabi"]
    out = tmp_path / "art"
    assert main(["run", write_text(tmp_path, json.dumps(cfg)),
                 "--out", str(out)]) == 2
    assert "scenario: 'rabi' is listed more than once" in \
        capsys.readouterr().err
    assert not out.exists()


def test_null_section_is_config_error(tmp_path, capsys):
    cfg = bundled("trap_map")
    cfg["trap"] = None
    assert main(["validate", write_text(tmp_path, json.dumps(cfg))]) == 2
    assert "trap: must be a JSON object" in capsys.readouterr().err
