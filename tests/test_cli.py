"""CLI behavior: config ingestion, validation diagnostics, artifacts."""
import json
from pathlib import Path

import pytest

import qndsim
from qndsim.cli import SCENARIOS, config_hash, main, validate_config

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
BUNDLED = sorted(CONFIG_DIR.glob("*.json"))


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_artifacts(out_dir):
    # manifest last, so it references files that already exist
    manifest = json.loads((out_dir / "manifest.json").read_text())
    blobs = {}
    for name in manifest["artifacts"]:
        blobs[name] = (out_dir / name).read_bytes()
    return manifest, blobs


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(SCENARIOS)
    assert len(BUNDLED) == len(SCENARIOS)


@pytest.mark.parametrize("config", BUNDLED, ids=lambda p: p.stem)
def test_bundled_config_validates(config, capsys):
    assert main(["validate", str(config)]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("config", BUNDLED, ids=lambda p: p.stem)
def test_bundled_config_runs(config, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["run", str(config), "--out", str(out)]) == 0
    manifest, blobs = read_artifacts(out)
    assert manifest["schema_version"] == 1
    assert manifest["seed"] == json.loads(config.read_text()).get("seed", 0)
    assert len(manifest["config_sha256"]) == 64
    assert set(manifest["versions"]) >= {"qndsim", "numpy", "scipy"}
    for name, blob in blobs.items():
        assert blob, name


def test_bundled_cavity_spectrum_matches_mode_spacings(tmp_path):
    # the (1,0) and (0,1) rows of the emitted spectrum are the per-axis
    # mode spacings; the vertical one sits in its measured band
    cfg = str(CONFIG_DIR / "cavity_spectrum.json")
    out = tmp_path / "art"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rows = {}
    for line in (out / "spectrum.csv").read_text().splitlines()[1:]:
        m, n, off = line.split(",")
        rows[(int(m), int(n))] = float(off)
    from qndsim.cavity import CavityGeometry, mode_spacings
    from qndsim.constants import C
    geom = CavityGeometry(round_trip_length=C / 976.2e6)
    sp_h, sp_v = mode_spacings(geom)
    assert rows[(1, 0)] == pytest.approx(sp_h, rel=1e-12, abs=0)
    assert rows[(0, 1)] == pytest.approx(sp_v, rel=1e-12, abs=0)
    assert abs(rows[(0, 1)] - 164.6e6) < 2e6


def test_same_seed_byte_identical(tmp_path):
    cfg = str(CONFIG_DIR / "rabi.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    man1, blobs1 = read_artifacts(out1)
    man2, blobs2 = read_artifacts(out2)
    assert blobs1 == blobs2
    assert man1 == man2


def test_different_seed_same_hash_different_noise(tmp_path):
    cfg = str(CONFIG_DIR / "rabi.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1), "--seed", "5"]) == 0
    assert main(["run", cfg, "--out", str(out2), "--seed", "6"]) == 0
    man1, blobs1 = read_artifacts(out1)
    man2, blobs2 = read_artifacts(out2)
    assert man1["config_sha256"] == man2["config_sha256"]
    assert man1["seed"] == 5 and man2["seed"] == 6
    assert blobs1["rabi_trace.csv"] != blobs2["rabi_trace.csv"]


def test_hash_tracks_semantics_only():
    base = json.loads((CONFIG_DIR / "rabi.json").read_text())
    h0 = config_hash(base)
    for key, value in (("seed", 99), ("out_dir", "elsewhere"),
                       ("description", "reworded")):
        assert config_hash({**base, key: value}) == h0, key
    bumped = json.loads(json.dumps(base))
    bumped["drive"]["detuning_hz"] = 17.0
    assert config_hash(bumped) != h0
    bumped = json.loads(json.dumps(base))
    bumped["probe_gate"]["waist_um"] = 801.0
    assert config_hash(bumped) != h0
    # key order is formatting, not semantics
    reordered = dict(reversed(list(base.items())))
    assert config_hash(reordered) == h0


def test_empty_scenario_list_is_noop(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"schema_version": 1, "scenario": []})
    assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 0
    assert "nothing to run" in capsys.readouterr().out
    assert not (tmp_path / "art").exists()


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "scenario": oops\n}', encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:2:" in err


def test_missing_file_is_config_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_scenario_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"schema_version": 1, "scenario": "warp"})
    assert main(["validate", cfg]) == 2
    err = capsys.readouterr().err
    assert "'warp'" in err and "cavity-spectrum" in err


def test_missing_waist_schema_error_names_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "scenario": "scattering-sweep",
        "tuning": {"carrier_power_uw": 120.0},
        "sweep": {},
    })
    assert main(["validate", cfg]) == 2
    assert "tuning.waist_um" in capsys.readouterr().err


def test_modulation_depth_regime_diagnostic_names_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "scenario": "noise-sweep",
        "probe": {"modulation_depth": 2.0, "beam_waist_um": 245.0},
        "sweep": {"phi_at_rad": 0.1},
    })
    assert main(["validate", cfg]) == 2
    err = capsys.readouterr().err
    assert "probe.modulation_depth" in err
    assert "0.3" in err


def test_large_phase_regime_diagnostic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "scenario": "noise-sweep",
        "probe": {"beam_waist_um": 245.0},
        "sweep": {"phi_at_rad": 1.2},
    })
    assert main(["validate", cfg]) == 2
    assert "sweep.phi_at_rad" in capsys.readouterr().err


def test_predicted_phase_regime_check_without_execution(tmp_path, capsys):
    # enough atoms in a tight beam push the dispersive phase past the
    # small-phase regime; validate must flag it without running anything
    base = json.loads((CONFIG_DIR / "rabi.json").read_text())
    base["ensemble"]["atom_number"] = 5e9
    base["probe_gate"]["waist_um"] = 200.0
    base["probe_gate"]["sideband_power_nw"] = 0.001
    cfg = write_cfg(tmp_path, base)
    assert main(["validate", cfg]) == 2
    err = capsys.readouterr().err
    assert "ensemble.atom_number" in err
    assert "small-phase" in err


def test_unknown_field_flagged(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "scenario": "squeezing",
        "squeezing": {"atom_number": 1e6, "typo_field": 3},
    })
    assert main(["validate", cfg]) == 2
    assert "squeezing.typo_field" in capsys.readouterr().err


def test_wrong_schema_version(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"schema_version": 2, "scenario": []})
    assert main(["validate", cfg]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_unstable_geometry_exits_three(tmp_path, capsys):
    # schema-valid but physically unstable resonator: runtime physics error
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "scenario": "cavity-spectrum",
        "cavity": {"fsr_mhz": 976.2, "mirror_radius_mm": 10.0},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 3
    assert "physics error" in capsys.readouterr().err


def test_set_override_changes_output(tmp_path):
    cfg = str(CONFIG_DIR / "cavity_spectrum.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2),
                 "--set", "cavity.max_transverse_order=2"]) == 0
    n1 = len((out1 / "spectrum.csv").read_text().splitlines())
    n2 = len((out2 / "spectrum.csv").read_text().splitlines())
    assert n1 == 1 + 36 and n2 == 1 + 9
    man1, _ = read_artifacts(out1)
    man2, _ = read_artifacts(out2)
    assert man1["config_sha256"] != man2["config_sha256"]


def test_set_override_is_validated(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "noise_sweep.json")
    assert main(["validate", cfg, "--set",
                 "probe.modulation_depth=0.9"]) == 2
    assert "probe.modulation_depth" in capsys.readouterr().err


def test_set_without_equals_is_config_error(capsys):
    cfg = str(CONFIG_DIR / "noise_sweep.json")
    assert main(["validate", cfg, "--set", "probe.modulation_depth"]) == 2
    assert "expected key.path=value" in capsys.readouterr().err


def test_spin_echo_emits_both_normalizations(tmp_path):
    cfg = str(CONFIG_DIR / "spin_echo.json")
    out = tmp_path / "art"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "spin_echo_amplitudes.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert "normalized_global" in header
    assert "normalized_per_trace" in header
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    by_det = {float(r["detuning_hz"]): float(r["normalized_global"])
              for r in rows}
    assert by_det[0.0] == 1.0
    assert all(0.0 < v <= 1.0 for v in by_det.values())


def test_validate_config_empty_report_for_bundled():
    for path in BUNDLED:
        cfg = json.loads(path.read_text())
        assert validate_config(cfg) == [], path.name
