"""Correctness gate applied to the artifacts of every benchmark op.

An op fails when any of these holds:
  - the exit code is not 0;
  - an artifact the scenario must write is missing;
  - a JSON artifact fails strict parsing (NaN and Infinity rejected);
  - a CSV cell is not a finite number, or a data CSV has the wrong row count;
  - a repeat of the same config and seed gives artifacts that are not
    byte-identical to the first run of that config in this benchmark run;
  - sampled rows differ from the package's public scalar functions by more
    than REL_TOL: trap rows against trap.potential_at, noise rows against
    heterodyne.demodulated_signal (and the two budget laws), scattering
    rows against atoms.scattering_rate;
  - rabi_fit.json carries an "error" key (a diverged fit still exits 0).

The first run of a config gets the full check; a repeat whose bytes match
it inherits that verdict.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Rows are recomputed from the CSV's own rounded coordinates, and a later
# array-native kernel may round differently in the last digit; 1e-9 of the
# column's largest magnitude is far above both and far below any real error.
REL_TOL = 1e-9
SAMPLED_ROWS = 64

ARTIFACTS = {
    "cavity-spectrum": {"spectrum.csv": None, "mode.json": None},
    "trap-map": {"trap_map.csv": "points", "trap_summary.json": None},
    "noise-sweep": {"noise_sweep.csv": "points", "noise_rejection.json": None},
    "scattering-sweep": {"scattering_sweep.csv": "points"},
    "rabi": {"rabi_trace.csv": "samples", "rabi_fit.json": None},
    "spin-echo": {"spin_echo_traces.csv": "samples",
                  "spin_echo_amplitudes.csv": None},
    "squeezing": {"squeezing.json": None},
}


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = [float(c) for c in line.split(",")]
        if len(cells) != len(header):
            raise ValueError(f"{path.name}:{number}: {len(cells)} cells")
        if not all(math.isfinite(c) for c in cells):
            raise ValueError(f"{path.name}:{number}: non-finite cell")
        rows.append(cells)
    return header, rows


def fingerprint(out: Path) -> str:
    """Digest of the manifest and every artifact it lists, in order."""
    manifest = (out / "manifest.json").read_bytes()
    digest = hashlib.sha256(manifest)
    for name in json.loads(manifest)["artifacts"]:
        digest.update(name.encode() + b"\0" + (out / name).read_bytes())
    return digest.hexdigest()


class Checker:
    """Checks op outputs; holds first-run fingerprints for the repeat rule."""

    def __init__(self, seed: int):
        import numpy as np
        from qndsim import atoms, heterodyne, trap
        from qndsim.constants import K_B
        self.atoms, self.het, self.trap, self.K_B = \
            atoms, heterodyne, trap, K_B
        self.rng = np.random.default_rng(seed)
        self.first: dict[str, str] = {}
        self.bytes_written: dict[str, int] = {}

    def check(self, cfg, rc: int, out: Path) -> str | None:
        """None if the op passed, otherwise the reason it failed."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            return self._check_artifacts(cfg, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def _check_artifacts(self, cfg, out: Path) -> str | None:
        manifest = strict_json((out / "manifest.json").read_text())
        listed = manifest["artifacts"]
        missing = set(ARTIFACTS[cfg.scenario]) - set(listed)
        if missing:
            return f"missing artifacts {sorted(missing)}"
        digest = fingerprint(out)
        if cfg.name in self.first:
            if digest != self.first[cfg.name]:
                return "artifacts differ from the first run of this config"
            return None
        for path in sorted(out.iterdir()):
            if path.suffix == ".json":
                payload = strict_json(path.read_text(encoding="utf-8"))
                if path.name == "rabi_fit.json" and "error" in payload:
                    return f"rabi fit: {payload['error']}"
        tables = {}
        for path in sorted(out.glob("*.csv")):
            tables[path.name] = read_csv(path)
        for name, count in ARTIFACTS[cfg.scenario].items():
            if count and len(tables[name][1]) != getattr(cfg, count):
                return (f"{name}: {len(tables[name][1])} rows, expected "
                        f"{getattr(cfg, count)}")
        problem = self._scalar_rows(cfg, tables)
        if problem:
            return problem
        self.first[cfg.name] = digest
        self.bytes_written[cfg.name] = sum(
            (out / name).stat().st_size for name in listed + ["manifest.json"])
        return None

    # ------------------------------------------------------ scalar oracles

    def _sample(self, rows: list) -> list:
        pick = self.rng.choice(len(rows), min(SAMPLED_ROWS, len(rows)),
                               replace=False)
        return [rows[i] for i in sorted(pick)]

    @staticmethod
    def _compare(label: str, got: list[float], want: list[float],
                 column: list[float]) -> str | None:
        scale = max(abs(v) for v in column) or 1.0
        for g, w in zip(got, want):
            if abs(g - w) > REL_TOL * scale:
                return f"{label}: {g!r} vs scalar {w!r}"
        return None

    def _scalar_rows(self, cfg, tables: dict) -> str | None:
        body = cfg.body
        if cfg.scenario == "trap-map":
            sec = body["trap"]
            model = self.trap.DipoleTrapConfig(
                power_per_arm=sec["power_per_arm_w"],
                waist_par=sec["waist_par_um"] * 1e-6,
                waist_perp=sec["waist_perp_um"] * 1e-6,
                backscatter_depth=sec["backscatter_depth"])
            rows = tables["trap_map.csv"][1]
            picked = self._sample(rows)
            want = [self.trap.potential_at(
                model, (x * 1e-6, y * 1e-6, z * 1e-6)) / self.K_B * 1e6
                for x, y, z, _ in picked]
            return self._compare("trap_map.csv potential_uk",
                                 [r[3] for r in picked], want,
                                 [r[3] for r in rows])
        if cfg.scenario == "noise-sweep":
            return self._noise_rows(body, tables["noise_sweep.csv"][1])
        if cfg.scenario == "scattering-sweep":
            sec = body["tuning"]
            rows = tables["scattering_sweep.csv"][1]
            picked = self._sample(rows)
            want = [self.atoms.scattering_rate(
                self.atoms.ProbeTuning.from_powers(
                    carrier_power=sec["carrier_power_uw"] * 1e-6,
                    sideband_power=sec["sideband_power_nw"] * 1e-9,
                    waist=sec["waist_um"] * 1e-6,
                    sideband_detuning=delta,
                    modulation_frequency=sec["modulation_frequency_ghz"] * 1e9),
                sec["expansion_rate_hz"]) for delta, _ in picked]
            return self._compare("scattering_sweep.csv decay_rate_hz",
                                 [r[1] for r in picked], want,
                                 [r[1] for r in rows])
        return None

    def _noise_rows(self, body: dict, rows: list) -> str | None:
        het = self.het
        p, d, sweep = body["probe"], body["detector"], body["sweep"]
        probe = het.ModulatedProbe(
            carrier_power=p["carrier_power_uw"] * 1e-6,
            modulation_depth=p["modulation_depth"],
            modulation_frequency=2 * math.pi
            * p["modulation_frequency_ghz"] * 1e9,
            ram_asymmetry=p["ram_asymmetry"],
            carrier_detuning=p["carrier_detuning_ghz"] * 1e9,
            sideband_power=p["sideband_power_nw"] * 1e-9,
            beam_waist=p["beam_waist_um"] * 1e-6,
            path_length=p["path_length_m"])
        det = het.DetectorModel(
            sensitivity=d["sensitivity_a_per_w"],
            transimpedance=d["transimpedance_v_per_a"],
            buffer_gain=d["buffer_gain"], load=d["load_ohm"],
            bandwidth=d["bandwidth_mhz"] * 1e6, kappa_e=d["kappa_e_uw"] * 1e-6)
        phi = sweep["phi_at_rad"]
        wavelength = sweep["reference_wavelength_um"] * 1e-6
        triple = het.PhaseShiftTriple(phi_plus=phi)
        base = het.demodulated_signal(probe, triple, det)
        picked = self._sample(rows)
        oracles = (
            ("demodulated_shift_v", lambda pe: het.demodulated_signal(
                probe, triple, det, path_error=pe) - base),
            ("budget_v", lambda pe: het.length_noise_signal(
                probe, phi, det, pe)),
            ("reference_v", lambda pe: het.interferometer_length_signal(
                probe, det, pe, wavelength)),
        )
        for col, (label, oracle) in enumerate(oracles, start=1):
            problem = self._compare(
                f"noise_sweep.csv {label}", [r[col] for r in picked],
                [oracle(r[0]) for r in picked], [r[col] for r in rows])
            if problem:
                return problem
        return None
