"""Provenance hashes of the bundled configs, pinned.

`config_sha256` in `manifest.json` hashes the resolved config, and each
trace's `config_hash` (written to `rabi_fit.json`) hashes the repr of the
dataclasses a run is built from. Both are platform-independent, so a
change to a config field, a default or a dataclass field (renaming or
removing one included) shows here even when no number moves.
"""
import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest

import qndsim
import qndsim.cli as cli

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
CONFIG_SHA256 = {
    "cavity_spectrum.json": "227b50727979cdf46e633245454256aa27557f62b1a406e04ed04f72e3e3bef9",
    "noise_sweep.json": "955c44679eef367b8f4273ad3716ff4cb0e0e929960bb4e44e71d33400db4379",
    "rabi.json": "a81fcc8296e94d85abdc433cebbc63971afb2fe99fef76bb6fd7f09dc45022fe",
    "scattering_sweep.json": "d2a10e26885caa4e6b8f4a8cc72e6eab5dda941b2ab7d4d111820139b184a24e",
    "spin_echo.json": "28e09947cceae668299174141da500d7b4b2a7730dce405b352d1ea88ca3fffb",
    "squeezing.json": "1a28886f190b3da4bcc1c3ff9770d05a92b21f41f2ca3fb3c409a63cfce388e9",
    "trap_map.json": "89d648f94ff30b9eb84a8a01ebac37407c5faa07da3db112eefce1b4088da782",
}
TRACE_HASHES = {
    "rabi.json": ["ded10bef5e1647e4"],
    "spin_echo.json": ["877dd6cdde741067", "26096f9a0445b81d",
                       "14c3d55248941d87", "a00783066384f5ea"],
}


def run(monkeypatch, tmp_path, name):
    """manifest.json of one bundled run, and its traces' config hashes."""
    hashes, walk, scan = [], cli.run_sequence, cli.run_scan

    def capture(*args, **kwargs):
        trace = walk(*args, **kwargs)
        hashes.append(trace.metadata["config_hash"])
        return trace

    def capture_scan(*args, **kwargs):     # one hash per trace
        traces = scan(*args, **kwargs)
        hashes.extend(trace.metadata["config_hash"] for trace in traces)
        return traces

    monkeypatch.setattr(cli, "run_sequence", capture)
    monkeypatch.setattr(cli, "run_scan", capture_scan)
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        assert cli.main(["run", str(CONFIG_DIR / name), "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "manifest.json").read_text()), hashes


def test_every_bundled_config_is_pinned():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(CONFIG_SHA256)


@pytest.mark.parametrize("name", sorted(CONFIG_SHA256))
def test_config_sha256_is_pinned(monkeypatch, tmp_path, name):
    manifest, hashes = run(monkeypatch, tmp_path, name)
    assert manifest["config_sha256"] == CONFIG_SHA256[name]
    assert hashes == TRACE_HASHES.get(name, [])


def test_rabi_fit_carries_the_pinned_trace_hash(monkeypatch, tmp_path):
    run(monkeypatch, tmp_path, "rabi.json")
    fit = json.loads((tmp_path / "rabi_fit.json").read_text())
    assert fit["config_hash"] == TRACE_HASHES["rabi.json"][0]
