"""Provenance hashes of the bundled configs, pinned.

`config_sha256` in `manifest.json` hashes the resolved config, every
default filled in; it is the run's one provenance record, and no other
artifact carries a hash of its own. It is platform-independent, so a
change to a config field or a default shows here even when no number
moves.
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


def run(tmp_path, name):
    """manifest.json of one bundled run."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        assert cli.main(["run", str(CONFIG_DIR / name), "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "manifest.json").read_text())


def test_every_bundled_config_is_pinned():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(CONFIG_SHA256)


@pytest.mark.parametrize("name", sorted(CONFIG_SHA256))
def test_config_sha256_is_pinned(tmp_path, name):
    assert run(tmp_path, name)["config_sha256"] == CONFIG_SHA256[name]


def test_rabi_fit_leaves_provenance_to_the_manifest(tmp_path):
    run(tmp_path, "rabi.json")
    fit = json.loads((tmp_path / "rabi_fit.json").read_text())
    assert "config_hash" not in fit
    assert fit["seed"] == 1
