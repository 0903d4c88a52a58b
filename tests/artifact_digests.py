"""sha256 digests of every file a set of `qndsim run`s writes, and their table.

The runs are the bundled configs at their own seed and at `--seed 7`, and
the small configs of the `scaled-sweeps`, `long-rabi` and `echo-scan`
workloads of `bench/workloads.py` at one seed (`cold-bundled` runs the
bundled configs), plus the full-size configs of the same three workloads,
so the 25^3 trap map, the 3e4-point sweeps, the doubling over 10,000 whole
probe periods and the batched scan walk are covered at benchmark size, and
the full-size echo scan once with detection noise and once with back-action.
`artifact_digests.json` holds, per run, the digest of each artifact and of
`manifest.json`, with the Python, numpy and scipy versions they were made
with; `test_artifact_digests.py` reruns and compares.

A change that moves output digits on purpose rewrites the table with

    PYTHONPATH=src python tests/artifact_digests.py

and names in CHANGES.md each artifact that moved and why.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import scipy

import qndsim
import qndsim.cli as cli

TABLE = Path(__file__).with_name("artifact_digests.json")
BENCH = Path(__file__).parents[1] / "bench" / "workloads.py"
CONFIGS = Path(qndsim.__file__).parent / "configs"
WORKLOADS = ("scaled-sweeps", "long-rabi", "echo-scan")
WORKLOAD_SEED = 131


def versions() -> dict:
    # float repr and json do not change between patch releases
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs() -> dict:
    """Run name -> (config path or body, extra `qndsim run` arguments)."""
    table = {}
    for path in sorted(CONFIGS.glob("*.json")):
        table[path.stem] = (path, [])
        table[f"{path.stem}@seed7"] = (path, ["--seed", "7"])
    workloads = _bench_workloads()
    for workload in WORKLOADS:
        for cfg in workloads.generate(workload, WORKLOAD_SEED, CONFIGS.parents[1],
                                      small=True):
            table[f"{workload}/{cfg.name}"] = (cfg.body, [])
    for workload in WORKLOADS:
        for cfg in workloads.generate(workload, WORKLOAD_SEED, CONFIGS.parents[1],
                                      small=False):
            table[f"{workload}/{cfg.name}@full"] = (cfg.body, [])
    # the echo scan with detection noise and with back-action, whose signals
    # are all distinct, beside the noiseless scan without back-action
    echo = table["echo-scan/spin_echo@full"][0]
    for variant, field in (("noisy", "options.noiseless=false"),
                           ("backaction", "probe_gate.backaction=true")):
        table[f"echo-scan/spin_echo@full+{variant}"] = (echo, ["--set", field])
    return table


def digests(config, extra: list, out: Path) -> dict:
    """File name -> sha256 of everything one run writes into ``out``."""
    if isinstance(config, dict):
        path = out.with_name(out.name + ".json")
        path.write_text(json.dumps(config), encoding="utf-8")
        config = path
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["run", str(config), "--out", str(out), *extra])
    assert code == 0, f"qndsim run {config} exited {code}"
    return hashes(out)


def hashes(out: Path) -> dict:
    """File name -> sha256 of every file in ``out``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digests(config, extra, Path(tmp) / str(i))
                 for i, (name, (config, extra)) in enumerate(runs().items())}
    TABLE.write_text(json.dumps({"versions": versions(), "runs": table},
                                indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{TABLE}: {len(table)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
