"""Self-test of the benchmark, run from the repository root:

    python3 bench/selftest.py

Runs every workload once at its smallest size, untraced and then traced
twice, and asserts that:
  - every metric BENCHMARK.json names is emitted with its unit;
  - the readable report names every end-to-end metric of the benchmark's
    definition, including points_per_s, samples_per_s and failed_ratio;
  - no op failed (failed_ratio is 0) and the run reports itself correct;
  - call counts repeat exactly across the two traced runs;
  - in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
Call counts derived from the configs are compared and printed, not
asserted, because a refactor may legitimately change them.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = ("setup_s", "op_wall_s.p50", "op_wall_s.tail", "points_per_s",
            "samples_per_s", "peak_rss_mb", "failed_ratio")


def run(workload: str, trace: int,
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--small")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result(workload: str, trace: int) -> tuple[dict, str]:
    """Final JSON and report of one run, after checking the contract."""
    out = run(workload, trace)
    text = out.stdout
    assert out.returncode == 0, \
        f"{workload} trace {trace} exited {out.returncode}:\n{out.stderr}"
    final = json.loads(text.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    for metric in expected:
        got = final["metrics"].get(metric["name"])
        assert got is not None, f"{workload}: {metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{metric['name']} unit"
        assert isinstance(got["value"], (int, float))
    assert set(final["metrics"]) == {m["name"] for m in expected}
    assert final["failed"] == 0 and final["correct"], text
    assert final["attempted"] >= 1
    return final, text


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        final, text = result(workload, 0)
        for name in REPORTED:
            assert any(line.startswith(name) for line in text.splitlines()), \
                f"{workload}: report does not name {name}"
        traced = [result(workload, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.endswith("calls") or k == "cli.artifact_bytes"}
                  for r, _ in traced]
        assert counts[0] == counts[1], f"{workload}: counts differ {counts}"
        for line in traced[0][1].splitlines():
            if line.startswith("calls ") or "repeat exactly" in line:
                print(f"  {workload}: {line}")
        print(f"{workload}: ok ({final['attempted']} ops, "
              f"{len(counts[0])} counts repeat)")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert out.returncode != 0 and not out.stdout, out.stdout
    print("without package sources: exit", out.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
