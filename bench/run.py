"""qndsim benchmark: one command per workload, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the unmodified package from ./src through ``qndsim run`` /
``qndsim.cli.main`` on configs made from the seed, checks every op's
artifacts (see checks.py), and prints a readable report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.

Load is a closed loop with one client and one op in flight. Cold ops are
fresh ``qndsim run`` processes; warm ops go to one worker process that
imported qndsim.cli once. Children run with BLAS/OpenMP pools capped at
one thread. A run is a fixed number of cycles (one op of each config) that
depends only on --seconds and the workload, never on how fast the code is,
so each percentile lands on the same rank on every commit.

The shared host runs the same code up to 2x slower for phases of seconds
to minutes. So after every op the frozen copy of the package in
reference/ runs the same config (a reference probe), and between ops the
set-up time of both copies is sampled. Each op's time is divided by the
host slowness around it: the mean of the probes before and after it, each
over its nominal time (workloads.py), so the end-to-end times read as on
the defining host; the unscaled figures are printed in the report too.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
runs untraced ops for half the time, then the same ops with every public
qndsim function wrapped in a span (tracing.py), both without reference
probes since per-layer metrics carry no bound, and reports per-layer
metrics per cycle (one op of each config). Results, spans and the machine
record are also written under .perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import (CYCLE_S, PROBE_NOMINAL_S, SETUP_NOMINAL_S, WARM,
                       Config, generate, warmup)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REF_SRC = BENCH / "reference"   # frozen copy of the package, never edited
WORK_ROOT = ROOT / ".perfbench"

SETUP_SAMPLES = 4       # pairs of launches, spread evenly over the run's ops
SETUP_BUDGET_S = 5.0    # what the 2 x SETUP_SAMPLES launches take
IMPORTTIME_SAMPLES = 3
MIN_CYCLES = 2          # every config runs at least twice: the repeat check
MIN_OPS = 11            # the tail needs ten samples beyond it
DEADLINE_S = 170        # hard stop, below the 180 s a run may take
ENTRY = "import sys; from qndsim.cli import main; sys.exit(main())"
NO_WAITING = ("waiting: none. qndsim is single-threaded with no queues or "
              "messages, so no layer waits; no waiting times are reported.")


def child_env(src: Path = SRC) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


# ------------------------------------------------------------------ machine

def canary_s() -> float:
    """Fixed CPU-bound loop; recorded as a host-speed check, never used to
    normalise anything."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_record() -> dict:
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "cpu_pinning": "none",
        "cache_control": "none; every sweep array fits in L2/L3, so no "
                         "memory-bandwidth figure is claimed",
        "frequency_control": "none",
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------- op runners

@dataclass
class Op:
    config: Config
    cycle: int
    wall_s: float
    failure: str | None
    spans: list
    probe_s: float | None = None   # the reference probe run right after it


class ColdRunner:
    """Each op is a fresh interpreter, as when a user types `qndsim run`."""

    def __init__(self, trace: bool, log, work: Path, src: Path = SRC):
        self.trace, self.log, self.work, self.peak_kb = trace, log, work, 0
        self.src = src
        self.installed: list[str] = []
        self.proc = None

    def run(self, cfg: Config, out: Path) -> tuple[int, float, list]:
        argv = ["run", str(cfg.path), "--out", str(out)]
        spans_file = self.work / "spans.json"
        if self.trace:
            cmd = [sys.executable, str(BENCH / "worker.py"), "--trace",
                   "--spans-out", str(spans_file), "once", *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        t0 = time.perf_counter()
        self.proc = proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=self.log,
            env=child_env(self.src))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        spans = []
        if self.trace and spans_file.exists():
            payload = json.loads(spans_file.read_text())
            spans, self.installed = payload["spans"], payload["installed"]
            spans_file.unlink()
        return proc.returncode, wall, spans

    def close(self) -> None:
        pass

    def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


class WarmRunner:
    """One worker process that imported qndsim.cli once serves every op."""

    def __init__(self, trace: bool, log, work: Path, src: Path = SRC):
        cmd = [sys.executable, str(BENCH / "worker.py"),
               *(["--trace"] if trace else []), "serve"]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=log,
                                     env=child_env(src), text=True)
        self.peak_kb = 0
        self.installed = self._reply()["installed"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark worker exited unexpectedly")
        return json.loads(line)

    def run(self, cfg: Config, out: Path) -> tuple[int, float, list]:
        argv = ["run", str(cfg.path), "--out", str(out)]
        self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        return reply["rc"], reply["wall_s"], reply["spans"]

    def close(self) -> None:
        if self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.write(json.dumps({"quit": True}) + "\n")
            self.proc.stdin.close()
        except OSError:
            self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.peak_kb = usage.ru_maxrss

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def cycles_for(workload: str, seconds: float, n_configs: int,
               min_ops: int) -> int:
    """Cycles in a run of ``seconds``: as many as take that long on the
    defining host at the seed code, at least MIN_CYCLES and ``min_ops``
    ops."""
    return max(MIN_CYCLES, -(-min_ops // n_configs),
               round(seconds / CYCLE_S[workload]))


def run_ops(runner, configs, checker, rng, work: Path, cycles: int,
            first_cycle: int, after_op=None) -> list[Op]:
    """``cycles`` whole cycles, each config once per cycle in seeded order.
    ``after_op(i, op)``, when given, runs untimed after the i-th op."""
    ops: list[Op] = []
    for cycle in range(cycles):
        for index in rng.permutation(len(configs)):
            cfg = configs[index]
            out = work / "out" / cfg.name
            shutil.rmtree(out, ignore_errors=True)
            rc, wall, spans = runner.run(cfg, out)
            ops.append(Op(cfg, first_cycle + cycle, wall,
                          checker.check(cfg, rc, out), spans))
            if after_op is not None:
                after_op(len(ops) - 1, ops[-1])
    return ops


# ------------------------------------------------------------------ metrics

def ranked(times: list[float]) -> tuple[int, float, list[int]]:
    """Index of the tail op, at the highest percentile with at least ten
    ops beyond it, that percentile, and the indices of the one or two ops
    the median is taken from."""
    order = sorted(range(len(times)), key=times.__getitem__)
    n = len(order)
    return (order[n - 11], 100.0 * (n - 10) / n,
            order[(n - 1) // 2:n // 2 + 1])


def host_slowness(ops: list[Op], nominal: dict[str, float]) -> list[float]:
    """Per op, the mean of the reference probes run right before and right
    after it, each over its nominal time: how much slower than on the
    defining host the host ran around that op."""
    ratios = [op.probe_s / nominal[op.config.name] for op in ops]
    return [(ratios[max(i - 1, 0)] + r) / 2 for i, r in enumerate(ratios)]


def median_cycle_s(ops: list[Op], times: list[float], configs) -> float:
    """The sum over configs of each config's median op time: the time of
    a typical cycle, which one op hit by a spike cannot move more than it
    moves a median."""
    return sum(statistics.median(t for op, t in zip(ops, times)
                                 if op.config is cfg) for cfg in configs)


def setup_time(src: Path = SRC) -> float:
    """Fresh interpreter launch until `import qndsim.cli` returns."""
    code = ("import qndsim.cli, time; "
            "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", code], env=child_env(src),
                         capture_output=True, text=True, check=True)
    return (int(out.stdout.split()[-1]) - t0) * 1e-9


def host_sampler(reference, probe_configs: list[Config], work: Path,
                 total_ops: int, setup: list[float], ref_setup: list[float]):
    """after_op hook: after every op, the reference probe of the same
    config on ``reference``; and SETUP_SAMPLES pairs of set-up times, the
    live copy's then the frozen copy's, spread evenly over ``total_ops``
    ops."""
    by_name = {cfg.name: cfg for cfg in probe_configs}

    def after_op(i: int, op: Op) -> None:
        cfg = by_name[op.config.name]
        rc, op.probe_s, _ = reference.run(cfg, work / "out" / "reference")
        if rc != 0:
            raise RuntimeError(f"reference probe {cfg.name} exited {rc}; "
                               "see children.log")
        if ((i + 1) * SETUP_SAMPLES // total_ops
                > i * SETUP_SAMPLES // total_ops):
            setup.append(setup_time())
            ref_setup.append(setup_time(REF_SRC))
    return after_op


def import_times() -> dict[str, float]:
    """Medians over fresh interpreters of `-X importtime -c 'import
    qndsim.cli'`: the whole statement, and the numpy and scipy modules
    each net of the other when nested."""
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qndsim.cli"],
            env=child_env(), capture_output=True, text=True, check=True)
        entries = []   # (depth, name, self_us, cumulative_us), post-order
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            raw = parts[2].rstrip()
            name = raw.lstrip()
            depth = (len(raw) - len(name) - 1) // 2
            entries.append((depth, name, int(parts[0].split(":")[1]),
                            int(parts[1])))
        runs.append(_attribute(entries))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _attribute(entries: list) -> dict[str, float]:
    def pkg(name: str) -> str | None:
        for p in ("qndsim", "numpy", "scipy"):
            if name == p or name.startswith(p + "."):
                return p
        return None

    totals = {"qndsim": 0.0, "numpy": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str | None]] = []   # ancestors, walking backwards
    for depth, name, _, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = pkg(name)
        ancestors = [p for _, p in stack]
        if mine and mine not in ancestors:
            totals[mine] += cumulative
            outer = next((p for p in reversed(ancestors)
                          if p in ("numpy", "scipy") and p != mine), None)
            if outer and mine in ("numpy", "scipy"):
                totals[outer] -= cumulative
        stack.append((depth, mine))
    return {"import.qndsim_cli_s": totals["qndsim"] * 1e-6,
            "import.numpy_s": totals["numpy"] * 1e-6,
            "import.scipy_s": totals["scipy"] * 1e-6}


def cycle_spans(ops: list[Op]) -> list[dict]:
    """Per cycle: (name, parent) -> [calls, total_s, child_s, raised]."""
    cycles: dict[int, dict] = {}
    for op in ops:
        agg = cycles.setdefault(op.cycle, {})
        for name, parent, calls, total, child, raised in op.spans:
            rec = agg.setdefault((name, parent), [0, 0.0, 0.0, 0])
            rec[0] += calls
            rec[1] += total
            rec[2] += child
            rec[3] += raised
    return [cycles[c] for c in sorted(cycles)]


def layer_metrics(cycles: list[dict], installed: set[str], configs,
                  checker, overhead: tuple[float, float]) -> tuple[dict, dict]:
    """Per-layer metrics per cycle (median over traced cycles for times,
    first cycle for counts) and notes on layers absent or not exercised."""
    notes = {"absent": [], "not_exercised": []}

    def over_cycles(fn) -> float:
        return statistics.median(fn(c) for c in cycles)

    def calls(c, name, parent=None):
        return sum(r[0] for (n, p), r in c.items()
                   if n == name and parent in (None, p))

    def total(c, name, parent=None):
        return sum(r[1] for (n, p), r in c.items()
                   if n == name and parent in (None, p))

    def self_s(c, name):
        return sum(r[1] - r[2] for (n, _), r in c.items() if n == name)

    metrics: dict[str, tuple[float, str]] = {}

    def note(metric: str, *names: str) -> None:
        if any(n not in installed for n in names):
            notes["absent"].append(metric)
        elif metrics[metric][0] == 0:
            notes["not_exercised"].append(metric)

    def span(name: str, *kinds: str) -> None:
        for kind in kinds:
            metric = f"{name}.{kind}"
            if kind == "self_s":
                metrics[metric] = (over_cycles(lambda c: self_s(c, name)), "s")
            else:
                metrics[metric] = (calls(cycles[0], name), "count")
            note(metric, name)

    def per_unit(metric: str, names: tuple, units: int, parent=None) -> None:
        value = over_cycles(lambda c: sum(total(c, n, parent) for n in names))
        metrics[metric] = (value / units * 1e6 if units else 0.0, "us")
        note(metric, *names)

    trap_points = sum(c.points for c in configs if c.scenario == "trap-map")
    samples = sum(c.samples for c in configs)
    periods = sum(c.periods for c in configs)

    span("cli.validate_config", "self_s")
    span("cli.config_hash", "self_s")
    span("cli.main", "self_s")
    metrics["cli.artifact_bytes"] = (sum(checker.bytes_written.values()),
                                     "bytes")
    span("trap.potential_at", "self_s", "calls")
    span("trap.arm_intensity", "self_s", "calls")
    per_unit("trap.us_per_point", ("trap.potential_at",), trap_points)
    span("heterodyne.demodulated_signal", "self_s", "calls")
    span("heterodyne.length_noise_signal", "self_s")
    span("heterodyne.interferometer_length_signal", "self_s")
    span("heterodyne.atomic_phase", "self_s", "calls")
    span("heterodyne.sample_noisy_signal", "self_s", "calls")
    per_unit("heterodyne.us_per_sample",
             ("heterodyne.atomic_phase", "heterodyne.demodulated_signal",
              "heterodyne.sample_noisy_signal"), samples,
             parent="harness.run_sequence")
    span("atoms.evolve", "self_s", "calls")
    per_unit("atoms.evolve.us_per_period", ("atoms.evolve",), periods)
    rates = tuple(f"atoms.{n}" for n in (
        "light_shift", "scattering_rate", "sideband_photon_rate",
        "carrier_pump_rate", "damping_rate"))
    metrics["atoms.rate_calls"] = (sum(calls(cycles[0], n) for n in rates),
                                   "count")
    note("atoms.rate_calls", *rates)
    span("atoms.replace", "calls")
    span("atoms.ProbeTuning.from_powers", "self_s", "calls")
    span("atoms.scattering_rate", "self_s")
    span("harness.run_sequence", "self_s")
    span("harness.write_trace_csv", "self_s")
    span("harness.fit_damped_sine", "self_s")
    span("harness.curve_fit", "calls")
    fits = calls(cycles[0], "harness.fit_damped_sine")
    failed_fits = sum(r[3] for (n, _), r in cycles[0].items()
                      if n == "harness.fit_damped_sine")
    metrics["harness.fit_converged_ratio"] = (
        (fits - failed_fits) / fits if fits else 0.0, "ratio")
    note("harness.fit_converged_ratio", "harness.fit_damped_sine")
    notes["fit_converged_ratio_base"] = f"{fits - failed_fits}/{fits} fits"
    span("harness.build_spin_echo", "self_s")
    span("harness.mid_pulse_amplitude", "self_s")
    span("cavity.solve_mode", "self_s", "calls")
    span("cavity.transverse_spectrum", "self_s")
    traced, untraced = overhead
    metrics["tracing.overhead_ratio"] = (traced / untraced, "ratio")
    notes["tracing_overhead_base"] = (
        f"traced op_wall_s.p50 {traced:.6f} s / untraced {untraced:.6f} s")
    return metrics, notes


def mark_count_repeats(traced: list[Op]) -> None:
    """Fail every traced op whose call counts differ from those of the same
    config's first traced op: the code is deterministic, so counts must
    repeat exactly across cycles."""
    first: dict[str, tuple[int, dict]] = {}
    for op in traced:
        counts = {(n, p): calls for n, p, calls, *_ in op.spans}
        cycle, want = first.setdefault(op.config.name, (op.cycle, counts))
        if counts != want and op.failure is None:
            diff = sorted(f"{n} from {p}" for n, p in set(counts) | set(want)
                          if counts.get((n, p)) != want.get((n, p)))
            op.failure = (f"call counts differ from traced cycle {cycle}: "
                          + ", ".join(diff[:5]))


def count_checks(traced: list[Op], cycles: list[dict]) -> list[str]:
    """Call counts derived from each config against its op in the first
    traced cycle (informational: an array-native kernel changes them on
    purpose), and whether every traced cycle repeated the first cycle's
    counts (a failure otherwise, see mark_count_repeats)."""
    lines = []
    for op in traced:
        if op.cycle != traced[0].cycle:
            break
        got = {(n, p): calls for n, p, calls, *_ in op.spans}
        for (name, parent), want in op.config.expected_calls.items():
            have = got.get((name, parent), 0)
            lines.append(f"calls {name} from {parent} in {op.config.name}: "
                         f"derived {want}, traced {have}: "
                         f"{'match' if have == want else 'DIFFERS'}")
    first = {k: v[0] for k, v in cycles[0].items()}
    same = all({k: v[0] for k, v in c.items()} == first for c in cycles)
    lines.append(f"call counts repeat exactly across {len(cycles)} traced "
                 f"cycles: {'yes' if same else 'NO'}")
    return lines


# --------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WARM))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest sizes, for the self-test")
    args = parser.parse_args()
    if not (SRC / "qndsim" / "cli.py").is_file():
        print(f"bench: no package sources at {SRC}; run from the root of a "
              "qndsim checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from checks import Checker   # imports qndsim, writing bytecode first

    def deadline(signum, frame):
        raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(DEADLINE_S)

    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    (WORK_ROOT / "results").mkdir(parents=True, exist_ok=True)
    log_path = work / "children.log"
    machine = machine_record()
    machine["canary_before_s"] = canary_s()

    configs = generate(args.workload, args.seed, SRC, args.small)
    warm = WARM[args.workload]
    warm_configs = warmup(args.workload, SRC) if warm else []
    probe_configs = generate(args.workload, args.seed, REF_SRC, args.small)
    for prefix, group in (("", configs + warm_configs),
                          ("reference_", probe_configs)):
        for cfg in group:
            cfg.path = work / "configs" / f"{prefix}{cfg.name}.json"
            cfg.path.write_text(json.dumps(cfg.body, indent=2) + "\n")
    checker = Checker(args.seed)
    rng = np.random.default_rng(args.seed + 1)
    report: list[str] = []
    result: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}

    setup: list[float] = []
    ref_setup: list[float] = []
    imports = import_times() if args.trace else {}
    Runner = WarmRunner if warm else ColdRunner

    def session(trace: bool, cycles: int, first_cycle: int,
                sample_host: bool):
        """``cycles`` cycles of ops; with ``sample_host``, each op followed
        by its reference probe, and set-up times taken between ops."""
        with open(log_path, "a") as log:
            runner, reference = Runner(trace, log, work), None
            try:
                for cfg in warm_configs:
                    out = work / "out" / cfg.name
                    rc, _, _ = runner.run(cfg, out)
                    warmups.append((cfg.name, checker.check(cfg, rc, out)))
                after_op = None
                if sample_host:
                    reference = Runner(False, log, work, REF_SRC)
                    if warm:   # untimed, like the live warm-up
                        for cfg in probe_configs:
                            reference.run(cfg, work / "out" / "reference")
                    after_op = host_sampler(
                        reference, probe_configs, work,
                        cycles * len(configs), setup, ref_setup)
                ops = run_ops(runner, configs, checker, rng, work, cycles,
                              first_cycle, after_op)
            except BaseException:
                runner.kill()
                if reference is not None:
                    reference.kill()
                raise
            runner.close()
            if reference is not None:
                reference.close()
        return ops, runner

    warmups: list[tuple[str, str | None]] = []   # untimed, but checked
    try:
        if args.trace:
            half = cycles_for(args.workload, args.seconds / 2, len(configs), 0)
            plain, runner = session(False, half, 0, False)
            traced, traced_runner = session(True, half, half, False)
            mark_count_repeats(traced)
        else:
            cycles = cycles_for(args.workload, args.seconds - SETUP_BUDGET_S,
                                len(configs), MIN_OPS)
            plain, runner = session(False, cycles, 0, True)
            traced = []
    finally:
        signal.alarm(0)
        shutil.rmtree(work / "out", ignore_errors=True)
    machine["canary_after_s"] = canary_s()
    machine["loadavg_end"] = os.getloadavg()

    ops = plain + traced
    failures = [f"{name} (warm-up): {failure}"
                for name, failure in warmups if failure]
    failures += [f"{op.config.name} (cycle {op.cycle}): {op.failure}"
                 for op in ops if op.failure]
    attempted = len(ops) + len(warmups)
    walls = [op.wall_s for op in plain]
    p50 = statistics.median(walls)

    report.append(f"workload {args.workload}  seed {args.seed}  seconds "
                  f"{args.seconds:g}  trace {args.trace}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report.append(f"why: {why[args.workload]}")
    report.append("load: closed loop, 1 client, 1 op in flight, child "
                  "BLAS/OpenMP pools capped at 1 thread; ops are "
                  + ("fresh `qndsim run` processes" if not warm else
                     "qndsim.cli.main calls in one warmed worker"))
    report.append("machine " + json.dumps(machine, sort_keys=True))
    by_config = {}
    for cfg in configs:
        mine = [op.wall_s for op in plain if op.config is cfg]
        by_config[cfg.name] = statistics.median(mine)
        report.append(f"  unscaled op_wall_s.p50[{cfg.name}] = "
                      f"{by_config[cfg.name]:.6f} s (n={len(mine)}, "
                      f"{cfg.points} points, {cfg.samples} samples)")
    if args.trace:
        cycles = cycle_spans(traced)
        p50_traced = statistics.median(op.wall_s for op in traced)
        installed = set(traced_runner.installed)
        layer, notes = layer_metrics(cycles, installed, configs, checker,
                                     (p50_traced, p50))
        metrics = {k: (v, "s") for k, v in imports.items()} | layer
        report.extend(count_checks(traced, cycles))
        report.append(f"per-layer values are per cycle (one op of each of "
                      f"{len(configs)} configs); times are medians over "
                      f"{len(cycles)} traced cycles")
        for key in ("tracing_overhead_base", "fit_converged_ratio_base"):
            report.append(f"{key}: {notes[key]}")
        report.append(f"absent from the package: {notes['absent'] or 'none'}")
        report.append(f"not exercised by this workload (reported as 0): "
                      f"{notes['not_exercised'] or 'none'}")
        result["spans"] = [[n, p, *r] for c in cycles[:1]
                           for (n, p), r in sorted(c.items())]
    else:
        points = sum(cfg.points for cfg in configs)     # per cycle
        samples = sum(cfg.samples for cfg in configs)
        slow = host_slowness(plain, PROBE_NOMINAL_S[args.workload])
        scaled = [op.wall_s / h for op, h in zip(plain, slow)]
        cycle_s = median_cycle_s(plain, scaled, configs)
        setup_slow = [r / SETUP_NOMINAL_S for r in ref_setup]
        setup_s = statistics.median(s / h for s, h in zip(setup, setup_slow))
        tail, tail_pct, mid = ranked(scaled)
        raw_tail = ranked(walls)[0]
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_wall_s.p50": (statistics.median(scaled), "s"),
            "op_wall_s.tail": (scaled[tail], "s"),
            "items_per_s": ((points + samples) / cycle_s, "1/s"),
            "peak_rss_mb": (runner.peak_kb / 1024, "MiB"),
        }
        result.update(slowness=slow, ref_setup=ref_setup, scaled_walls=scaled,
                      probe_walls=[op.probe_s for op in plain])
        report.append(
            f"host slowness: median {statistics.median(slow):.4f} (range "
            f"{min(slow):.3f}-{max(slow):.3f}) over {len(plain)} ops, each "
            "the mean of the reference probes before and after the op over "
            "their nominal times; each set-up time's slowness is the frozen "
            "copy's set-up time taken right after it over its nominal "
            f"{SETUP_NOMINAL_S} s (median {statistics.median(setup_slow):.4f})."
            " Each time below is divided by its slowness, so it reads at "
            "the defining host's speed")
        for cfg in configs:
            mine = [op.probe_s for op in plain if op.config is cfg]
            report.append(f"  reference probe p50[{cfg.name}] = "
                          f"{statistics.median(mine):.6f} s (nominal "
                          f"{PROBE_NOMINAL_S[args.workload][cfg.name]} s)")
        report.append(
            f"unscaled: setup_s = {statistics.median(setup):.6g} s, "
            f"op_wall_s.p50 = {p50:.6g} s, op_wall_s.tail = "
            f"{walls[raw_tail]:.6g} s, items_per_s = "
            f"{(points + samples) / median_cycle_s(plain, walls, configs):.6g}"
            " 1/s")
        report.append(f"set-up samples, live then frozen copy, unscaled: "
                      f"{[(round(s, 4), round(r, 4)) for s, r in zip(setup, ref_setup)]}")
        report.append(f"op_wall_s.tail is p{tail_pct:.1f}: 10 of "
                      f"{len(walls)} ops beyond it; op_wall_s.tail from "
                      f"{plain[tail].config.name}, op_wall_s.p50 from "
                      f"{' and '.join(sorted({plain[i].config.name for i in mid}))}")
        report.append("points_per_s = " + (
            f"{points / cycle_s:.6g} 1/s ({points} grid/sweep points per "
            f"cycle, median cycle {cycle_s:.6f} s)" if points
            else "n/a (no grid or sweep points in this workload)"))
        report.append("samples_per_s = " + (
            f"{samples / cycle_s:.6g} 1/s ({samples} probe samples per "
            f"cycle, median cycle {cycle_s:.6f} s)" if samples
            else "n/a (no probe samples in this workload)"))
    report.append(NO_WAITING)
    report.append(f"failed_ratio = {len(failures)}/{attempted} = "
                  f"{len(failures) / attempted:.6g}")
    for failure in failures:
        report.append(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        report.append(f"{name} = {value:.6g} {unit}")

    final = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u)
                    in metrics.items()},
    }
    result.update(machine=machine, report=report, op_wall_s_by_config=by_config,
                  op_walls=walls, **final)
    out_file = (WORK_ROOT / "results" /
                f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("\n".join(report))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
