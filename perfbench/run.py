"""covertower benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the repository root's ``src/`` tree (no install
step), checks every output, and prints each metric by name with its
unit.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run is a closed loop with a single client: the parent starts at
most one child process at a time and waits for it.  ``--trace 0`` gives
the end-to-end metrics from untraced runs; ``--trace 1`` runs the timed
phase once untraced and once traced and gives the per-layer metrics.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
# A run must end within 180 s; do not start an iteration that would not.
RUN_BUDGET_S = 150

LIMITS = (
    "limits: peak_rss_mb is the largest peak RSS among this run's child "
    "processes (getrusage RUSAGE_CHILDREN), nothing else on the machine; "
    "the file cache is warm and never dropped; no whole-machine tracing is "
    "used, spans come only from wrappers the benchmark installs in its own "
    "child processes"
)


class Child:
    def __init__(self, returncode: int, stdout: bytes, start: float, wall: float, result: dict):
        self.returncode = returncode
        self.start = start
        self.stdout = stdout
        self.wall = wall
        self.result = result


class Run:
    """State of one benchmark run; the context the workloads call back into."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.checks = workloads.Checks()
        self.tracer: Tracer | None = None
        self.span_files: list[Path] = []
        self.startups: list[float] = []
        self.children = 0
        self.digests: dict[str, str] = {}
        self.corruption_detected = False
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def span(self, name: str, op: int | None = None):
        return self.tracer.span(name, op) if self.tracer else nullcontext(-1)

    def _next(self) -> int:
        self.children += 1
        return self.children

    def workspace(self) -> Path:
        path = self.scratch / f"ws-{self._next()}"
        path.mkdir()
        return path

    def _job(self, n: int, mode: str, parent: int, **extra) -> tuple[list[str], Path]:
        """Write child ``n``'s job file; its spans get id base ``n`` and operation ``n << 20``."""
        out = self.scratch / f"job-{n}.out"
        job = {
            "mode": mode,
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.tracer is not None,
            "base": n,
            "op": n << 20,
            "parent": parent,
            "out": str(out),
            "spans": str(self.scratch / f"spans-{n}"),
            **extra,
        }
        path = self.scratch / f"job-{n}.json"
        path.write_text(json.dumps(job))
        if self.tracer:
            self.span_files.append(Path(job["spans"]))
        return [sys.executable, str(HERE / "worker.py"), str(path)], out

    def _spawn(self, cmd: list[str], out: Path | None) -> Child:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, stdout, stderr = -1, exc.stdout or b"", b"timed out"
        wall = time.perf_counter() - start
        if code != 0:
            sys.stderr.write(f"child {cmd[-1]} exited {code}: {stderr[-2000:].decode(errors='replace')}\n")
        result = {}
        if out is not None and out.exists():
            result = json.loads(out.read_text())
            if "ready" in result:
                self.startups.append(result["ready"] - start)
        return Child(code, stdout, start, wall, result)

    def cli(self, argv: list[str]) -> Child:
        """One command line, as a fresh process."""
        n = self._next()
        with self.span("bench.cli", op=n << 20) as parent:
            if self.tracer is None:
                return self._spawn([sys.executable, "-m", "covertower.cli"] + argv, None)
            cmd, out = self._job(n, "cli", parent, argv=argv)
            return self._spawn(cmd, out)

    def worker(self, mode: str) -> dict:
        """A fresh worker process; returns its result with the checks tallied."""
        n = self._next()
        with self.span(f"bench.worker-{mode}", op=n << 20) as parent:
            cmd, out = self._job(n, mode, parent)
            child = self._spawn(cmd, out)
        result = child.result
        if mode == "phase":
            ok = child.returncode == 0 and "attempted" in result
            self.checks.check("worker.exit", ok)
            if ok:
                self.checks.merge(result["attempted"], result["failed"])
        return result

    def same_bytes(self, key: str, digest: str) -> None:
        """Bytes agree with the recorded ones and with earlier iterations."""
        want = workloads.EXPECTED.get(self.workload, {}).get(key)
        first = self.digests.setdefault(key, digest)
        self.checks.check(f"bytes.{key}", digest == want and digest == first)

    def warm_up(self) -> None:
        """Compile the package's bytecode once, untimed, as an installed copy would have."""
        self._spawn(self._job(self._next(), "setup", -1)[0], None)

    def setup_time(self) -> float:
        """Median time from spawning a fresh process to its first timed operation."""
        times = []
        for _ in range(SETUP_REPEATS):
            cmd, out = self._job(self._next(), "setup", -1)
            child = self._spawn(cmd, out)
            self.checks.check("setup.exit", child.returncode == 0)
            times.append(child.result.get("ready", child.start + child.wall) - child.start)
        return statistics.median(times)


def iterate(run: Run) -> dict:
    row = workloads.WORKLOADS[run.workload][2](run)
    run.checks.check("self-check.corrupted-output-is-an-error", run.corruption_detected)
    run.corruption_detected = False
    return row


def children_usage() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return (
        f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"cpu {cpu}, commit {commit}"
    )


def untraced(run: Run, seconds: int) -> dict:
    setup = run.setup_time()
    rows = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rows.append(iterate(run))
        took = time.perf_counter() - began
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + took > RUN_BUDGET_S:
            break
    peak_mb, _cpu = children_usage()
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rows), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "phase1_s": (statistics.median(r["phase1_s"] for r in rows), "s"),
        "phase2_s": (statistics.median(r["phase2_s"] for r in rows), "s"),
    }
    print(f"iterations: {len(rows)} (each a fresh set of processes); set-ups: {SETUP_REPEATS}")
    for i, r in enumerate(rows):
        print(f"  iteration {i}: " + ", ".join(f"{k} {v:.4f}" for k, v in r.items()))
    for name, label in PHASE_NAMES[run.workload].items():
        value = metrics[name][0]
        print(f"  {label[0]} = {label[1](value):.6g} {label[2]}  (from {name})")
    return metrics


def traced(run: Run) -> dict:
    baseline = iterate(run)
    _peak, cpu_before = children_usage()
    run.tracer = Tracer(0)
    with run.tracer.span("bench.iteration", op=0):
        start = time.perf_counter()
        row = iterate(run)
        trace_wall = time.perf_counter() - start
    _peak, cpu_after = children_usage()
    own = run.scratch / "spans-0"
    run.tracer.dump(own)
    metrics = summarize(run.span_files + [own], trace_wall)
    startups = run.startups or [0.0]
    metrics["cli.startup_s"] = (statistics.median(startups), "s")
    metrics["proc.cpu_s"] = (cpu_after - cpu_before, "s")
    metrics["trace.overhead_ratio"] = (
        row["wall_s"] / baseline["wall_s"] if baseline["wall_s"] else 0.0,
        "ratio",
    )
    layers = sum(v for k, (v, _u) in metrics.items() if k.endswith(".self_s") and not k.startswith("bench."))
    print(
        f"traced wall {trace_wall:.3f} s = layers' self time {layers:.3f} s + "
        f"benchmark self time {metrics['bench.self_s'][0]:.3f} s "
        f"(accounted {metrics['trace.accounted_ratio'][0]:.4f}); "
        f"untraced wall_s {baseline['wall_s']:.3f} s, traced wall_s {row['wall_s']:.3f} s"
    )
    keep = WORK / "trace" / run.workload
    shutil.rmtree(keep, ignore_errors=True)
    keep.mkdir(parents=True)
    for path in run.span_files + [own]:
        for suffix in (".json", ".bin"):
            if path.with_suffix(suffix).exists():
                shutil.copy(path.with_suffix(suffix), keep)
    print(f"spans written to {keep.relative_to(ROOT)}")
    return metrics


# metric -> (name in the workload's terms, conversion, unit)
PHASE_NAMES = {
    "tower-ledger": {"phase1_s": ("tower_build_s", float, "s"), "phase2_s": ("export_ledger_s", float, "s")},
    "enumerate-store": {"phase1_s": ("enumerate_s", float, "s"), "phase2_s": ("store_s", float, "s")},
    "vaut-laws": {"phase1_s": ("compose_s", float, "s"), "phase2_s": ("cycle_s", float, "s")},
    "torus": {
        "phase1_s": (
            "torus_checks_per_s",
            lambda s: (workloads.FLOAT_CHECKS + workloads.EXACT_CHECKS) / s,
            "1/s",
        ),
        "phase2_s": ("orbit_s", float, "s"),
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "covertower" / "cli.py").is_file():
        print(f"error: no covertower source tree at {SRC}", file=sys.stderr)
        return 2

    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        print(f"covertower benchmark: workload {args.workload}, seed {args.seed}, "
              f"seconds {args.seconds}, trace {args.trace}")
        print(environment())
        run = Run(args.workload, args.seed, scratch)
        run.warm_up()
        metrics = traced(run) if args.trace else untraced(run, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = run.checks
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"error_rate = {len(checks.failed)}/{checks.attempted} = "
          f"{len(checks.failed) / checks.attempted:.6g}")
    for name in checks.failed[:20]:
        print(f"FAILED {name}")
    print(LIMITS)
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
