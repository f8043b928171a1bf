"""psirh benchmark: three CLI workloads, per-command wall times, and a traced
per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  A run repeats passes over the workload (see ``workloads.py``) for
about S seconds, one process at a time.  Every command starts a fresh
interpreter, so nothing cached in process (the ``_simple_sieve`` lru cache,
numpy warm-up) carries from one command to the next; each run gets a fresh
temporary directory for the theta cache, removed afterwards.  Every
operation's output is checked.

On a shared host the CPU speed drifts in phases of seconds to minutes, so
runs of the same code can differ by a third, and every time of a run moves
with it.  So the run also times a reference command (``reference.py``: no
psirh code, the same start-up, loop and array work) every two seconds of
commands, and reports times in units of its median, ``ref``: a host
phase moves both, a change to psirh moves only the numerator.  The median
keeps one stalled reference run from moving every figure.  The seconds are
printed above the result line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

- ``wall_ref``: a pass's summed per-command wall time, launch to exit,
  median over the run's passes, in ``ref``.
- ``setup_s``: launch to ``psirh.cli.main`` entry (to the first query for
  the query process), median over every process of the run, in seconds.
- ``peak_rss_mb``: the largest per-process peak RSS, from ``os.wait4``.
- ``step1_ref`` .. ``step4_ref``: the workload's own four figures in
  ``ref``, in positional slots because every workload reports the same
  metric names; ``WORKLOADS[name][1]`` in order, each the mean wall time
  of that command over the run (a command runs only a few times in a run,
  and the median of so few samples jumps between a fast and a slow phase).
  primorial-tables: cold ``table1``, warm ``table1``, ``bounds``,
  ``table2``.  range-scans: f scan, g scan, seeded g window, sigma bound.
  exact-path: ``superabundant``, ``props``, and the p50 and p99 query
  latency over all queries of the run.

The lines above it print the same figures under their own names, plus
``failed_frac`` and the machine facts.  With ``--trace 1`` passes alternate
untraced and traced; the last line carries the per-layer metrics of
``layers.py`` from the traced passes, including the tracing overhead against
the untraced passes, and the lines above it print the span tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import layers
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
SCRATCH = ROOT / ".perfbench_tmp"
# A command that has not ended by then has hung; it is killed and counted
# as failed.
OP_TIMEOUT_S = 150
# The reference command runs before a pass's first command and then before
# the first command that starts at least this long after the last reference.
REF_EVERY_S = 2.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one busy core at a time: no BLAS worker threads in the children
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch_and_wait(argv: list[str], stdout, stderr):
    """Run argv in ROOT to its end, killing it after OP_TIMEOUT_S; returns
    its launch and exit times, exit code and rusage.  ``os.wait4`` blocks
    until the exit, where ``Popen.wait`` with a timeout polls in steps of up
    to 50 ms, too coarse for the times taken here."""
    launch = _now()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT,
                            env=_child_env())
    signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return launch, end, proc.returncode, usage


def reference_s() -> float:
    """Launch-to-exit time of one run of the reference command."""
    launch, end, returncode, _ = launch_and_wait(
        [sys.executable, str(REFERENCE)], subprocess.DEVNULL, None)
    if returncode != 0:
        raise RuntimeError(f"reference command exited {returncode}")
    return end - launch


class Pass:
    """One pass over a workload: runs each operation in a fresh process,
    times it, and checks its output."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.samples: dict[str, list[float]] = {}
        self.wall = 0.0
        self.setups: list[float] = []
        self.rss_mb: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.reports: list[tuple[str, dict]] = []
        self.refs: list[float] = []
        self._last_ref = -math.inf
        self._n = 0

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def _spawn(self, step: str, args: list[str]) -> tuple[dict | None, str, str]:
        if _now() - self._last_ref >= REF_EVERY_S:
            self.refs.append(reference_s())
            self._last_ref = _now()
        self._n += 1
        base = self.workdir / f"op{self._n}"
        report_path = f"{base}.json"
        argv = [sys.executable, str(CHILD), report_path]
        if self.traced:
            argv.append("--trace")
        with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
            launch, end, returncode, usage = launch_and_wait(argv + args,
                                                             out, err)
        self.samples.setdefault(step, []).append(end - launch)
        self.wall += end - launch
        self.rss_mb.append(usage.ru_maxrss / 1024)
        stdout = Path(f"{base}.out").read_text(encoding="utf-8")
        if returncode != 0 or not os.path.exists(report_path):
            stderr = Path(f"{base}.err").read_text(encoding="utf-8")
            return None, stdout, (f"{step}: exit {returncode}: "
                                  f"{stderr.strip()[-300:]}")
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        self.setups.append(report["entry"] - launch)
        if self.traced:
            self.reports.append((step, report))
        return report, stdout, ""

    def cli(self, step: str, args: list[str], check) -> str:
        """Run one psirh command; returns its stdout."""
        self.attempted += 1
        report, stdout, error = self._spawn(step, ["cli"] + args)
        if report is not None:
            try:
                check(stdout)
            except (CheckFailed, KeyError, ValueError) as exc:
                error = f"{step} {' '.join(args)}: {exc!r}"
        if error:
            self.failures.append(error)
        return stdout

    def queries(self, ns: list[int], check) -> None:
        """Evaluate f and g at every n in one library process."""
        inputs = self.workdir / f"queries{self._n + 1}.json"
        inputs.write_text(json.dumps(ns), encoding="utf-8")
        self.attempted += len(ns)
        report, _, error = self._spawn("queries_s", ["queries", str(inputs)])
        if report is None:
            self.failures.extend([error] * len(ns))
            return
        results = report["results"]
        if [row[0] for row in results] != ns:
            self.failures.extend(["queries: results do not match inputs"] * len(ns))
            return
        for row in results:
            self.latencies.append(row[1])
            try:
                check(row)
            except CheckFailed as exc:
                self.failures.append(f"query: {exc}")


def _unit(name: str) -> str:
    return "MB" if name.endswith("_mb") else name.rsplit("_", 1)[1]


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            ram_kb = int(next(line.split()[1] for line in fh
                              if line.startswith("MemTotal")))
    except (OSError, StopIteration, ValueError):
        ram_kb = 0
    sha = "unknown"  # a checkout without .git has no SHA to report
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "ram_gb": round(ram_kb / 2**20, 1), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "mpmath": metadata.version("mpmath"), "git_sha": sha}


def preflight() -> None:
    """Fail fast, before any timing, unless the checkout's own psirh imports.
    The import also writes the bytecode cache, which a user pays for once."""
    src = ROOT / "src"
    if not (src / "psirh" / "cli.py").is_file():
        sys.exit(f"perfbench: no psirh sources under {src}")
    probe = subprocess.run(
        [sys.executable, "-c", "import psirh.cli; print(psirh.__file__)"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=OP_TIMEOUT_S)
    if probe.returncode != 0:
        sys.exit(f"perfbench: psirh does not import:\n{probe.stderr}")
    if not Path(probe.stdout.strip()).resolve().is_relative_to(src):
        sys.exit(f"perfbench: psirh imported from {probe.stdout.strip()}, "
                 f"not from {src}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    body, steps = WORKLOADS[workload]
    rng = random.Random(seed)
    passes: list[Pass] = []
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        start = _now()
        # A pass starts while at least half of one more like the last fits,
        # so a run ends within half a pass of S seconds; a traced run needs
        # at least one untraced and one traced pass.
        while (len(passes) < 1 + trace
               or _now() - start + passes[-1].wall / 2 <= seconds):
            passdir = workdir / f"pass{len(passes)}"
            passdir.mkdir()
            p = Pass(passdir, traced=trace and len(passes) % 2 == 1)
            body(p, rng)
            passes.append(p)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    timed = [p for p in passes if not p.traced]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    named = {"wall_s": statistics.median(p.wall for p in timed),
             "setup_s": statistics.median(s for p in timed for s in p.setups),
             "peak_rss_mb": max(r for p in timed for r in p.rss_mb)}
    for step in steps:
        if step.startswith("query_"):
            lat = [x for p in timed for x in p.latencies]
            named[step] = 1000 * _quantile(lat, 50 if "p50" in step else 99)
        else:
            named[step] = statistics.fmean(
                x for p in timed for x in p.samples[step])

    lines = [f"workload {workload}: seed {seed}, {len(passes)} passes "
             f"({len(timed)} untraced), {attempted} operations"]
    for name, value in named.items():
        lines.append(f"  {name} = {value:.6g} {_unit(name)}")
    refs = [r for p in timed for r in p.refs]
    ref = statistics.median(refs)
    lines.append(f"  ref = {ref:.6g} s (median of {len(refs)} reference runs)")
    lines.append(f"  failed_frac = {len(failures) / attempted:.6g} "
                 f"({len(failures)}/{attempted})")
    lines.extend(f"  FAILED {f}" for f in failures[:20])

    if trace:
        traced = [p for p in passes if p.traced]
        reports = [r for p in traced for r in p.reports]
        metrics = layers.layer_metrics(
            [r for _, r in reports], len(traced),
            statistics.median(p.wall for p in traced), named["wall_s"])
        lines.append("span tree (all traced passes):")
        lines.extend("  " + line for line in layers.span_tree(reports))
    else:
        metrics = {"wall_ref": {"value": named["wall_s"] / ref, "unit": "ref"}}
        for name in ("setup_s", "peak_rss_mb"):
            metrics[name] = {"value": named[name], "unit": _unit(name)}
        for i, step in enumerate(steps, start=1):
            seconds = named[step] / (1000 if step.endswith("_ms") else 1)
            metrics[f"step{i}_ref"] = {"value": seconds / ref, "unit": "ref"}
    return {"lines": lines,
            "result": {"correct": not failures, "attempted": attempted,
                       "failed": len(failures), "metrics": metrics}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    preflight()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print("machine " + json.dumps(machine_facts(args.seed)))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
