"""Benchmark of the ``qaoa-e3lin2`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analytic-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1           # every workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1 # per-layer numbers
    python3 perfbench/run.py --workload all --seed 1 --check   # outputs only

One client runs the workload's commands in a closed loop, one command at a
time, each in a fresh interpreter, the way a user runs the CLI. With
``--trace 0`` it reports end-to-end metrics; with ``--trace 1`` it
alternates untraced passes with passes in which ``tracer.py`` wraps every
public function, and reports per-layer metrics. End-to-end numbers are never
taken from a traced pass. Every output is checked after the timed region;
the last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from checks import check
from layers import UNITS as LAYER_UNITS
from layers import is_count, layer_metrics
from reference import CHECKSUM as REFERENCE_CHECKSUM
from workloads import KIND_METRIC, WORKLOADS, Command, Plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.py"
SCHEMA = ROOT / "docs" / "cli_schema.json"
ENTRY = "import sys; sys.argv[0] = 'qaoa-e3lin2'; from qaoa_e3lin2.cli import main; sys.exit(main())"

COMMAND_TIMEOUT_S = 120.0
SETUP_REPEATS = 5
MIN_PASSES = 3
#: A timing's tail percentile needs this many samples beyond it.
TAIL_SAMPLES = 10

#: Thread caps for the commands: on a host with few cores, a pool of BLAS
#: threads spinning beside a command would add its spin to the command's CPU
#: time.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: CPU seconds of ``reference.py`` on the host that scaled times are quoted
#: for; about its median on an idle 2-vCPU Xeon VM.
REFERENCE_CPU_S = 0.4

E2E_UNITS = {
    "pass_s": "s",
    "setup_s": "s",
    "cmd1_s": "s",
    "cmd2_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    seconds: float
    cpu_seconds: float
    rss_mb: float
    returncode: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its resource usage; kill it after ``timeout``.

    If the benchmark itself is interrupted, the child is killed and reaped
    before the exception propagates, so no command outlives the benchmark.
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, timed_out


def child_env() -> dict[str, str]:
    """The caller's environment, running the checkout's sources with default caps.

    BLAS runs single-threaded (``THREAD_CAPS``). A fixed hash seed keeps set
    iteration, and with it the work a command does, the same in every run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("E3LIN2_")}
    env.update(THREAD_CAPS, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", TMPDIR=str(WORK))
    return env


def run_command(argv, work: Path, traced_as: tuple[Path, int] | None = None) -> Outcome:
    """Run one CLI command in a fresh interpreter and time it end to end."""
    if traced_as is None:
        return spawn([sys.executable, "-c", ENTRY, *argv], work)
    spans_path, command_id = traced_as
    return spawn([sys.executable, str(TRACER), str(spans_path), str(command_id), *argv], work)


def reference_cpu(work: Path) -> float:
    """CPU seconds of one run of ``reference.py``, checked against its checksum."""
    outcome = spawn([sys.executable, str(REFERENCE)], work)
    if outcome.returncode != 0 or outcome.stdout.decode().strip() != REFERENCE_CHECKSUM:
        raise RuntimeError(f"reference task failed: {outcome.stderr.decode(errors='replace')[-500:]}")
    return outcome.cpu_seconds


def spawn(full: list[str], work: Path) -> Outcome:
    """Run ``full`` to completion and measure it."""
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            full, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        usage, timed_out = _wait(proc, COMMAND_TIMEOUT_S)
        seconds = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        cpu = usage.ru_utime + usage.ru_stime
        return Outcome(
            seconds, cpu, usage.ru_maxrss / 1024.0, proc.returncode, timed_out, out.read(), err.read()
        )


@dataclass
class Ledger:
    """Attempts, failures and the first output of every command key."""

    validator: jsonschema.protocols.Validator
    attempts: list[tuple[Command, str | None]] = field(default_factory=list)
    first: dict[str, tuple[Command, bytes]] = field(default_factory=dict)

    def add(self, cmd: Command, outcome: Outcome) -> None:
        if outcome.timed_out:
            reason = f"timed out after {COMMAND_TIMEOUT_S} s"
        elif outcome.returncode != 0:
            tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
            reason = f"exit {outcome.returncode}: {' '.join(tail)}"
        else:
            reference = self.first.setdefault(cmd.key, (cmd, outcome.stdout))[1]
            reason = None if outcome.stdout == reference else "stdout differs from the first run"
        self.attempts.append((cmd, reason))

    def finish(self) -> tuple[int, int, list[str]]:
        """Check each command's output once; return (attempted, failed, problems)."""
        bad_keys: dict[str, str] = {}
        for key, (cmd, stdout) in self.first.items():
            try:
                doc = json.loads(stdout)
                errors = [e.message for e in self.validator.iter_errors(doc)]
            except ValueError as exc:
                doc, errors = None, [f"not JSON: {exc}"]
            problems = errors or check(cmd.kind, doc, ROOT)
            if problems:
                bad_keys[key] = "; ".join(problems)
        failures = [
            f"{cmd.key}: {reason or bad_keys[cmd.key]}"
            for cmd, reason in self.attempts
            if reason or cmd.key in bad_keys
        ]
        return len(self.attempts), len(failures), sorted(set(failures))


def schema_validator():
    return jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))


def tail_percentile(samples: list[float]):
    """(percentile, value) of the highest percentile with TAIL_SAMPLES beyond it."""
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return None
    return 100.0 * (n - TAIL_SAMPLES) / n, sorted(samples)[n - TAIL_SAMPLES - 1]


def describe(name: str, samples: list[float], unit: str) -> str:
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.4f}" if tail else f"p-tail n/a (<{TAIL_SAMPLES + 1} samples)"
    return f"  {name:<34} median {statistics.median(samples):.6g} {unit:<5} {tail_text}  n={len(samples)}"


class Workload:
    """One workload at one seed: its files, its commands and its ledger."""

    def __init__(self, name: str, seed: int, validator):
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        for stale in self.work.iterdir():
            stale.unlink()
        self.plan: Plan = WORKLOADS[name](seed, self.work.relative_to(ROOT))
        self.ledger = Ledger(validator)
        self.next_id = 0

    def run(self, commands, traced: bool = False):
        """Run ``commands`` in order; returns (wall seconds, outcomes, spans)."""
        results = []
        start = time.perf_counter()
        for cmd in commands:
            traced_as = None
            if traced:
                self.next_id += 1
                traced_as = (self.work / f"spans-{self.next_id}.json", self.next_id)
            results.append((cmd, run_command(cmd.argv, self.work, traced_as), traced_as))
        wall = time.perf_counter() - start
        spans = []
        for cmd, outcome, traced_as in results:
            self.ledger.add(cmd, outcome)
            if traced_as is not None and traced_as[0].exists():
                spans.append((json.loads(traced_as[0].read_text())["spans"], len(outcome.stdout)))
                traced_as[0].unlink()
        return wall, [(cmd, outcome) for cmd, outcome, _ in results], spans

    def setup(self, traced: bool = False):
        """Write the instance files; returns (CPU seconds, wall seconds, spans).

        Both times cover the ``gen`` commands and the benchmark deriving its
        own files from them.
        """
        wall, results, spans = self.run(self.plan.setup, traced)
        start, cpu_start = time.perf_counter(), time.process_time()
        self.plan.derive()
        wall += time.perf_counter() - start
        cpu = time.process_time() - cpu_start + sum(outcome.cpu_seconds for _, outcome in results)
        return cpu, wall, spans


def end_to_end(wl: Workload, seconds: float):
    """Untraced closed loop; returns (metrics, report lines).

    The reference task runs before the first set-up and after every set-up
    and pass, so its runs are spread through the run like the samples. A
    sample's declared time is its CPU seconds (user + sys of its commands,
    from ``wait4``) times ``REFERENCE_CPU_S`` over the median CPU seconds of
    the reference in this run: what the sample takes on a host where the
    reference takes ``REFERENCE_CPU_S``. Raw CPU and wall times are printed
    beside it.
    """
    refs = [reference_cpu(wl.work)]
    # (cpu, wall) seconds per set-up, per pass and per command kind in a pass
    rows: dict[str, list[tuple[float, float]]] = {"setup": [], "pass": []}
    for _ in range(SETUP_REPEATS):
        rows["setup"].append(wl.setup()[:2])
        refs.append(reference_cpu(wl.work))
    passes, rss = 0, 0.0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, results, _ = wl.run(wl.plan.commands)
        refs.append(reference_cpu(wl.work))
        passes += 1
        sums = {}
        for cmd, outcome in results:
            cpu_sum, wall_sum = sums.get(cmd.kind, (0.0, 0.0))
            sums[cmd.kind] = (cpu_sum + outcome.cpu_seconds, wall_sum + outcome.seconds)
            rss = max(rss, outcome.rss_mb)
        sums["pass"] = (sum(cpu for cpu, _ in sums.values()), wall)
        for key, row in sums.items():
            rows.setdefault(key, []).append(row)

    factor = REFERENCE_CPU_S / statistics.median(refs)
    scaled = {key: [cpu * factor for cpu, _ in samples] for key, samples in rows.items()}
    first, second = wl.plan.roles
    metrics = {
        "pass_s": statistics.median(scaled["pass"]),
        "setup_s": statistics.median(scaled["setup"]),
        "cmd1_s": statistics.median(scaled[first]),
        "cmd2_s": statistics.median(scaled[second]),
        "peak_rss_mb": rss,
    }
    lines = [
        f"{passes} passes; closed loop, 1 client, one fresh interpreter per command",
        describe("reference_cpu_s", refs, "s"),
    ]
    roles = {"setup": f" ({SETUP_REPEATS} set-ups)", first: " = cmd1_s", second: " = cmd2_s"}
    for key, samples in rows.items():
        stem = KIND_METRIC[key].removesuffix("_s") if key in KIND_METRIC else key
        lines.append(describe(f"{stem}_s{roles.get(key, '')}", scaled[key], "s"))
        lines.append(describe(f"{stem}_cpu_s", [cpu for cpu, _ in samples], "s"))
        lines.append(describe(f"{stem}_wall_s", [wall for _, wall in samples], "s"))
    lines.append(f"  {'peak_rss_mb':<34} max {rss:.1f} MB (MiB, from wait4)")
    return metrics, lines


def traced_run(wl: Workload, seconds: float):
    """Alternate untraced and traced passes; returns (metrics, report lines, problems)."""
    plain, with_spans, runs = [], [], []
    start = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - start < seconds:
        *_, setup_spans = wl.setup(traced=True)
        plain.append(wl.run(wl.plan.commands)[0])
        wall, _, spans = wl.run(wl.plan.commands, traced=True)
        with_spans.append(wall)
        runs.append(layer_metrics(setup_spans + spans))
    metrics, problems = {}, []
    for name in runs[0]:
        values = [run[name] for run in runs]
        if is_count(name):
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced passes: {values}")
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(with_spans) - statistics.median(plain)
    lines = [f"{len(runs)} traced passes (with set-up) alternating with {len(plain)} untraced"]
    for name, unit in LAYER_UNITS.items():
        note = ""
        if name == "analytic.histogram_reuse_ratio":
            note = f"  (base: {metrics['analytic.histogram_calls']} histogram calls)"
        elif name == "typical.useful_ratio":
            note = f"  (base: {metrics['typical.sign_vectors']} sign vectors)"
        elif name in ("statevector.bytes_computed", "analytic.enumerated_assignments"):
            note = "  (computed, not measured)"
        lines.append(f"  {name:<34} {metrics[name]:.6g} {unit}{note}")
    return metrics, lines, problems


def git_sha() -> str:
    git = ROOT / ".git"
    if not git.is_dir():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split(" ")[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="check outputs only, time nothing")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qaoa_e3lin2" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"{ROOT} holds no qaoa-e3lin2 sources to benchmark", file=sys.stderr)
        return 2
    validator = schema_validator()
    os.chdir(ROOT)  # instance paths in the plans are relative to the checkout
    mode = "check" if args.check else ("traced" if args.trace else "end-to-end")
    print("env " + json.dumps(environment(args.seed)))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        wl = Workload(name, args.seed, validator)
        problems = []
        if args.check:
            wl.setup()
            wl.run(wl.plan.commands)
            wl.run(wl.plan.commands)
            found, lines = {}, []
        elif args.trace:
            found, lines, problems = traced_run(wl, args.seconds)
        else:
            found, lines = end_to_end(wl, args.seconds)
        tried, bad, failures = wl.ledger.finish()
        attempted += tried
        failed += bad + len(problems)
        units = LAYER_UNITS if args.trace else E2E_UNITS
        print(f"== {name} seed={args.seed} mode={mode}: " + (lines[0] if lines else "2 passes"))
        for line in lines[1:]:
            print(line)
        print(f"  {'error_rate':<34} {bad} failed / {tried} attempted = {bad / tried:.4g}")
        for problem in failures + problems:
            print(f"  FAILED {problem}")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in found.items()}
        )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
