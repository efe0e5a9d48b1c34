"""Outside-in benchmark of the apspectra command line.

    python3 perfbench/run.py --workload spectrum|orbit|averages|all
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-reference

Each workload is a fixed subset of the twelve determinism configs (see
workloads.py).  A *pass* runs every command of the workload once, in
order, each as the user runs it: a fresh interpreter that calls
``apspectra.cli:main`` with ``--threads 1``, one at a time.  Passes
repeat until the next one would overrun ``--seconds`` (at least two, so
repetitions can be compared byte for byte).  Every artifact is checked
(checks.py); a command that exits non-zero or fails a check counts as
failed.  Verdict fields are compared with reference.json, which holds
them for the default seed and the held-out seed.  For any other seed,
configs that the seed does not change are compared with the default
seed's fields, and the seeded ones on their seed-invariant fields.  ``--record-reference`` rewrites that file from the current code.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as
medians over passes: pass wall time, child CPU time, interpreter set-up
time and the largest per-command peak RSS.  ``--trace 1`` alternates
untraced passes with traced ones (child.py) and reports the per-layer
metrics, including the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are for people.

The program is run from ``src/`` of the checkout this file sits in.
Work files go to ``.perfbench_work/`` there and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from checks import CheckFailed, check_outputs, compare, hash_outputs
from tracer import read_spans, summarize
from workloads import (DEFAULT_SEED, DETERMINISM_CONFIGS, HELD_OUT_SEED,
                       SEED_INVARIANT_FIELDS, WORKLOADS, write_configs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 7
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 150.0
# Frequencies may move in the last digits (e.g. a new refinement method);
# one FFT bin of the smallest spectrum grid is 6e-5.
THETA_TOL = 1e-6

UNTRACED = ("from apspectra.cli import main; "
            "main(prog_name='apspectra')")
SETUP = "import apspectra.cli"


@dataclass
class Command:
    id: str
    index: int
    name: str
    cfg: dict
    path: Path


@dataclass
class Execution:
    command: Command
    wall: float
    cpu: float
    rss_mb: float
    error: str | None = None
    root: float | None = None       # traced: duration of the cli.main span
    attributed: float | None = None  # traced: sum of layer self times


@dataclass
class Pass:
    traced: bool
    runs: list[Execution] = field(default_factory=list)
    layers: dict | None = None

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.runs)

    @property
    def rss_mb(self) -> float:
        return max(r.rss_mb for r in self.runs)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.pop("APSPECTRA_THREADS", None)
    # Commands run single-threaded (--threads 1), and numpy's BLAS pool is
    # held to one thread as well: its idle threads spin on a free CPU, which
    # made cpu_s jump by about 0.7 s on averages with the other tenants' load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, float, int]:
    """Run one child to completion: (wall s, cpu s, peak RSS MiB, exit code)."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=sink,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux and is this child's own peak.
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


class Runner:
    """Runs and checks the commands of one workload for one seed.

    With ``reference=None`` (recording) only the content checks run.
    """

    def __init__(self, indices, seed: int, workdir: Path,
                 reference: dict | None):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.env = child_env()
        configs = write_configs(seed, workdir / "configs")
        self.commands = [Command(f"cfg{i}", i, *configs[i]) for i in indices]
        self.hashes: dict[str, dict] = {}
        self.fields: dict[str, dict] = {}

    def _reference_for(self, cmd: Command) -> dict | None:
        """The verdict fields this seed must reproduce for one command."""
        if self.reference is None:
            return None
        seeds = self.reference["seeds"]
        if str(self.seed) in seeds:
            return seeds[str(self.seed)][cmd.id]
        default = seeds[str(DEFAULT_SEED)][cmd.id]
        if cmd.index not in SEED_INVARIANT_FIELDS:
            return default
        return {k: default[k] for k in SEED_INVARIANT_FIELDS[cmd.index]}

    def _check(self, cmd: Command, out: Path) -> None:
        if cmd.id in self.hashes:
            if hash_outputs(out) != self.hashes[cmd.id]:
                raise CheckFailed("artifacts differ from the first repetition")
            return
        hashes, fields = check_outputs(cmd.name, cmd.cfg, out)
        reference = self._reference_for(cmd)
        if reference is not None:
            problems = compare(fields, reference, self.reference["theta_tol"])
            if problems:
                raise CheckFailed("; ".join(problems))
        self.hashes[cmd.id] = hashes
        self.fields[cmd.id] = fields

    def setup_once(self) -> float:
        log = self.workdir / "setup.log"
        wall, _, _, code = spawn([sys.executable, "-c", SETUP], self.env, log)
        if code != 0:
            raise RuntimeError(f"importing apspectra.cli failed:\n"
                               f"{log.read_text(errors='replace')}")
        return wall

    def run_pass(self, number: int, traced: bool) -> Pass:
        result = Pass(traced)
        spans = []
        for cmd in self.commands:
            tag = f"{number}-{cmd.id}"
            out = self.workdir / f"out-{tag}"
            log = self.workdir / f"log-{tag}.txt"
            trace_file = self.workdir / f"trace-{tag}.jsonl"
            argv = [sys.executable]
            argv += ([str(HERE / "child.py"), str(trace_file), cmd.id, "--"]
                     if traced else ["-c", UNTRACED])
            argv += [cmd.name, "--config", str(cmd.path), "--out", str(out),
                     "--threads", "1"]
            wall, cpu, rss, code = spawn(argv, self.env, log)
            run = Execution(cmd, wall, cpu, rss)
            try:
                if code != 0:
                    tail = log.read_text(errors="replace")[-400:]
                    raise CheckFailed(f"exit code {code}: {tail}")
                self._check(cmd, out)
            except CheckFailed as exc:
                run.error = str(exc)
            if traced and trace_file.is_file():
                own = read_spans(trace_file)
                layers = summarize(own)
                run.root = layers["trace.root_s"]
                run.attributed = run.root * layers["trace.attributed_share"]
                spans.extend(own)
            result.runs.append(run)
            shutil.rmtree(out, ignore_errors=True)
            for path in (log, trace_file):
                path.unlink(missing_ok=True)
        if traced:
            result.layers = summarize(spans)
            result.layers["trace.gap_s"] = (result.wall
                                            - result.layers["trace.root_s"])
        return result


def measure(runner: Runner, seconds: float, trace: bool):
    """Setup samples (untraced runs only) and passes until the time is used."""
    deadline = time.perf_counter() + seconds
    setup = []
    if not trace:
        runner.setup_once()  # compiles bytecode and warms the file cache
        setup = [runner.setup_once() for _ in range(SETUP_SAMPLES)]
    passes: list[Pass] = []
    while True:
        passes.append(runner.run_pass(len(passes), trace and len(passes) % 2 == 1))
        longest = max(p.wall for p in passes)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() + longest > deadline):
            return setup, passes


def end_to_end(setup, passes):
    """Medians over passes (over interpreter starts for setup_s)."""
    samples = {
        "pass_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [p.rss_mb for p in passes],
    }
    notes = {k: f"median of n={len(v)} "
                f"{'interpreter starts' if k == 'setup_s' else 'passes'}, "
                f"min {min(v):.4g}, max {max(v):.4g}"
             for k, v in samples.items()}
    lines = [f"  {r.command.id:<6} {r.command.name:<9} wall s per pass: "
             + " ".join(f"{p.runs[i].wall:.3f}" for p in passes)
             for i, r in enumerate(passes[0].runs)]
    return {k: statistics.median(v) for k, v in samples.items()}, notes, lines


def per_layer(passes):
    """Medians over traced passes; overhead against the untraced ones."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = {key: statistics.median(p.layers[key] for p in traced)
               for key in traced[0].layers}
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                   - statistics.median(p.wall for p in plain))
    notes = dict.fromkeys(metrics, f"median of n={len(traced)} traced passes")
    notes["trace.overhead_s"] = (f"traced minus untraced pass_s, "
                                 f"n={len(traced)} and n={len(plain)} passes")
    lines = ["  last traced pass: command, wall s, cli.main span s, sum of "
             "layer self times s, gap s (interpreter start and exit)"]
    lines += [f"  {r.command.id:<6} {r.command.name:<9} {r.wall:9.4f} "
              f"{r.root or 0.0:9.4f} {r.attributed or 0.0:9.4f} "
              f"{r.wall - (r.root or 0.0):9.4f}" for r in traced[-1].runs]
    return metrics, notes, lines


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "git_commit": commit}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    runner = Runner(WORKLOADS[name], seed, workdir, load_reference())
    setup, passes = measure(runner, seconds, trace)
    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.error is not None]
    values, notes, lines = (per_layer(passes) if trace
                            else end_to_end(setup, passes))
    units = declared_metrics(trace)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")

    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{len(passes)} passes of {len(runner.commands)} commands")
    for line in lines:
        print(line)
    for r in failed:
        print(f"  FAILED {r.command.id} {r.command.name}: {r.error}")
    print(f"  failed_share {len(failed)}/{len(runs)} = "
          f"{len(failed) / len(runs):.4g} ratio")
    for metric, unit in units.items():
        print(f"  {metric:<32} {values[metric]:<12.6g} {unit:<6} "
              f"{notes[metric]}")
    return {"correct": not failed, "attempted": len(runs),
            "failed": len(failed),
            "metrics": {m: {"value": values[m], "unit": u}
                        for m, u in units.items()}}


def record_reference(workdir: Path) -> int:
    """Store the verdict fields of every config for the two recorded seeds."""
    seeds = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        runner = Runner(range(len(DETERMINISM_CONFIGS)), seed,
                        workdir / f"seed-{seed}", None)
        failed = [r for r in runner.run_pass(0, False).runs if r.error]
        if failed:
            for r in failed:
                print(f"FAILED {r.command.id}: {r.error}", file=sys.stderr)
            return 1
        seeds[str(seed)] = runner.fields
    REFERENCE.write_text(json.dumps(
        {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
         "theta_tol": THETA_TOL, "seeds": seeds}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "apspectra" / "cli.py").is_file():
        print(f"error: no apspectra sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.record_reference:
            return record_reference(workdir)
        print("environment: " + json.dumps(environment(), sort_keys=True))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), workdir / name)
                   for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
