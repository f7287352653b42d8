"""Benchmark of the ``ifgame`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload ex1-solve --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seconds 38

Each workload is a closed loop with a single client: one ``python -m
ifgame`` process at a time, the next started when the previous one has
exited and its outputs are checked.  Invocation ``i`` of a run passes
``--seed 1000 * seed + i`` to the CLI, which seeds the Pareto starts and
the Monte-Carlo draw, so the same ``--seed`` gives the same inputs.

``--trace 0`` times child processes and reports the end-to-end metrics,
with times rescaled to a reference host speed that a probe thread
measures on the children's core while they run (see ``speed.py``); this
process and its children are pinned to that one core.
``--trace 1`` runs ``ifgame.cli.main`` inside this process, alternately
untraced and traced (see ``layers.py``), and reports the per-layer
metrics.  Children and this process both run with the BLAS pinned to one
thread.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import layers
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# On a few small cores OpenBLAS's default thread pool mostly measures the
# scheduler on these tiny batched eigenproblems; one thread keeps the load
# at or below nproc.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# Set-up launches after each CLI run; spread over the run, they sample the
# host's speed at the same moments as the CLI runs do, and a batch is long
# enough for several speed samples.
SETUP_LAUNCHES_PER_STEP = 4
# A hung child is killed well inside the 180 s budget of one run.
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = ("import sys\n"
              "from ifgame.config import load_config_file\n"
              "from ifgame.experiments import build_game\n"
              "build_game(load_config_file(sys.argv[1]))\n")

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    check: Callable


WORKLOADS = {
    # all three solvers on 512 states; AL multi_start is ~4/5 of the run
    "ex1-solve": Workload("solve", "configs/example1.json", checks.solve_all),
    # VI only at 8 budgets, positive definite but not contractive
    "vi-sweep": Workload("sweep", "configs/pd_not_contractive.json", checks.vi_sweep),
    # 65 536 states: condition checks, IWF at scale, MC draw, 13 MB output
    "n4-simulate": Workload("simulate", "perfbench/n4_simulate.json",
                            checks.simulate_iwf),
    # 16 states, for perfbench/smoke.py; not a benchmark workload
    "smoke": Workload("solve", "perfbench/smoke.json", checks.solve_all),
}
BENCHMARK_WORKLOADS = [name for name in WORKLOADS if name != "smoke"]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {name}: {problem}", file=sys.stderr)


def check_outputs(workload, code, out, config):
    """The workload's check, with unreadable outputs reported as problems."""
    try:
        return workload.check(code, out, config)
    except (OSError, LookupError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def invocation_seed(seed, i):
    return 1000 * seed + i


def cli_argv(workload, out, seed):
    return [workload.command, "--config", str(ROOT / workload.config),
            "--out", str(out), "--seed", str(seed)]


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass(frozen=True)
class Child:
    code: int
    start: float  # time.perf_counter() at spawn
    end: float    # time.perf_counter() at exit
    cpu: float    # user + system seconds
    rss_mb: float

    @property
    def wall(self):
        return self.end - self.start


def run_child(argv, log):
    """Run one child to completion and return its ``Child`` record.

    Wall time runs from spawn to exit; CPU time and peak RSS come from
    ``wait4``'s resource usage of that child alone.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, end, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def _stderr_tail(log):
    text = Path(log).read_text(encoding="utf-8", errors="replace").strip()
    return text.splitlines()[-1] if text else ""


def _loop(seconds, step):
    """Call ``step(i)`` until the measured time reaches ``seconds``, give or
    take half a step: a run ends near ``seconds`` whatever a step costs."""
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i == 0 or time.perf_counter() - start + 0.5 * last < seconds:
        began = time.perf_counter()
        step(i)
        last = time.perf_counter() - began
        i += 1


def timed_run(name, seed, seconds, scratch):
    """End-to-end metrics of one workload, measured in child processes.

    Times are rescaled to the reference speed of ``speed.SpeedProbe``:
    a CLI child's wall and CPU time by the probe's factor over the
    child's own run, a set-up launch's by the factor over its batch of
    launches.
    """
    workload = WORKLOADS[name]
    config = json.loads((ROOT / workload.config).read_text(encoding="utf-8"))
    tally = Tally()
    setup_argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / workload.config)]
    setup_log = scratch / "setup.log"
    samples, setups, raw = [], [], []

    def launch_setup():
        child = run_child(setup_argv, setup_log)
        tally.record("setup", [] if child.code == 0 else
                     [f"exit code {child.code}: {_stderr_tail(setup_log)}"])
        return child

    def step(i):
        out = scratch / f"out{i}"
        log = scratch / "cli.log"
        argv = [sys.executable, "-m", "ifgame",
                *cli_argv(workload, out, invocation_seed(seed, i))]
        child = run_child(argv, log)
        problems = check_outputs(workload, child.code, out, config)
        if child.code != 0:
            problems.append(_stderr_tail(log))
        tally.record(name, problems)
        shutil.rmtree(out, ignore_errors=True)
        factor = probe.factor(child.start, child.end)
        samples.append((child.wall / factor, child.cpu / factor, child.rss_mb))
        raw.append((child.wall, child.cpu, factor))
        batch = [launch_setup() for _ in range(SETUP_LAUNCHES_PER_STEP)]
        factor = probe.factor(batch[0].start, batch[-1].end)
        setups.extend(child.wall / factor for child in batch)

    with speed.SpeedProbe() as probe:
        launch_setup()  # compiles the bytecode, which users do not pay on every run
        _loop(seconds, step)
    walls, cpus, rsss = zip(*samples)
    metrics = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rsss)}
    raw_walls, raw_cpus, factors = zip(*raw)
    print(f"{name}: {len(samples)} CLI runs, seeds "
          f"{invocation_seed(seed, 0)}..{invocation_seed(seed, len(samples) - 1)}; "
          f"raw wall_s median {statistics.median(raw_walls):.3f} "
          f"(min {min(raw_walls):.3f}, max {max(raw_walls):.3f}), raw cpu_s median "
          f"{statistics.median(raw_cpus):.3f}; host speed factor "
          f"{min(factors):.3f}..{max(factors):.3f}; rescaled wall_s "
          + " ".join(f"{w:.3f}" for w in walls))
    return metrics, tally


def traced_run(name, seed, seconds, scratch):
    """Per-layer metrics of one workload from in-process CLI runs.

    Untraced and traced calls of ``ifgame.cli.main`` alternate, all with
    the seed of the first timed invocation, so every count must repeat
    exactly; times are medians over the traced calls.
    """
    from ifgame import cli
    from ifgame.config import load_config_file
    from ifgame.experiments import build_game

    workload = WORKLOADS[name]
    config = json.loads((ROOT / workload.config).read_text(encoding="utf-8"))
    cli_seed = invocation_seed(seed, 0)
    tally = Tally()
    untraced, traced, span_sets = [], [], []

    def call_main(out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cli_argv(workload, out, cli_seed))
        problems = check_outputs(workload, code, out, config)
        shutil.rmtree(out, ignore_errors=True)
        return problems

    def step(i):
        start = time.perf_counter()
        problems = call_main(scratch / f"plain{i}")
        untraced.append(time.perf_counter() - start)
        tally.record(name, problems)
        with layers.Tracer() as tracer:
            layers.install(tracer)
            problems = call_main(scratch / f"traced{i}")
        gap = layers.unaccounted_s(tracer.spans)
        if abs(gap) > 1e-6:
            problems.append(f"span self times miss {gap!r} s of the traced wall time")
        tally.record(f"{name} traced", problems)
        traced.append(layers.span_metrics(tracer.spans))
        span_sets.append(tracer.spans)

    _loop(seconds, step)
    units = dict(layers.LAYER_METRICS)
    metrics = {}
    for key in traced[0]:
        values = [m[key] for m in traced]
        if units[key] in ("count", "B", "ratio"):
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                tally.record(f"{name} traced", [f"{key} differs between runs "
                                                f"with one seed: {values}"])
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                      / statistics.median(untraced) - 1.0)
    spec, space = build_game(load_config_file(ROOT / workload.config))
    metrics["waterfilling.levels_ms"] = layers.probe_levels_ms(spec, space)
    try:
        metrics["pareto.ascent_step_ms"] = layers.probe_ascent_step_ms(
            spec, space, cli_seed)
        tally.record("ascent probe", [])
    except RuntimeError as exc:
        metrics["pareto.ascent_step_ms"] = 0.0
        tally.record("ascent probe", [str(exc)])
    return {key: metrics[key] for key, _ in layers.LAYER_METRICS}, tally, span_sets


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def env_record():
    """Machine, toolchain and code identity of a result."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "ifgame").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": BLAS_ENV,
            "git_commit": _git_commit(),
            "src_sha256": digest.hexdigest()}


def _missing_inputs(names):
    needed = [SRC / "ifgame" / "cli.py"] + [ROOT / WORKLOADS[n].config for n in names]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (numpy seeds the CLI with it)")
    names = BENCHMARK_WORKLOADS if args.workload == "all" else [args.workload]

    missing = _missing_inputs(names)
    if missing:
        print(f"error: not an ifgame checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.update(BLAS_ENV)  # before numpy loads, for the in-process runs
    sys.path.insert(0, str(SRC))
    env = env_record()
    if not args.trace:
        # children inherit this; the speed probe must share their core
        env["pinned_cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {env["pinned_cpu"]})
        env["speed_reference_s"] = speed.REFERENCE_S
    units = dict(layers.LAYER_METRICS if args.trace else END_TO_END)
    SCRATCH.mkdir(exist_ok=True)
    total = Tally()
    metrics = {}
    rows = []
    for name in names:
        scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
        try:
            if args.trace:
                values, tally, span_sets = traced_run(name, args.seed, args.seconds,
                                                      scratch)
                spans_path = SCRATCH / f"spans-{name}-seed{args.seed}.json"
                spans_path.write_text(json.dumps(
                    {"workload": name, "seed": args.seed, "env": env,
                     "runs": span_sets}) + "\n", encoding="utf-8")
                print(f"spans written to {spans_path.relative_to(ROOT)}")
            else:
                values, tally = timed_run(name, args.seed, args.seconds, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        total.attempted += tally.attempted
        total.failed += tally.failed
        fail_frac = tally.failed / tally.attempted
        rows.append((name, values, fail_frac))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: {"value": value, "unit": units[key]}
                        for key, value in values.items()})

    for name, values, fail_frac in rows:
        print(f"== {name}")
        for key, value in values.items():
            print(f"  {key:30s} {value:14.6g} {units[key]}")
        print(f"  {'fail_frac':30s} {fail_frac:14.6g} (failed / attempted)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
