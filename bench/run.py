"""The rlp benchmark: one workload, timed end to end, outputs checked.

    python3 bench/run.py --workload {cli-1d,saddle-nd} --seed N --seconds S
                         --trace {0,1}

Run from anywhere inside a checkout of the repository; rlp is imported from
``src/`` (``PYTHONPATH=src``), never from an installed copy. Inputs come from
``bench/generate.py`` for the given seed and are written under
``bench/_work/``, as are the reports and a ``BENCH_*.json`` results file.

``--trace 0`` is the timed run. It runs one untimed warm-up task, then the
workload's tasks in order, cycling, with one closed-loop client, until the
tasks have taken ``--seconds`` seconds. Set-up time (fresh interpreter to
``import rlp`` done) is probed ``SETUP_PROBES`` times, spread evenly over
that loop and outside the task times. ``--trace 1`` probes set-up, then
measures one pass over the task list without and then with the per-layer
tracer of ``bench/spans.py``, then runs the Monte Carlo thread probe. See
``bench/README.md`` for the metrics.

Every task's output is checked. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every check passed. Without
``src/rlp`` the script exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from generate import DEFAULT_SEED, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
INPUTS = BENCH / "inputs"
REFERENCE = BENCH / "reference.json"

SETUP_PROBES = 9
TASK_TIMEOUT_S = 150.0
REFERENCE_TOL = 1e-6
TAIL_BEYOND = 10
THREAD_PROBE_TASKS = 3

END_TO_END = ("task_p50_s", "task_tail_s", "tasks_per_s", "setup_s", "peak_rss_mb")
UNITS = {"task_p50_s": "s", "task_tail_s": "s", "tasks_per_s": "1/s",
         "mpaths_per_s": "Mpaths/s", "setup_s": "s", "peak_rss_mb": "MB",
         "failed_frac": "ratio"}

# Per-layer metrics of the traced run: (name, unit, source). The source is
# ("calls" | "seconds" | "self_seconds" | "counts", span or counter name), or
# None for metrics computed in ``traced_metrics``.
_SPAN_LAYERS = ("model_io.load_model", "levy.validate_triplet", "levy.bounding_box",
                "scipy.linprog", "growth.vertex_values", "growth.smoothed",
                "growth.gradient", "optimizer.maximize_robust", "optimizer.project",
                "scipy.minimize_slsqp", "simulator.mc_expected_utility")
PER_LAYER = (
    [("startup.interpreter_s", "s", None), ("startup.import_rlp_s", "s", None),
     ("startup.import_scipy_optimize_s", "s", None), ("cli.command_s", "s", None),
     ("cli.overhead_s", "s", None),
     ("model_io.emit_report.s", "s", ("seconds", "model_io.emit_report")),
     ("levy.compile_box_to_vertices.s", "s",
      ("seconds", "levy.compile_box_to_vertices"))]
    + [(f"{layer}.{kind}", unit, (source, layer)) for layer in _SPAN_LAYERS
       for kind, unit, source in (("calls", "count", "calls"), ("s", "s", "seconds"))]
    + [("scipy.linprog.status_nonzero", "count", ("counts", "scipy.linprog.status_nonzero")),
       ("growth.jump_terms.count", "count", ("counts", "growth.jump_terms.count")),
       ("optimizer.ascent_iterations", "count", ("counts", "optimizer.ascent_iterations")),
       ("optimizer.levels_run", "count", ("counts", "optimizer.levels_run")),
       ("optimizer.find_saddle.s", "s", ("seconds", "optimizer.find_saddle")),
       ("optimizer.find_saddle.self_s", "s", ("self_seconds", "optimizer.find_saddle")),
       ("optimizer.verify_saddle.s", "s", ("seconds", "optimizer.verify_saddle")),
       ("optimizer.verify_saddle.self_s", "s",
        ("self_seconds", "optimizer.verify_saddle")),
       ("optimizer.best_response.calls", "count", ("calls", "optimizer.best_response")),
       ("scipy.minimize_slsqp.nit", "count", ("counts", "scipy.minimize_slsqp.nit")),
       ("scipy.minimize_slsqp.status_nonzero", "count",
        ("counts", "scipy.minimize_slsqp.status_nonzero")),
       ("simulator.paths", "count", ("counts", "simulator.paths")),
       ("simulator.mpaths_per_s", "Mpaths/s", None),
       ("simulator.thread_speedup_2", "ratio", None),
       ("trace.overhead_frac", "ratio", None)]
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------- provenance

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance() -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": _git_sha(),
            "platform": platform.platform()}


# ------------------------------------------------------------------ start-up

def probe_startup() -> tuple[float, float]:
    """(interpreter start, import rlp) seconds for one fresh interpreter.

    Both processes read CLOCK_MONOTONIC, which is system-wide, so the child's
    stamps compare with the parent's spawn time.
    """
    code = ("import time; t0 = time.clock_gettime(time.CLOCK_MONOTONIC); import rlp; "
            "print(t0, time.clock_gettime(time.CLOCK_MONOTONIC))")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=TASK_TIMEOUT_S, check=True)
    started, imported = (float(x) for x in out.stdout.split())
    return started - spawned, imported - started


def probe_scipy_optimize_share() -> float:
    """scipy.optimize's share of ``import rlp`` under ``-X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rlp"],
                         env=child_env(), cwd=ROOT, capture_output=True, text=True,
                         timeout=TASK_TIMEOUT_S, check=True)
    cumulative = {}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1])
    return cumulative["scipy.optimize"] / cumulative["rlp"]


# --------------------------------------------------------------------- tasks

@dataclass
class TaskRun:
    task: dict
    wall_s: float
    exit_code: int | None
    text: str
    problems: list[str] = field(default_factory=list)
    report: dict | None = None
    spans: dict | None = None


class Runner:
    """Runs one workload's tasks, in process or as fresh CLI processes."""

    def __init__(self, workload: str, seed: int, tasks: list[dict], input_dir: Path,
                 references: dict | None = None):
        """``references`` maps model and command to answers; by default the
        workload's table in reference.json. An empty dict checks no answers."""
        self.workload = workload
        self.seed = seed
        self.tasks = tasks
        self.input_dir = input_dir
        self.in_process = workload != "cli-1d"
        self.reports = input_dir / "reports"
        self.reports.mkdir(exist_ok=True)
        if references is None:
            references = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
        self.references = references
        self.answers: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def absorb(self, other: "Runner") -> None:
        """Count another runner's checks as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def check_inputs(self) -> None:
        """At the default seed the generator must reproduce bench/inputs/."""
        kept = INPUTS / self.workload
        if self.seed != DEFAULT_SEED or not kept.is_dir():
            return
        self._record([f"generated {path.name} differs from bench/inputs/"
                      f"{self.workload}/{path.name}"
                      for path in sorted(kept.iterdir())
                      if not (self.input_dir / path.name).is_file()
                      or (self.input_dir / path.name).read_bytes() != path.read_bytes()])

    def model_path(self, task: dict) -> Path:
        return ROOT / task["model"] if task["bundled"] else self.input_dir / task["model"]

    def argv(self, task: dict) -> list[str]:
        return [task["command"], "--model", str(self.model_path(task)), *task["args"]]

    def run(self, index: int, traced: bool = False) -> TaskRun:
        task = self.tasks[index % len(self.tasks)]
        if self.in_process:
            result = self._run_in_process(task, index)
        else:
            result = self._run_process(task, index, traced)
        self._check(result)
        self._record([f"{task['command']} {task['model']}: {p}" for p in result.problems])
        return result

    def _run_in_process(self, task: dict, index: int) -> TaskRun:
        import rlp.cli
        out = self.reports / f"task_{index % len(self.tasks):02d}.json"
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = rlp.cli.main(self.argv(task) + ["--out", str(out)])
        except Exception as exc:  # a crash is a failed task, not a crashed benchmark
            return TaskRun(task, time.perf_counter() - start, None, "",
                           [f"raised {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - start
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        return TaskRun(task, wall, code, text)

    def _run_process(self, task: dict, index: int, traced: bool) -> TaskRun:
        spans_path = self.reports / f"spans_{index % len(self.tasks):02d}.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "rlp.cli"]
        start = time.perf_counter()
        try:
            out = subprocess.run(cmd + self.argv(task), env=child_env(), cwd=ROOT,
                                 capture_output=True, text=True, timeout=TASK_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return TaskRun(task, time.perf_counter() - start, None, "",
                           [f"timed out after {TASK_TIMEOUT_S} s"])
        result = TaskRun(task, time.perf_counter() - start, out.returncode, out.stdout)
        if traced and spans_path.exists():
            result.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        return result

    def _check(self, run: TaskRun) -> None:
        problems = run.problems
        if problems:
            return
        if run.exit_code != 0:
            problems.append(f"exit code {run.exit_code}")
        if "NaN" in run.text:
            problems.append("NaN in the report")
        try:
            report = json.loads(run.text)
        except json.JSONDecodeError:
            problems.append("report is not valid JSON")
            return
        run.report = report
        if report.get("status") != 0:
            problems.append(f"report status {report.get('status')}")
        results = report.get("results", {})
        command = run.task["command"]
        if command == "saddle" and results.get("certified") is not True:
            problems.append("saddle not certified")
        if command == "simulate" and results.get("within_3p5_sigma") is not True:
            problems.append("Monte Carlo outside 3.5 sigma of the closed form")
        if command == "verify":
            if results.get("saddle", {}).get("certified") is not True:
                problems.append("saddle not certified")
            if results.get("independent_recheck", {}).get("passed") is not True:
                problems.append("independent recheck failed")
            if results.get("mc_vs_closed_form", {}).get("passed") is not True:
                problems.append("Monte Carlo outside 3.5 sigma of the closed form")
            if results.get("passed") is not True:
                problems.append("verification failed")
        try:
            answer = answer_of(command, results)
        except (KeyError, TypeError) as exc:
            problems.append(f"report lacks {exc}")
            return
        key = run.task["model"]
        self.answers.setdefault(key, {})[command] = answer
        if not self.references:
            return
        expected = self.references.get(key, {}).get(command)
        if expected is None:
            problems.append("no reference answer")
        else:
            problems.extend(compare_answer(answer, expected))


def answer_of(command: str, results: dict) -> dict:
    """The deterministic numbers of a report that references pin down."""
    if command == "validate":
        return {"kappa": results["kappa"]}
    if command == "solve":
        return {"y_hat": results["y_hat"], "robust_g": results["robust_g"],
                "value": results["value"]}
    if command == "saddle":
        return {"y_hat": results["y_hat"], "robust_g": results["value"]}
    if command == "verify":
        return {"y_hat": results["saddle"]["y_hat"], "robust_g": results["saddle"]["value"]}
    answer = {"closed_form": results["closed_form"], "mc_mean": results["mc"]["mean"]}
    if "solve" in results:
        answer.update(y_hat=results["solve"]["y_hat"], robust_g=results["solve"]["robust_g"])
    return answer


def compare_answer(answer: dict, expected: dict) -> list[str]:
    problems = []
    for name, want in expected.items():
        got = np.atleast_1d(np.asarray(answer.get(name, np.nan), dtype=float))
        want = np.atleast_1d(np.asarray(want, dtype=float))
        if got.shape != want.shape or not np.all(np.abs(got - want) <= REFERENCE_TOL):
            problems.append(f"{name} = {got.tolist()} differs from the reference "
                            f"{want.tolist()} by more than {REFERENCE_TOL}")
    return problems


# ------------------------------------------------------------------- metrics

def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). The rank is never below the
    upper median, so with fewer than 2 * TAIL_BEYOND samples the tail reads
    at or above the median, with the samples beyond it recorded.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_metrics(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of the timed loop.

    The loop's clock is the sum of task wall times. Set-up probe i runs once
    that sum reaches i / SETUP_PROBES of ``seconds``, so the probes sample the
    machine over the whole run; their time and the output checks are
    outside the clock.
    """
    runner.run(0)  # warm-up: lazy imports and first-call set-up
    times, probes, sim_paths, sim_time = [], [], 0, 0.0
    busy = 0.0
    index = 1
    while busy < seconds:
        if len(probes) < SETUP_PROBES and len(probes) * seconds <= busy * SETUP_PROBES:
            probes.append(probe_startup())
        run = runner.run(index)
        index += 1
        times.append(run.wall_s)
        busy += run.wall_s
        if run.task["command"] == "simulate" and run.report is not None:
            sim_paths += run.report["results"]["mc"]["n_paths"]
            sim_time += run.wall_s
    tail_value, tail_pct, beyond = tail(times)
    metrics = {
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail_value,
        "tasks_per_s": len(times) / busy,
        "setup_s": statistics.median(a + b for a, b in probes),
        "mpaths_per_s": sim_paths / sim_time / 1e6 if sim_time else None,
        "peak_rss_mb": peak_rss_mb(runner.in_process),
        "failed_frac": runner.failed / runner.attempted,
    }
    detail = {"timed_tasks": len(times), "busy_s": busy,
              "task_tail_percentile": tail_pct, "task_tail_samples_beyond": beyond,
              "task_times_s": times, "setup_probes_s": probes}
    return metrics, detail


def _one_pass(runner: Runner, traced: bool) -> tuple[float, list[TaskRun]]:
    runs = [runner.run(i, traced) for i in range(len(runner.tasks))]
    return sum(r.wall_s for r in runs), runs


def thread_speedup(runner: Runner) -> float:
    """Wall time of mc-paths tasks at RLP_THREADS=1 over RLP_THREADS=2.

    Runs the first THREAD_PROBE_TASKS mc-paths tasks of the same seed in the
    order 1, 2, 2, 1 threads, so a drift in machine speed cancels. Their
    checks count in ``runner``.
    """
    input_dir = WORK / f"mc-paths-seed{runner.seed}"
    tasks = generate("mc-paths", runner.seed, input_dir)[:THREAD_PROBE_TASKS]
    probe = Runner("mc-paths", runner.seed, tasks, input_dir)
    saved = os.environ.get("RLP_THREADS")
    walls = {"1": 0.0, "2": 0.0}
    try:
        for threads in ("1", "2", "2", "1"):
            os.environ["RLP_THREADS"] = threads
            walls[threads] += _one_pass(probe, traced=False)[0]
    finally:
        if saved is None:
            os.environ.pop("RLP_THREADS", None)
        else:
            os.environ["RLP_THREADS"] = saved
    runner.absorb(probe)
    return walls["1"] / walls["2"]


def traced_metrics(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced and one traced pass over the task list."""
    from spans import Tracer
    probes = [probe_startup() for _ in range(SETUP_PROBES)]
    runner.run(0)
    untraced_s, plain_runs = _one_pass(runner, traced=False)
    tracer = Tracer()
    if runner.in_process:
        tracer.install()
        try:
            traced_s, _ = _one_pass(runner, traced=True)
        finally:
            tracer.uninstall()
    else:
        traced_s, traced_runs = _one_pass(runner, traced=True)
        for run in traced_runs:
            if run.spans is not None:
                tracer.merge(run.spans)
    sources = {"calls": tracer.calls, "seconds": tracer.seconds,
               "self_seconds": tracer.self_seconds, "counts": tracer.counts}
    metrics = {name: float(sources[src[0]].get(src[1], 0)) for name, _, src in PER_LAYER
               if src is not None}
    command_s = sum(r.report["timings"]["total_s"] for r in plain_runs
                    if r.report is not None)
    mc_s = tracer.seconds.get("simulator.mc_expected_utility", 0.0)
    import_s = statistics.median(b for _, b in probes)
    metrics.update({
        "startup.interpreter_s": statistics.median(a for a, _ in probes),
        "startup.import_rlp_s": import_s,
        "startup.import_scipy_optimize_s": probe_scipy_optimize_share() * import_s,
        "cli.command_s": command_s,
        "cli.overhead_s": untraced_s - command_s,
        "simulator.mpaths_per_s":
            tracer.counts.get("simulator.paths", 0) / mc_s / 1e6 if mc_s else 0.0,
        "simulator.thread_speedup_2": thread_speedup(runner),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    detail = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
              "pass_tasks": len(runner.tasks), "setup_probes_s": probes}
    return {name: metrics[name] for name, _, _ in PER_LAYER}, detail


# ---------------------------------------------------------------------- main

def _print_summary(args, metrics: dict, units: dict, detail: dict, runner: Runner):
    print(f"rlp benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {detail.get('timed_tasks', detail.get('pass_tasks'))} "
          f"measured tasks, {runner.attempted} attempted, {runner.failed} failed")
    for name in units:
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>12s} {units[name]}")
    if "task_tail_percentile" in detail:
        print(f"  task_tail_s is p{detail['task_tail_percentile']:.1f}, "
              f"{detail['task_tail_samples_beyond']} samples beyond it")
    for problem in runner.problems[:20]:
        print(f"  FAILED {problem}")
        print(f"bench: FAILED {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "rlp" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no rlp sources under {SRC}; run inside a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    input_dir = WORK / f"{args.workload}-seed{args.seed}"
    runner = Runner(args.workload, args.seed, generate(args.workload, args.seed, input_dir),
                    input_dir)
    runner.check_inputs()
    if args.trace:
        shown, detail = traced_metrics(runner)
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = shown
    else:
        shown, detail = timed_metrics(runner, args.seconds)
        units = UNITS
        metrics = {name: shown[name] for name in END_TO_END}
    attempted, failed = runner.attempted, runner.failed
    _print_summary(args, shown, units, detail, runner)
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
        "detail": detail,
        "attempted": attempted, "failed": failed, "problems": runner.problems,
        "answers": runner.answers,
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
