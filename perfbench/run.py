"""exspec benchmark: end-to-end CLI workloads and a traced per-layer run.

Run from the root of a checkout (the package need not be installed):

    python3 perfbench/run.py --workload tail-norm-n64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload oracles --seed 1 --seconds 1 --trace 1 --smoke

Every CLI invocation runs in a fresh Python process with PYTHONPATH=src and
with EXSPEC_THREADS, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS unset, as a
user's default would be. An untraced run cycles short invocations of the
workload through its input sets until --seconds have passed, and checks
every output and that repeats wrote identical bytes. For times it reports
the median over the input sets of each set's median repeat. A traced run
makes one untraced and one traced invocation and the kernel
microbenchmarks, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Operations are CLI commands; the error rate
is failed / attempted. The exit code is 0 when every output was correct.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 3  # import-only children; every invocation adds one more sample
THREAD_VARIABLES = ("EXSPEC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# Repetitions per size; the median is reported. n=1024 takes seconds per call.
KERNEL_REPS = {"32": 101, "64": 51, "256": 11, "512": 5, "1024": 1}


class Runner:
    """Starts child processes in one checkout and collects their results."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        self.env["PYTHONPATH"] = str(root / "src")
        # Users import from cached bytecode; the warm-up child writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.jobs = 0

    def child(self, argvs, trace=False, kernels=None, env=False) -> dict | None:
        """Run one child; returns its result, or None if it produced none."""
        self.jobs += 1
        job = self.work / f"job{self.jobs}.json"
        result = self.work / f"result{self.jobs}.json"
        job.write_text(json.dumps({"argvs": argvs, "trace": trace, "kernels": kernels,
                                   "env": env, "result": str(result)}))
        try:
            subprocess.run([sys.executable, str(HERE / "child.py"), str(job)], cwd=self.root,
                           env=self.env, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        if not result.is_file():
            return None
        return json.loads(result.read_text())


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def check_invocation(wl, out: Path, result, reference: Path | None) -> list:
    """Errors of each operation of one invocation (one list per argv)."""
    calls = len(wl.outputs(out))
    if result is None or len(result["calls"]) != calls:
        return [["child process gave no result"]] * calls
    errors = []
    for i, (call, paths) in enumerate(zip(result["calls"], wl.outputs(out))):
        if call["error"] is not None:
            errors.append(["raised an exception (traceback above)"])
            continue
        if call["rc"] not in (0, 1):
            errors.append([f"exit code {call['rc']}"])
            continue
        try:
            errs = wl.check(out, i, call["rc"])
            if reference is not None:
                ref_paths = wl.outputs(reference)[i]
                errs += [f"{p.name} differs from the first invocation's"
                         for p, q in zip(paths, ref_paths) if p.read_bytes() != q.read_bytes()]
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            errs = [f"unreadable output: {e!r}"]
        errors.append(errs)
    return errors


def report_errors(name, argvs, errors) -> int:
    failed = 0
    for argv, errs in zip(argvs, errors):
        if errs:
            failed += 1
            print(f"FAIL {name}: exspec {' '.join(argv)}: {'; '.join(errs)}", file=sys.stderr)
    return failed


def program_seed(seed: int, k: int) -> int:
    """Program seed of input set k of a run."""
    return seed * 1000 + k


def timed_run(wl, runner: Runner, seed: int, seconds: float, sets: int):
    """Untraced invocations until `seconds` pass; end-to-end metrics.

    Invocation j uses input set j % sets, so each set recurs throughout the
    run, at least twice; every repeat must write the bytes its first
    invocation wrote. A set's cost is its median repeat, and the run
    reports the median over the sets. Medians, not fastest repeats: on a
    shared machine the fastest repeat is a rare lucky moment, and whether
    a run has one varies more than the typical time does (README.md has
    the measurements behind this).
    """
    runner.child([])  # warm-up: file cache and bytecode, not timed
    setups = [r["setup_s"] for r in (runner.child([]) for _ in range(SETUP_PROBES)) if r]
    by_set = [[] for _ in range(sets)]
    attempted, failed, env = 0, 0, None
    start, last = time.perf_counter(), 0.0
    for j in itertools.count():
        if j >= 2 * sets and time.perf_counter() - start + last > seconds:
            break
        k = j % sets
        out = runner.work / f"out{j}"
        argvs = wl.argvs(out, program_seed(seed, k))
        t0 = time.perf_counter()
        result = runner.child(argvs, env=env is None)
        last = time.perf_counter() - t0
        reference = runner.work / f"out{k}" if j >= sets else None
        attempted += len(argvs)
        failed += report_errors(wl.name, argvs, check_invocation(wl, out, result, reference))
        if result is None:
            break
        env = env or result.get("env")
        setups.append(result["setup_s"])
        for key in ("wall_s", "cpu_s"):
            result[key] = sum(c[key] for c in result["calls"])
        by_set[k].append(result)
    by_set = [runs for runs in by_set if runs]
    if not by_set:
        return {}, attempted, failed, env
    for k, runs in enumerate(by_set):
        print(f"{wl.name}: input set {k}, {wl.items} items, wall_s: "
              + " ".join(f"{r['wall_s']:.3f}" for r in runs))

    def cost(key):
        return statistics.median(statistics.median(r[key] for r in runs) for runs in by_set)

    wall = cost("wall_s")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": wl.items / wall,
        "cpu_s": cost("cpu_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for runs in by_set for r in runs),
    }
    return metrics, attempted, failed, env


def traced_run(wl, runner: Runner, seed: int, smoke: bool):
    """One untraced and one traced invocation with the same inputs, plus the
    kernel microbenchmarks; per-layer metrics."""
    runner.child([])  # warm-up
    plain_out, traced_out = runner.work / "plain", runner.work / "traced"
    argvs = wl.argvs(plain_out, program_seed(seed, 0))
    plain = runner.child(argvs, env=True)
    reps = {n: 1 for n in KERNEL_REPS} if smoke else KERNEL_REPS
    traced = runner.child(wl.argvs(traced_out, program_seed(seed, 0)), trace=True,
                          kernels={"seed": seed, "reps": reps})
    failed = report_errors(wl.name, argvs, check_invocation(wl, plain_out, plain, None))
    failed += report_errors(wl.name, argvs, check_invocation(wl, traced_out, traced, plain_out))
    if plain is None or traced is None:
        return {}, 2 * len(argvs), failed, None
    metrics = dict(traced["trace"])
    plain_wall = sum(c["wall_s"] for c in plain["calls"])
    traced_wall = sum(c["wall_s"] for c in traced["calls"]) - traced["trace_excluded_s"]
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["cli.output_bytes"] = sum(
        p.stat().st_size for paths in wl.outputs(traced_out) for p in paths
    ) + sum(c["stdout_bytes"] for c in traced["calls"])
    metrics.update(traced["kernels"])
    return metrics, 2 * len(argvs), failed, plain.get("env")


def run_workload(name: str, args, root: Path, declared: dict) -> dict:
    wl = WORKLOADS[name](args.smoke)
    scratch = root / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        wl.prepare(work)
        runner = Runner(root, work)
        if args.trace:
            metrics, attempted, failed, env = traced_run(wl, runner, args.seed, args.smoke)
        else:
            sets = min(2, wl.sets) if args.smoke else wl.sets
            metrics, attempted, failed, env = timed_run(wl, runner, args.seed, args.seconds, sets)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if env is not None:
        env["git_sha"] = git_sha(root)
        print(f"env {json.dumps(env, sort_keys=True)}")
    missing = [m for m in declared if m not in metrics]
    if missing:
        print(f"FAIL {name}: no value for {missing}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {declared.get(key, '')}")
    if not args.trace:
        print(f"{name} error_rate = {failed / attempted:.6g} ratio "
              f"({failed} failed of {attempted} operations)")
    return {
        "correct": failed == 0 and not missing and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in declared.items() if k in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to check that the benchmark itself works")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "exspec" / "cli.py").is_file():
        print("error: run from the root of an exspec checkout (src/exspec is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, root, declared) for name in names}
    correct = all(r["correct"] for r in results.values())
    if args.workload == "all":
        print(json.dumps({"correct": correct, "workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
