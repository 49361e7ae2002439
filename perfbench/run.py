"""kummerlog benchmark: solve seed-generated planted instances and check every answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in `workloads.py`, or `all` to run each of them
in its own process and print every metric by name with its unit. The run is
a closed loop with one caller; the instance list is sized so that solving
takes about S seconds on the reference machine, and it depends only on the
seed, so counts repeat exactly for a fixed seed and S.

With `--trace 0` the end-to-end metrics are measured with nothing wrapped.
With `--trace 1` a list half as long is solved twice, one round-robin pass
plain and then the same pass with the solver's layers wrapped (see
`tracer.py`); the per-layer metrics come from the wrapped side, and the
tracing overhead is the difference in solves per second.

Every answer is checked outside the timed region by generic square-and-multiply,
`ext_pow(generator, exponent) == target`. A solve may end in NotSplit,
RootNotInTable, NoCandidate or Unsolvable, which counts as failed; any other
exception, or a wrong answer, aborts the run with a nonzero exit and no
result line.

Standard output ends with a report line (environment stamp, instance hash,
percentile used for the tail, planted-digit matches) and then the result
line `{"correct", "attempted", "failed", "metrics"}`.
Exit codes: 0 done, 1 an unexpected exception (or no kummerlog sources in
the checkout), 2 bad arguments, 3 wrong answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import program  # first: it puts this checkout's src/ on the path
import tracer as tracing
import workloads
from kummerlog import solver
from kummerlog.extfield import ext_pow

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7  # fresh interpreters timed per run; the median is reported
BUILD_RUNS = 5  # in-process context builds timed per traced run
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
METHODS = ("direct", "boundary", "list_decode", "fallback", "unsolved")


class WrongAnswer(Exception):
    """A solver returned an exponent that does not map the generator to the target."""


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a clone)."""
    git = program.ROOT / ".git"
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
        return None
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def stamp(seed: int, instances) -> dict:
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(f"{inst.context}:{inst.planted}:{inst.target.key()}\n".encode())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _git_commit(),
            "seed": seed, "instances": len(instances), "instances_sha256": digest.hexdigest()}


def measure_setup(workload_name: str) -> float:
    """Median over fresh interpreters of import plus context build, in seconds.

    One extra first run is discarded: it warms the file cache and writes bytecode.
    """
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload_name],
                              capture_output=True, text=True, check=True, timeout=120,
                              cwd=program.ROOT)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times[1:])


def measure_build(workload) -> float:
    times = []
    for _ in range(BUILD_RUNS):
        t0 = time.perf_counter()
        workloads.build_contexts(workload)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def solve_all(workload, contexts, instances, seed, tracer=None):
    """Solve the list in order; per-solve seconds, outcomes, and loop wall time."""
    entry = getattr(solver, workload.entry)
    times, outcomes = [], []
    t_loop = time.perf_counter()
    for inst in instances:
        problem = solver.DlpInstance(contexts[inst.context], inst.target)
        rng = workloads.solve_rng(seed, workload, inst.index)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = entry(problem, rng=rng)
            else:
                out = tracer.call(tracing.ROOT_SPAN, entry, problem, rng=rng)
        except workloads.EXPECTED_FAILURES as exc:
            out = exc
        times.append(time.perf_counter() - t0)
        outcomes.append(out)
    return times, outcomes, time.perf_counter() - t_loop


def check(contexts, instances, outcomes) -> tuple[Counter, int]:
    """Verify every answer; return the strategy counts and how many answers
    equal the planted digits. Raises WrongAnswer on the first bad one."""
    methods = Counter({m: 0 for m in METHODS})
    planted = 0
    for inst, out in zip(instances, outcomes, strict=True):
        if isinstance(out, Exception):
            methods["unsolved"] += 1
            continue
        ctx = contexts[inst.context]
        if ext_pow(ctx.generator, out.exponent()) != inst.target:
            raise WrongAnswer(f"instance {inst.index} ({inst.context}): exponent "
                              f"{out.exponent()} via {out.method} does not give the target")
        planted += tuple(out.digits) == inst.planted
        methods[out.method] += 1
    return methods, planted


def tail(times: list[float]) -> tuple[float, float]:
    """The highest of TAIL_PERCENTILES with TAIL_BEYOND samples above it, and
    its nearest-rank value; the maximum when the run is too short for any."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= TAIL_BEYOND:
            return pct, ordered[math.ceil(n * pct / 100) - 1]
    return 100.0, ordered[-1]


def run_traced(workload, contexts, instances, seed) -> tuple[dict, Counter, int]:
    """Solve each round-robin pass plain, then traced, so both sides see the
    same machine load; per-layer metrics come from the traced side."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    plain_wall = traced_wall = 0.0
    step = len(workload.contexts)
    for start in range(0, len(instances), step):
        chunk = instances[start:start + step]
        _, outcomes, wall = solve_all(workload, contexts, chunk, seed)
        plain += outcomes
        plain_wall += wall
        with tracer.installed():
            _, outcomes, wall = solve_all(workload, contexts, chunk, seed, tracer)
        traced += outcomes
        traced_wall += wall
    check(contexts, instances, plain)
    methods, planted = check(contexts, instances, traced)
    metrics = {"extfield.build.ms": (1000.0 * measure_build(workload), "ms")}
    metrics.update(tracing.layer_metrics(tracer))
    metrics.update({f"solver.method.{m}": (methods[m], "count") for m in METHODS})
    metrics["solver.planted_match"] = (planted, "count")
    metrics["trace.overhead_solves_per_s"] = (
        len(instances) / plain_wall - len(instances) / traced_wall, "1/s")
    return metrics, methods, planted


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run; returns the report and the result object."""
    workload = workloads.WORKLOADS[name]
    contexts = workloads.build_contexts(workload)
    # a traced run solves its list twice, so it is half as long
    count = workloads.instance_count(workload, seconds / 2 if trace else seconds)
    instances = workloads.generate(workload, contexts, seed, count)
    report = {"workload": name, "trace": int(trace), "stamp": stamp(seed, instances)}
    if trace:
        metrics, methods, planted = run_traced(workload, contexts, instances, seed)
    else:
        times, outcomes, wall = solve_all(workload, contexts, instances, seed)
        methods, planted = check(contexts, instances, outcomes)
        report["tail_percentile"], tail_s = tail(times)
        metrics = {
            "setup_s": (measure_setup(name), "s"),
            "solve_ms_p50": (1000.0 * statistics.median(times), "ms"),
            "solve_ms_tail": (1000.0 * tail_s, "ms"),
            "solves_per_s": (len(instances) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    report["planted_match"] = planted
    result = {"correct": True, "attempted": len(instances), "failed": methods["unsolved"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return report, result


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=program.ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            print(f"{name:<11} {metric:<40} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    try:
        report, result = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
