"""dyckmotz benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is loaded from ./src.
Every job runs in a fresh interpreter (worker.py), one at a time, with no
threads. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The lines before it name
the metrics for a reader, give the run's metadata and list the known
defects behind failed operations. A wrong answer prints a
CORRECTNESS FAILURE to standard error, sets "correct" to false and exits
with status 1.

--trace 0 runs the workload in a fixed number of fresh workers, --seconds
over the workload's nominal worker time (at least one), so that a seed
always gives the same operations, and reports medians of the end-to-end
metrics. Times that end-to-end metrics report are divided by a fixed
calibration kernel timed on the same core at the same moments (see
worker.py), because the shared host's speed drifts. --trace 1 runs the
workload once with every layer wrapped in spans (tracer.py), once
without, and then the growth sweep, and reports the per-layer metrics.
Both write the full detail to perfbench/out/.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import calibration_kernel

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("campaign", "series-deep", "paths")
PATHS_PER_RUN = 300
# seconds one worker takes on a 2-core Xeon; --seconds / this = workers per run
NOMINAL_WORKER_S = {"campaign": 18, "series-deep": 20, "paths": 9}
SETUP_SAMPLES = 11
NOMINAL_KERNEL_S = 0.010  # the calibration kernel's usual time on a 2-core Xeon
DEADLINE_S = 170  # the whole run must end within 180 s
SWEEP = [("sweep-enumeration", n, f"enumeration.busy_s.n{n}") for n in range(10, 15)]
SWEEP += [("sweep-sqrt", N, f"series.sqrt_s.N{N}") for N in (24, 48)]

KNOWN_DEFECTS = {
    "map: RecursionError": "phi recurses once per step of a staircase and once per "
                           "level of a pyramid, so it fails from semilength ~500 "
                           "(staircase, cold cache) or ~990 (pyramid)",
    "unmap: no image, map failed": "follows from the map failure on the same path",
    "unmap: LengthBeyondTableBoundError": "phi_inverse refuses Motzkin words longer "
                                          "than 14 (the inverse-table bound)",
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts workers from one checkout and enforces the run's deadline."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("DYCKMOTZ_OEIS_CACHE", None)  # the campaign runs with no b-file cache
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, job: str, seed: int, trace: bool = False, size: int = 0):
        """(set-up seconds, wall seconds, result) of one worker."""
        if self.left() <= 0:
            raise BenchError("out of time before starting " + job)
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, WORKER, job, str(seed), "1" if trace else "0", str(size)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0) as proc:
            try:
                # unbuffered, so readline leaves the rest for communicate
                ready = proc.stdout.readline().decode()
                setup = time.perf_counter() - start
                out, err = (b.decode() for b in proc.communicate(timeout=max(self.left(), 1)))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError(f"{job} did not finish before the deadline") from None
            except BaseException:
                proc.kill()
                raise
            wall = time.perf_counter() - start
        if ready.strip() != "ready" or proc.returncode != 0:
            tail = (ready + out + err).strip().splitlines()[-5:]
            raise BenchError(f"{job} worker failed (exit {proc.returncode}): " + " | ".join(tail))
        return setup, wall, json.loads(out.strip().splitlines()[-1])


def load_reference(name: str):
    with open(os.path.join(REFERENCE, name), encoding="utf-8") as f:
        return json.load(f)


def wrong_answers(result: dict) -> list:
    """Everything in one worker's result that disagrees with the references."""
    wrong = list(result.get("wrong", []))
    workload = result["job"]
    if workload == "campaign":
        if result["exit"] != 0 or not result["ok"]:
            wrong.append(f"campaign verdict is not OK (exit {result['exit']})")
        want = load_reference("campaign_checks.json")
        got = result["checks"]
        if got != want:
            diff = [f"{g} != {w}" for g, w in zip(got, want) if g != w][:5]
            wrong.append(f"campaign checks differ from the reference ({len(got)} vs "
                         f"{len(want)} records): " + "; ".join(diff))
    elif workload == "series-deep":
        want = load_reference("series_deep.json")["digests"]
        wrong += [f"{name}: coefficients differ from the reference"
                  for name, digest in result["digests"].items() if want.get(name) != digest]
    return wrong


def metadata(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(root), "src_lines": src_lines}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git directly; "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def kernel_s(rounds: int = 3) -> float:
    """Mean time of the calibration kernel over a few calls in a row."""
    start = time.perf_counter()
    for _ in range(rounds):
        calibration_kernel()
    return (time.perf_counter() - start) / rounds


def setup_sample(runner: Runner, seed: int):
    """(seconds, seconds at the nominal host speed) of one worker's set-up.

    The calibration kernel is timed in this process just before and after
    the worker, and the set-up time is scaled by NOMINAL_KERNEL_S over
    their mean, so that drift in the host's speed between runs cancels.
    """
    before = kernel_s()
    setup = runner.spawn("setup", seed)[0]
    return setup, setup * NOMINAL_KERNEL_S * 2 / (before + kernel_s())


def timed_run(runner: Runner, workload: str, seed: int, seconds: int):
    """The workload in as many fresh workers as `seconds` holds nominally."""
    size = PATHS_PER_RUN if workload == "paths" else 0
    results = [runner.spawn(workload, seed, size=size)[2]
               for _ in range(max(1, round(seconds / NOMINAL_WORKER_S[workload])))]
    setups = [setup_sample(runner, seed) for _ in range(SETUP_SAMPLES)]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {
        "setup_s": (statistics.median(nominal for _, nominal in setups), "s"),
        "wall_rel": (statistics.median(r["wall_rel"] for r in results), "calib"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, results, {"setup_samples": setups, "runs": len(results)}


def traced_run(runner: Runner, workload: str, seed: int):
    """The workload traced, once untraced for the overhead, then the growth sweep."""
    size = PATHS_PER_RUN if workload == "paths" else 0
    _, _, traced = runner.spawn(workload, seed, trace=True, size=size)
    _, _, plain = runner.spawn(workload, seed, size=size)
    trace = traced.pop("trace")
    metrics = {name: (value, "s" if name.endswith("_s") else
                      "ratio" if name.endswith("_ratio") else "count")
               for name, value in trace["metrics"].items()}
    metrics["run.wall_s"] = (plain["wall_s"], "s")
    metrics["run.calib_s"] = (plain["calib_s"], "s")
    metrics["trace.overhead_ratio"] = (traced["wall_rel"] / plain["wall_rel"], "ratio")
    results = [traced, plain]
    for job, size, name in SWEEP:
        _, _, result = runner.spawn(job, seed, size=size)
        metrics[name] = (result["wall_s"], "s")
        results.append(result)
    return metrics, results, {"spans": trace["spans"], "edges": trace["edges"],
                              "unhooked": trace["unhooked"]}


def report_lines(workload: str, metrics: dict, results: list, detail: dict, trace: bool) -> list:
    """The named figures, with units, for a reader."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    lines = []
    if not trace:
        main = {"campaign": "campaign_s", "series-deep": "series_s", "paths": "wall_s"}[workload]
        wall = statistics.median(r["wall_s"] for r in results)
        calib = statistics.median(r["calib_s"] for r in results)
        samples = sum(r["calib_samples"] for r in results)
        lines.append(f"{main} = {wall:.4f} s (median of {len(results)} workers)")
        lines.append(f"wall_rel = {metrics['wall_rel'][0]:.2f} calib ({main} in units of the "
                     f"calibration kernel timed around each stretch of it; kernel median "
                     f"{calib * 1e3:.3f} ms, {samples} samples)")
        if workload == "paths":
            for op in ("map", "unmap"):
                busy = sum(r["busy"][op] for r in results)
                steps = sum(r["steps"][op] for r in results)
                lines.append(f"{op}_steps_per_s = {steps / busy:.1f} 1/s "
                             f"({steps} Dyck steps answered in {busy:.3f} s busy)")
        raw = statistics.median(setup for setup, _ in detail["setup_samples"])
        lines.append(f"setup_s = {metrics['setup_s'][0]:.4f} s at the nominal host speed "
                     f"(median of {len(detail['setup_samples'])}; {raw:.4f} s as measured)")
        lines.append(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.4f} MB")
    else:
        for name, (value, unit) in metrics.items():
            lines.append(f"{name} = {value:.6g} {unit}")
        lines.append("oeis: not exercised offline, so unmeasured")
    lines.append(f"fail_ratio = {failed / attempted:.4f} ({failed} of {attempted} operations raised)")
    errors = {}
    for r in results:
        for kind, count in r.get("errors", {}).items():
            errors[kind] = errors.get(kind, 0) + count
    for kind, count in sorted(errors.items()):
        lines.append(f"  failed: {count} x {kind}: {KNOWN_DEFECTS.get(kind, 'not a known defect')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dyckmotz", "__init__.py")):
        print("perfbench: run from the root of a dyckmotz checkout (no src/dyckmotz here)",
              file=sys.stderr)
        return 2
    runner = Runner(root, time.perf_counter() + DEADLINE_S)
    try:
        runner.spawn("setup", args.seed)  # compiles bytecode; not a sample
        if args.trace:
            metrics, results, detail = traced_run(runner, args.workload, args.seed)
        else:
            metrics, results, detail = timed_run(runner, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wrong = [w for r in results for w in wrong_answers(r)]
    meta = metadata(root)
    print(f"dyckmotz benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("meta: " + json.dumps(meta))
    for line in report_lines(args.workload, metrics, results, detail, bool(args.trace)):
        print(line)
    for w in wrong:
        print(f"CORRECTNESS FAILURE: {w}", file=sys.stderr)

    summary = {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
        json.dump({"args": vars(args), "meta": meta, "wrong": wrong, **summary,
                   "results": results, **detail}, f, indent=1)
    print(json.dumps(summary))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
