"""hypsurf benchmark: one run of one workload.

    python3 perfbench/run.py --workload {orbit_stats,spectral_tower,variance_budget}
                             --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client.  Every pass runs the workload's
task list once, in order, in a fresh interpreter (caches the package keeps
in memory start cold, as they do for a CLI user), with BLAS and OpenMP held
to one thread.  Passes repeat while another one fits in S seconds; at least
one always runs.  Set-up time is taken from set-up-only interpreters plus
every pass, after one discarded warm-up that fills the bytecode cache.
Each interpreter runs pinned to one vCPU beside pacer.py, which times a
fixed burst of interpreter work every 40 ms.  pass_s, task_max_s and setup_s
are CPU seconds divided by the slowdown the pacer saw meanwhile (median
burst cost over its uncontended cost): CPU seconds at uncontended speed.
A pass's CPU time is divided piece by piece, a piece being 0.25 s or less,
each by the bursts within 0.5 s of it; set-up by all bursts of its
interpreter.  On the shared host this was built on, identical passes of
variance_budget took 8.4 to 12.3 CPU s (IQR/median 0.18 over ten runs);
divided piece by piece, the spread over ten runs was 0.03.  Raw CPU and
wall-clock pass times are reported as the per-layer pass_cpu_s and
pass_wall_s.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones (span times are wall clock, for a cheap clock read), with
trace.overhead_s = traced minus untraced pass_s.
The line before the result records the environment and each pass's slowdown.
Every task is checked against an independent oracle; the last stdout line
is the JSON result, and the exit code is 1 if any task or check failed.
The run's environment and per-pass details go to perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from pacer import REF_BURST_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("orbit_stats", "spectral_tower", "variance_budget")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_BEFORE, SETUP_AFTER = 3, 2
CHILD_TIMEOUT_S = 150
PACE_WINDOW_S = 0.5     # bursts this close to a piece of a pass pace it
MIN_PACE_BURSTS = 10    # with fewer, the pass's overall slowdown is used
CPU = min(os.sched_getaffinity(0))   # passes and their pacer share this vCPU


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _pin():
    os.sched_setaffinity(0, {CPU})


def spawn(workload: str, seed: int, tag: str, *flags) -> dict:
    """Run passrun.py in a fresh interpreter, paced, and return its report.

    The report gains "slowdown": the pacer's median burst cost while the
    pass ran, over its uncontended cost, and each task gains "paced_s".
    """
    report = WORK / "passes" / f"{workload}-{seed}-{tag}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--report", str(report), *flags]
    with subprocess.Popen([sys.executable, str(HERE / "pacer.py")], stdout=subprocess.PIPE,
                          text=True, preexec_fn=_pin) as pacer:
        pacer.stdout.readline()  # the pacer is running
        try:
            proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, preexec_fn=_pin,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        finally:
            pacer.terminate()
            # a line cut off by the termination has no newline and is dropped
            bursts = [tuple(map(float, line.split()))
                      for line in pacer.communicate()[0].split("\n")[:-1]]
    if proc.returncode != 0 or not report.exists():
        raise RuntimeError(f"pass {tag} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(report) as f:
        rep = json.load(f)
    rep["slowdown"] = median(cost for _, cost in bursts) / REF_BURST_S
    if "tasks" in rep:
        pace_tasks(rep, bursts)
    return rep


def pace_tasks(report: dict, bursts: list) -> None:
    """Give each task "paced_s": its CPU time at the pacer's uncontended speed.

    The pass's CPU time is sampled every 0.25 s and at each task's start and
    end; each piece is divided by the slowdown of the bursts within
    PACE_WINDOW_S of it, so that the divisor follows the host within a task.
    """
    t_burst = [t for t, _ in bursts]
    samples = report["cpu_samples"]
    paced = [0.0]   # paced CPU seconds from the first sample to each sample
    for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
        lo = bisect.bisect_left(t_burst, t0 - PACE_WINDOW_S)
        hi = bisect.bisect_right(t_burst, t1 + PACE_WINDOW_S)
        costs = [cost for _, cost in bursts[lo:hi]]
        slowdown = (median(costs) / REF_BURST_S if len(costs) >= MIN_PACE_BURSTS
                    else report["slowdown"])
        paced.append(paced[-1] + (c1 - c0) / slowdown)
    t_sample = [t for t, _ in samples]
    for task in report["tasks"]:
        start, end = (bisect.bisect_left(t_sample, t) for t in task["window"])
        task["paced_s"] = paced[end] - paced[start]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypsurf").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD read from .git files in the checkout; 'none' outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: child_env()[var] for var in THREAD_VARS},
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def measure(args):
    """Passes until the time budget is spent, between set-up samples.

    Set-up samples are taken before and after the passes, so that their
    median spans the run rather than one moment of the machine's load.
    """
    def setup_samples(n, tag):
        return [paced(spawn(args.workload, args.seed, f"{tag}{i}", "--setup-only"), "setup_s")
                for i in range(n)]

    spawn(args.workload, args.seed, "warmup", "--setup-only")
    setups = setup_samples(SETUP_BEFORE, "setup-before")
    passes = []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        start = time.monotonic()
        passes.append(spawn(args.workload, args.seed, f"pass{len(passes)}",
                            *(["--trace"] if traced else [])))
        longest = max(longest, time.monotonic() - start)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.monotonic() - t0 + longest > args.seconds:
            break
    setups += setup_samples(SETUP_AFTER, "setup-after")
    return setups + [paced(p, "setup_s") for p in passes], passes


def paced(report: dict, key: str) -> float:
    """A CPU time of a report at the pacer's uncontended speed."""
    return report[key] / report["slowdown"]


def task_times(report: dict) -> list:
    return [t["paced_s"] for t in report["tasks"]]


def end_to_end(setups, passes, accuracy) -> dict:
    return {
        "pass_s": (median([sum(task_times(p)) for p in passes]), "s"),
        "setup_s": (median(setups), "s"),
        "task_max_s": (median([max(task_times(p)) for p in passes]), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
        "bolza_lambda1_relerr": (accuracy["bolza_lambda1_relerr"], "ratio"),
        "bolza_lambda2_relerr": (accuracy["bolza_lambda2_relerr"], "ratio"),
    }


def per_layer(passes, attempted, failed) -> dict:
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        out[name] = (median([p["layers"][name][0] for p in traced]), unit)
    out["cli.bytes_written"] = (median([p["bytes_written"] for p in traced]), "bytes")
    out["transforms.k_rho_small_t_err"] = (
        median([p["metrics"].get("transforms.k_rho_small_t_err", 0.0) for p in traced]), "abs")
    out["trace.overhead_s"] = (median([sum(task_times(p)) for p in traced])
                               - median([sum(task_times(p)) for p in plain]), "s")
    out["pass_wall_s"] = (median([p["wall_s"] for p in plain]), "s")
    out["pass_cpu_s"] = (median([p["cpu_s"] for p in plain]), "s")
    out["fail_frac"] = (failed / attempted, "ratio")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hypsurf" / "__init__.py").is_file():
        sys.stderr.write(f"no hypsurf sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    env = environment(args)
    try:
        setups, passes = measure(args)
        accuracy = next((p["metrics"] for p in passes
                         if "bolza_lambda1_relerr" in p["metrics"]), None)
        probe = None
        if accuracy is None and not args.trace:
            probe = spawn("accuracy_probe", args.seed, "probe")
            accuracy = probe["metrics"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1

    tasks = [t for rep in passes + ([probe] if probe else []) for t in rep["tasks"]]
    failed = [t for t in tasks if not t["ok"]]
    for t in failed:
        bad = [c for c in t["checks"] if not c[1]]
        sys.stderr.write(f"FAILED {t['name']}: {json.dumps(bad)}\n")
    if args.trace:
        metrics = per_layer(passes, len(tasks), len(failed))
    else:
        metrics = end_to_end(setups, passes, accuracy)
    result = {"correct": not failed, "attempted": len(tasks), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    with open(record, "w") as f:
        json.dump({"environment": env, "result": result, "setup_samples": setups,
                   "passes": passes, "probe": probe}, f, indent=1)
    print(json.dumps({"environment": env,
                      "slowdowns": [round(p["slowdown"], 4) for p in passes]}))
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
