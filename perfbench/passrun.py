"""One pass of one workload, in the fresh interpreter that runs this file.

    python3 perfbench/passrun.py --workload NAME --seed N --report FILE
                                 [--size full|tiny] [--trace] [--setup-only]

Set-up (interpreter start, importing hypsurf.cli and with it every layer,
building the workload's groups, covers and direct-call inputs, loading
references.json) is the CPU time of this process until it is done; the
tasks then run one after another and are checked afterwards.  Times are CPU seconds (user + system) of this
single-threaded process, with wall-clock seconds kept beside them: on a
shared virtual machine the hypervisor steals the vCPU in bursts, which
swung wall time of a fixed loop between 0.24 and 0.80 s while its CPU time
stayed between 0.24 and 0.29 s.  The report is a JSON file: set-up and pass
times, per-task times and check results, samples of the CPU time every
0.25 s and at each task's start and end, peak RSS of this process and, with
--trace, the per-layer metrics.  The sampling thread is the process's only
thread besides the main one (BLAS runs single-threaded).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CPU_SAMPLE_S = 0.25   # period of the (monotonic time, CPU time) samples of a pass
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the package path above)


def load_references() -> dict:
    with open(HERE / "references.json") as f:
        return json.load(f)["values"]


def run_task(task, inputs, out_dir: Path, tracer):
    """Run one task; returns its output (CLI: (exit code, summary dict))."""
    if task.call is not None:
        return task.call(inputs, tracer)
    from hypsurf import cli
    rc = cli.main(list(task.argv) + ["--out", str(out_dir)])
    if rc != 0:
        raise RuntimeError(f"hypsurf {' '.join(task.argv)} exited {rc}")
    with open(out_dir / (task.summary + ".json")) as f:
        return rc, json.load(f)


def check_tasks(tasks, outputs: dict, errors: dict, refs: dict) -> list:
    """Per task: (name, ok, list of (label, ok, detail)); a raising check fails."""
    results = []
    for task in tasks:
        if task.name in errors:
            results.append((task.name, False, [("ran", False, errors[task.name])]))
            continue
        try:
            checks = [(label, bool(ok), detail) for label, ok, detail
                      in task.check(outputs, refs)]
        except Exception:  # a check that cannot evaluate is a failed check
            checks = [("check evaluated", False, traceback.format_exc(limit=3))]
        results.append((task.name, all(ok for _, ok, _ in checks), checks))
    return results


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(workload: str, seed: int, size: str, trace: bool, work_dir: Path,
             setup_only: bool = False) -> dict:
    refs = load_references()
    # The CLI imports every layer: its import time counts as set-up, in traced
    # and untraced passes alike.
    import hypsurf.cli  # noqa: F401
    wl = (workloads.accuracy_probe() if workload == "accuracy_probe"
          else workloads.WORKLOADS[workload](seed, size))
    setup_s = time.process_time()
    report = {"workload": workload, "seed": seed, "size": size, "trace": trace,
              "setup_s": setup_s}
    if setup_only:
        return report

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    shutil.rmtree(work_dir, ignore_errors=True)
    outputs, errors, times, cpu, window = {}, {}, {}, {}, {}
    samples = []   # (monotonic time, CPU time), for run.py to pace piece by piece
    stop = threading.Event()

    def sample_cpu():
        while not stop.wait(CPU_SAMPLE_S):
            samples.append((time.monotonic(), time.process_time()))

    sampler = threading.Thread(target=sample_cpu, daemon=True)
    sampler.start()
    c_start = time.process_time()
    t_start = time.perf_counter()
    for i, task in enumerate(wl.tasks):
        out_dir = work_dir / f"{i}-{task.name}"
        if tracer is not None:
            tracer.task = task.name
        t0, c0 = time.monotonic(), time.process_time()
        try:
            outputs[task.name] = run_task(task, wl.inputs, out_dir, tracer)
        except Exception:  # the pass records the failure and goes on
            errors[task.name] = traceback.format_exc(limit=5)
        t1, c1 = time.monotonic(), time.process_time()
        samples += [(t0, c0), (t1, c1)]
        cpu[task.name], window[task.name], times[task.name] = c1 - c0, (t0, t1), t1 - t0
    wall_s = time.perf_counter() - t_start
    cpu_s = time.process_time() - c_start
    stop.set()
    sampler.join()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = check_tasks(wl.tasks, outputs, errors, refs)
    metrics = {}
    for task in wl.tasks:
        if task.metrics is not None and task.name in outputs:
            metrics.update(task.metrics(outputs[task.name]))
    bytes_written = _dir_bytes(work_dir) if work_dir.exists() else 0
    shutil.rmtree(work_dir, ignore_errors=True)
    report.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "cpu_samples": sorted(samples),
        "peak_rss_mb": peak_rss_mb,
        "tasks": [{"name": name, "seconds": times[name], "cpu_seconds": cpu[name],
                   "window": window[name], "ok": ok, "checks": checks}
                  for name, ok, checks in checked],
        "metrics": metrics,
        "bytes_written": bytes_written,
    })
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = tracer.dump()
    report["outputs"] = outputs
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--report", required=True)
    args = p.parse_args(argv)
    report_path = Path(args.report)
    work_dir = report_path.parent / (report_path.stem + ".out")
    report = run_pass(args.workload, args.seed, args.size, args.trace, work_dir,
                      args.setup_only)
    report.pop("outputs", None)
    spans = report.pop("spans", None)
    if spans is not None:
        with open(report_path.with_suffix(".trace.json"), "w") as f:
            json.dump(spans, f)
    with open(report_path, "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
