"""Self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

1. Every workload runs at a tiny size, traced, in a fresh interpreter: all
   checks pass, the metric names match BENCHMARK.json, and the layers' self
   times add up to the pass time.
2. The same tiny outputs are re-checked with one reference or one output
   corrupted at a time; each corruption must fail its task and drive
   fail_frac above 0, which shows the checks bite.
3. A copy holding only BENCHMARK.json and perfbench/ must make run.py exit
   non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import passrun
import run
import workloads

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work" / "selftest"


def _scale(key, factor):
    def mutate(refs, outputs):
        refs[key]["value"] *= factor
    return mutate


# (task that must fail, how the references or outputs are corrupted)
CORRUPTIONS = {
    "orbit_stats": [
        ("orbit_bolza", lambda r, o: r["orbit_count"].update({"4": r["orbit_count"]["4"] + 1})),
        ("orbit_bolza", lambda r, o: r["bolza"].update(injrad_at_0=r["bolza"]["injrad_at_0"] * (1 + 1e-7))),
        ("orbit_bolza", lambda r, o: r["bolza"].update(systole=r["bolza"]["systole"] * (1 + 1e-7))),
        ("orbit_cyclic", lambda r, o: o["orbit_cyclic"][1].update(count=o["orbit_cyclic"][1]["count"] + 2)),
        ("bs_stat_deg1", lambda r, o: r["bs_bolza_R1.7"].update(value=r["bs_bolza_R1.7"]["value"] - 0.05)),
        ("bs_stat_deg4", lambda r, o: r["bs_cover4_R1.7"].update(value=1.0)),
        ("bs_stat_deg4", lambda r, o: r["bs_cover4_R1.7"]["permutations"].reverse()),
        ("hs_check", lambda r, o: o["hs_check"][1].update(passed=False)),
    ],
    "spectral_tower": [
        ("tower", lambda r, o: o["tower"][1].update(passed=False)),
        ("fem_bolza", lambda r, o: o["fem_bolza"][1]["eigenvalues"].__setitem__(
            3, o["fem_bolza"][1]["eigenvalues"][4])),
        ("fem_torus", lambda r, o: o["fem_torus"][1]["eigenvalues"].__setitem__(
            3, o["fem_torus"][1]["eigenvalues"][3] * (1 + 1e-6))),
    ],
    "variance_budget": [
        ("pipeline", lambda r, o: o["pipeline"][1]["terms"].update(averaging=-1e-3)),
        ("prop33", lambda r, o: o["prop33"][1].update({"pass": False})),
        ("kernel_decay", lambda r, o: o["kernel_decay"][1].update(passed=False)),
        ("hs_norm_disc", _scale("hs_norm_separable_r0.5", 1 + 1e-4)),
        ("k_rho", lambda r, o: o.update(k_rho=o["k_rho"] + 1e-11)),
        ("triangle", lambda r, o: o.update(triangle=2e-6)),
    ],
}


def benchmark_names() -> tuple:
    with open(HERE.parent / "BENCHMARK.json") as f:
        bench = json.load(f)
    return ({m["name"] for m in bench["end_to_end"]}, {m["name"] for m in bench["per_layer"]},
            {w["name"] for w in bench["workloads"]})


def traced_tiny(name: str) -> dict:
    report = WORK / f"{name}.json"
    subprocess.run([sys.executable, str(HERE / "passrun.py"), "--workload", name,
                    "--seed", "1", "--size", "tiny", "--trace", "--report", str(report)],
                   check=True, env=run.child_env(), timeout=300)
    with open(report) as f:
        return json.load(f)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    e2e_names, layer_names, wl_names = benchmark_names()
    problems = []
    if wl_names != set(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(wl_names)}")

    for name in workloads.WORKLOADS:
        traced = traced_tiny(name)
        plain = passrun.run_pass(name, 1, "tiny", False, WORK / f"{name}.out")
        for rep in (traced, plain):
            bad = [t["name"] for t in rep["tasks"] if not t["ok"]]
            if bad:
                problems.append(f"{name}: clean tiny run failed {bad}")
        self_sum = sum(v for k, (v, _) in traced["layers"].items() if k.endswith(".self_s"))
        if abs(self_sum - traced["wall_s"]) > 0.02 * traced["wall_s"]:
            problems.append(f"{name}: self times sum to {self_sum:.3f} s of {traced['wall_s']:.3f} s")
        accuracy = {"bolza_lambda1_relerr": 1.0, "bolza_lambda2_relerr": 1.0}
        for rep in (plain, traced):
            rep["slowdown"] = 1.0
            run.pace_tasks(rep, [])
        emitted_e2e = set(run.end_to_end([plain["setup_s"]], [plain], accuracy))
        n_tasks = len(plain["tasks"])
        emitted_layers = set(run.per_layer([plain, traced], n_tasks, 0))
        if emitted_e2e != e2e_names:
            problems.append(f"end-to-end names differ: {sorted(emitted_e2e ^ e2e_names)}")
        if emitted_layers != layer_names:
            problems.append(f"per-layer names differ: {sorted(emitted_layers ^ layer_names)}")

        wl = workloads.WORKLOADS[name](1, "tiny")
        for must_fail, corrupt in CORRUPTIONS[name]:
            refs = passrun.load_references()
            outputs = copy.deepcopy(plain["outputs"])
            corrupt(refs, outputs)
            checked = passrun.check_tasks(wl.tasks, outputs, {}, refs)
            failed = {task for task, ok, _ in checked if not ok}
            fail_frac = len(failed) / len(checked)
            status = "bites" if must_fail in failed and fail_frac > 0 else "MISSED"
            print(f"{name:16s} corrupt {must_fail:14s} -> fail_frac {fail_frac:.3f} {status}")
            if status != "bites":
                problems.append(f"{name}: corrupting {must_fail} went unnoticed")

    bare = WORK / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(HERE / "references.json", bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbit_stats",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}")

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
