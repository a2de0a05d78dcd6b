"""The benchmark's three workloads: fixed task lists with oracle checks.

A task is either a CLI call (`hypsurf.cli.main([...])`, whose JSON summary
is read back) or a direct library call made from this file.  Each task has a
check against an independent oracle (see oracles.py and references.json);
checks may look at the outputs of earlier tasks of the same pass.

Set-up builds each workload's fixed inputs (groups, covers, direct-call
inputs) even where the CLI tasks rebuild their own, so that work moved into
group or cover construction shows in setup_s.

Seeds: the workload seed derives the Monte Carlo seeds and the sample points
of the direct calls.  Cover seeds stay at 0, the CLI default: the cover
drawn changes both the work (bs-stat --degree 4 takes 5.8 to 10.1 s over
seven covers) and the outcome of the tower trend check (it fails for cover
seeds 3 and 4), so the covers are fixed inputs, like the Bolza surface.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles


@dataclass(frozen=True)
class Task:
    name: str
    check: Callable       # (outputs: dict[name -> output], refs: dict) -> list of (label, ok, detail)
    argv: tuple = ()      # CLI task: arguments of hypsurf.cli.main, without --out
    summary: str = ""     # CLI task: basename of the summary JSON it writes
    call: Callable | None = None   # direct task: (inputs, tracer) -> output
    metrics: Callable | None = None  # output -> {metric: value} reported by the pass


@dataclass
class Workload:
    name: str
    tasks: list
    inputs: dict = field(default_factory=dict)


def task_seeds(seed: int, n: int) -> list:
    """n task seeds derived from the workload seed (the program sees only these)."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n) % (2 ** 31)]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _passed(task: str, key: str = "passed"):
    def check(outputs, refs):
        summary = outputs[task][1]
        return [(f"{key} flag", bool(summary.get(key)), f"{key}={summary.get(key)}")]
    return check


# ---------------------------------------------------------------------------
# orbit_stats
# ---------------------------------------------------------------------------

def _check_orbit_bolza(R):
    def check(outputs, refs):
        _, s = outputs["orbit_bolza"]
        count = s["count"]
        est = oracles.lattice_point_estimate(R)
        b = refs["bolza"]
        return [
            ("count == frozen reference", count == refs["orbit_count"][f"{R:g}"],
             f"count={count} ref={refs['orbit_count'][f'{R:g}']}"),
            ("count within exp(2R/3) of the lattice-point estimate",
             abs(count - est) <= math.exp(2.0 * R / 3.0),
             f"count={count} estimate={est:.1f}"),
            ("injectivity radius at 0 == arccosh(1 + sqrt 2)",
             _rel(s["injectivity_radius"], b["injrad_at_0"]) < 1e-9 and not s["inj_is_lower_bound"],
             f"{s['injectivity_radius']!r} vs {b['injrad_at_0']!r}"),
            ("systole == 2 arccosh(1 + sqrt 2)",
             _rel(s["systole_upper_bound"], b["systole"]) < 1e-9,
             f"{s['systole_upper_bound']!r} vs {b['systole']!r}"),
        ]
    return check


def _check_orbit_cyclic(length, R):
    def check(outputs, refs):
        _, s = outputs["orbit_cyclic"]
        n = 2 * math.floor(R / length) + 1
        return [("injectivity radius == length / 2",
                 _rel(s["injectivity_radius"], length / 2.0) < 1e-9,
                 f"{s['injectivity_radius']!r}"),
                ("count == 2 floor(R / length) + 1", s["count"] == n, f"{s['count']} vs {n}")]
    return check


def _check_bs_base(outputs, refs):
    _, s = outputs["bs_stat_deg1"]
    ref = refs["bs_bolza_R1.7"]
    tol = 4.0 * math.hypot(s["stderr"], ref["stderr"])
    return [("within 4 stderr of the high-sample reference",
             abs(s["value"] - ref["value"]) <= tol,
             f"value={s['value']} ref={ref['value']} tol={tol:.3g}")]


def _check_bs_cover(cover):
    def check(outputs, refs):
        _, s1 = outputs["bs_stat_deg1"]
        _, s4 = outputs["bs_stat_deg4"]
        ref = refs["bs_cover4_R1.7"]
        tol_ref = 4.0 * math.hypot(s4["stderr"], ref["stderr"])
        tol_deg1 = 4.0 * math.hypot(s1["stderr"], s4["stderr"])
        return [
            ("cover has the reference's sheet permutations",
             [list(p) for p in cover.permutations] == ref["permutations"],
             f"{cover.permutations}"),
            ("within 4 stderr of the high-sample cover reference",
             abs(s4["value"] - ref["value"]) <= tol_ref,
             f"value={s4['value']} ref={ref['value']} tol={tol_ref:.3g}"),
            # Cannot fail at R = 1.7, where the degree-1 fraction is 1.
            ("degree 4 <= degree 1 + 4 stderr", s4["value"] <= s1["value"] + tol_deg1,
             f"deg4={s4['value']} deg1={s1['value']} tol={tol_deg1:.3g}"),
        ]
    return check


def orbit_stats(seed: int, size: str) -> Workload:
    s_bs, s_hs = task_seeds(seed, 2)
    full = size == "full"
    R = 8.0 if full else 4.0
    bs_samples = "300" if full else "30"
    hs_samples = "400" if full else "40"
    from hypsurf.fuchsian import bolza_group, cyclic_group, random_cover
    bolza = bolza_group()
    inputs = {"bolza": bolza, "cyclic": cyclic_group(1.0),
              "cover4": random_cover(bolza, 4, 0)}
    tasks = [
        Task("orbit_bolza", _check_orbit_bolza(R), ("orbit", "--R", f"{R:g}"), "orbit"),
        Task("orbit_cyclic", _check_orbit_cyclic(1.0, 6.0),
             ("orbit", "--group", "cyclic", "--length", "1.0", "--R", "6"), "orbit"),
        Task("bs_stat_deg1", _check_bs_base,
             ("bs-stat", "--R", "1.7", "--degree", "1", "--samples", bs_samples,
              "--seed", str(s_bs)), "bs_stat"),
        Task("bs_stat_deg4", _check_bs_cover(inputs["cover4"]),
             ("bs-stat", "--R", "1.7", "--degree", "4", "--samples", bs_samples,
              "--seed", "0"), "bs_stat"),
        Task("hs_check", _passed("hs_check"),
             ("hs-check", "--group", "bolza", "--r", "2.0", "--samples", hs_samples,
              "--seed", str(s_hs)), "hs_check"),
    ]
    return Workload("orbit_stats", tasks, inputs)


# ---------------------------------------------------------------------------
# spectral_tower
# ---------------------------------------------------------------------------

def bolza_relerrs(eigenvalues) -> dict:
    """Largest relative deviation of the first triple and the next quadruple."""
    ev = np.asarray(eigenvalues, dtype=float)
    m1, m2 = oracles.BOLZA_MULT1, oracles.BOLZA_MULT2
    l1 = ev[1:1 + m1]
    l2 = ev[1 + m1:1 + m1 + m2]
    return {"bolza_lambda1_relerr": float(np.max(np.abs(l1 - oracles.BOLZA_LAMBDA1))
                                          / oracles.BOLZA_LAMBDA1),
            "bolza_lambda2_relerr": float(np.max(np.abs(l2 - oracles.BOLZA_LAMBDA2))
                                          / oracles.BOLZA_LAMBDA2)}


def _check_fem_bolza(outputs, refs):
    _, s = outputs["fem_bolza"]
    ev = np.asarray(s["eigenvalues"], dtype=float)
    gap1, gap2 = ev[4] - ev[3], ev[8] - ev[7]
    return [
        ("ascending", bool(np.all(np.diff(ev) >= 0.0)), "eigenvalues sorted"),
        ("zero mode", abs(ev[0]) <= 1e-8, f"nu0={float(ev[0])!r}"),
        ("cluster 1-3 tighter than the gap to 4", ev[3] - ev[1] < gap1,
         f"spread={ev[3] - ev[1]:.4g} gap={gap1:.4g}"),
        ("cluster 4-7 tighter than the gaps around it", ev[7] - ev[4] < min(gap1, gap2),
         f"spread={ev[7] - ev[4]:.4g} gaps={gap1:.4g},{gap2:.4g}"),
    ]


def _check_fem_torus(h, modes):
    def check(outputs, refs):
        _, s = outputs["fem_torus"]
        ev = np.asarray(s["eigenvalues"], dtype=float)
        exact = oracles.torus_eigenvalues(h, modes)
        err = float(np.max(np.abs(ev - exact) / np.maximum(exact, 1.0)))
        return [("5-point closed form", len(ev) == modes and err <= 1e-8,
                 f"max rel err {err:.3g}")]
    return check


def spectral_tower(seed: int, size: str) -> Workload:
    full = size == "full"
    degrees = (1, 2, 4, 8, 16) if full else (1, 2)
    tower_h = "0.03" if full else "0.05"
    bolza_h = "0.02" if full else "0.05"
    # 13 = 1 + 4 + 4 + 4 modes, the levels below the 8-fold level 197.17.
    # Shift-invert Lanczos from a random start misses copies of that level:
    # with 20 modes 1 solve in 40, with 21 modes 6 in 150, returned a wrong
    # spectrum (315.41 in place of a 197.17 mode); with 13 modes 0 in 150.
    torus_h, torus_modes = (0.01, 13) if full else (0.05, 9)
    from hypsurf.fuchsian import bolza_group, random_cover
    bolza = bolza_group()
    inputs = {"bolza": bolza,
              "covers": [random_cover(bolza, d, 0) for d in degrees if d > 1]}
    tasks = [
        Task("tower", _passed("tower"),
             ("tower", "--degrees", ",".join(map(str, degrees)), "--h", tower_h,
              "--seed", "0"), "tower"),
        Task("fem_bolza", _check_fem_bolza,
             ("fem", "--surface", "bolza", "--h", bolza_h, "--modes", "12"), "fem",
             metrics=lambda out: bolza_relerrs(out[1]["eigenvalues"])),
        Task("fem_torus", _check_fem_torus(torus_h, torus_modes),
             ("fem", "--surface", "torus", "--h", f"{torus_h:g}", "--modes",
              str(torus_modes)), "fem"),
    ]
    return Workload("spectral_tower", tasks, inputs)


def accuracy_probe() -> Workload:
    """The Bolza spectrum task alone: the accuracy metrics for other workloads."""
    wl = spectral_tower(0, "full")
    return Workload("accuracy_probe", [t for t in wl.tasks if t.name == "fem_bolza"])


# ---------------------------------------------------------------------------
# variance_budget
# ---------------------------------------------------------------------------

HS_R0 = 0.5
K_RHO_GATE_T = 0.02   # below, cosh t - cosh u cancels and k_rho loses digits


def _check_pipeline(outputs, refs):
    _, s = outputs["pipeline"]
    terms = s["terms"]
    ok = all(math.isfinite(v) and v >= 0.0 for v in terms.values())
    return [("terms finite and >= 0", ok, json.dumps(terms)),
            ("passed flag", bool(s["passed"]), f"passed={s['passed']}")]


def _run_hs_norm(inputs, tracer):
    from hypsurf import transforms
    rho, r0 = inputs["rho"], HS_R0

    def symbol(z, lam, b):
        return complex(rho(lam)) * (abs(z) <= r0)

    if tracer is not None:
        symbol = tracer.counted("transforms.symbol_calls", symbol)
    return transforms.hs_norm_disc(symbol, r0, (1.0, 2.0), inputs["weight"],
                                   **inputs["hs_grid"])


def _check_hs_norm(outputs, refs):
    val = outputs["hs_norm_disc"]
    ref = refs["hs_norm_separable_r0.5"]["value"]
    err = _rel(val, ref)
    return [("matches area * 2 pi * int rho^2 W (scipy quad)", err <= 1e-5,
             f"value={val!r} ref={ref!r} rel err {err:.3g}")]


def _transforms_call(tracer, name, fn, *args):
    """fn(*args); traced as a transforms span (the package's closures are not rebound)."""
    if tracer is None:
        return fn(*args)
    return tracer.span("transforms", name, fn, *args)


def _run_k_rho(inputs, tracer):
    from hypsurf import transforms
    kern = transforms.inverse_selberg(inputs["rho"], inputs["weight"])
    return _transforms_call(tracer, "transforms.inverse_selberg.kernel", kern,
                            inputs["k_rho_ts"])


def _k_rho_errors(inputs, values):
    ts = inputs["k_rho_ts"]
    err = np.abs(np.asarray(values) - oracles.k_rho_bump(ts))
    small = ts < K_RHO_GATE_T
    return (float(err[~small].max()) if np.any(~small) else 0.0,
            float(err[small].max()) if np.any(small) else 0.0)


def _run_triangle(inputs, tracer):
    from hypsurf import propagators, transforms
    t0, sigma = inputs["tri_t0"], inputs["tri_sigma"]
    eta = propagators.default_eta
    kern = transforms.RadialKernel(
        lambda r: np.cosh(t0) ** -0.5 * eta((np.asarray(r, dtype=float) - t0) / sigma),
        support_bound=t0, smoothness_class="smooth", breakpoints=(t0 - sigma,))
    lams = inputs["tri_lams"]
    h_sel = transforms.selberg_transform(kern)
    h_abel = transforms.fourier_of_abel(transforms.abel_smooth(t0, sigma, eta))
    a = _transforms_call(tracer, "transforms.selberg_transform.eval", h_sel, lams)
    b = _transforms_call(tracer, "transforms.fourier_of_abel.eval", h_abel, lams)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def variance_budget(seed: int, size: str) -> Workload:
    s_pipe, s_pts = task_seeds(seed, 2)
    full = size == "full"
    from hypsurf.fuchsian import bolza_group
    from hypsurf.transforms import PlancherelWeight, bump_multiplier
    rng = np.random.default_rng(s_pts)
    inputs = {
        "bolza": bolza_group(),
        "rho": bump_multiplier(1.0, 2.0),
        "weight": PlancherelWeight.paper(),
        "hs_grid": (dict(n_rad=16, n_zang=16, n_lam=16, n_bang=64) if full
                    else dict(n_rad=4, n_zang=4, n_lam=16, n_bang=32)),
        "k_rho_ts": rng.random(2000 if full else 50),
        "tri_t0": 2.0, "tri_sigma": 0.3,
        "tri_lams": np.sort(rng.uniform(0.25, 4.0, 9 if full else 3)),
    }
    pipe = ("pipeline", "--T", "4", "--r", "3", "--s", "3", "--seed", str(s_pipe))
    prop = ("prop33",) if full else ("prop33", "--T", "10", "--lam-spacing", "0.1")
    decay = ("kernel-decay",) if full else ("kernel-decay", "--n-t", "40")
    if not full:
        pipe += ("--samples", "20")

    def check_k_rho(outputs, refs):
        gated, _ = _k_rho_errors(inputs, outputs["k_rho"])
        return [(f"matches the hypergeometric-series oracle for t >= {K_RHO_GATE_T}",
                 gated <= 1e-12, f"max abs err {gated:.3g}")]

    def check_triangle(outputs, refs):
        gap = outputs["triangle"]
        return [("Selberg == Fourier o Abel", gap < 1e-6, f"gap {gap:.3g}")]

    tasks = [
        Task("pipeline", _check_pipeline, pipe, "pipeline"),
        Task("prop33", _passed("prop33", "pass"), prop, "prop33"),
        Task("kernel_decay", _passed("kernel_decay"), decay, "kernel_decay"),
        Task("hs_norm_disc", _check_hs_norm, call=_run_hs_norm),
        Task("k_rho", check_k_rho, call=_run_k_rho,
             metrics=lambda out: {"transforms.k_rho_small_t_err": _k_rho_errors(inputs, out)[1]}),
        Task("triangle", check_triangle, call=_run_triangle),
    ]
    return Workload("variance_budget", tasks, inputs)


WORKLOADS = {"orbit_stats": orbit_stats, "spectral_tower": spectral_tower,
             "variance_budget": variance_budget}
