"""Experiment driver: every subcommand writes CSV data plus a JSON summary.

Each subcommand takes --out and only the options it reads: --seed only
where a random cover or random points are drawn, --weight only in kernel-decay
and pipeline.  A summary's config is exactly that parse, each option under
its dest (valid as a --config file, which reruns the run), with --out
recorded as out_dir, plus subcommand and the run's fixed labels, so a run
is reproducible from its own output; floats are serialized with 17
significant digits and files are written atomically, so the same
configuration produces byte-identical summaries.  Exit code 0 means every
internal assertion of the subcommand passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import HypsurfError, ParameterOutOfRange
from .eigensolve import disc_surface_mesh, export_eigendata, fem_eigensolve, torus_mesh
from .fuchsian import (bolza_group, bs_statistic, cyclic_group, hs_bound_check,
                       orbit_enumerate, random_cover, systole_upper_bound)
from .geometry import (AnkCoords, BoundaryPoint, DiscPoint, GroupElement,
                       ank_compose, ank_decompose, boundary_angle_derivative,
                       busemann, hyp_distance, mobius_apply, poisson_weight)
from .observables import (complete_symbol, laplacian_observable,
                          multiplication_observable)
from .propagators import (beta_norm_check, lemma_a1_check, prop33_certificate)
from .toy1d import alternating_step, toy1d_variance
from .transforms import (RadialKernel, abel_sharp, bump_multiplier,
                         c_inverse_square, fourier_of_abel, k_rho_scaled,
                         phi_eval, selberg_transform, spherical_phi,
                         weight_from_name)
from .variance import (SpectralWindow, mean_zero_density, quantum_variance,
                       variance_pipeline_bounds, weyl_ratio)

FMT = "%.17g"


def _fnum(x):
    if isinstance(x, float):
        return float(FMT % x)
    return x


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _fnum(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def write_summary(out_dir: str, name: str, payload: dict):
    payload = dict(payload)
    payload["tool_version"] = __version__
    text = json.dumps(_jsonify(payload), sort_keys=True, indent=1) + "\n"
    _atomic_write(os.path.join(out_dir, name + ".json"), text)


def write_csv(out_dir: str, name: str, header: str, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(FMT % v if isinstance(v, float) else str(v)
                              for v in row))
    _atomic_write(os.path.join(out_dir, name + ".csv"), "\n".join(lines) + "\n")


# Keys of the parse that config leaves out: the global ones, and --out,
# which it records as out_dir
_NOT_OPTIONS = ("config", "command", "func", "out")


def _finish(args, name: str, fields: dict, passed, verdict: str = "passed",
            **labels) -> int:
    """Write the summary `name`.json: `fields`, `passed` under the key
    `verdict`, and a config of the parsed subcommand options, the provenance
    keys and the fixed `labels`; return the exit code, 0 exactly when passed."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
    config.update(out_dir=args.out, subcommand=args.command, **labels)
    write_summary(args.out, name, {"config": config, **fields, verdict: passed})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_toy1d(args) -> int:
    rep = toy1d_variance(args.L, tuple(args.window), alternating_step(args.blocks))
    write_csv(args.out, "toy1d", "L,n_modes,variance,bound",
              [(rep.L, rep.n_modes, rep.variance, rep.parseval_bound)])
    return _finish(args, "toy1d", {"n_modes": rep.n_modes, "variance": rep.variance,
                                   "parseval_bound": rep.parseval_bound}, rep.passed)


def cmd_geometry_check(args) -> int:
    if args.samples < 1:
        raise ParameterOutOfRange("--samples must be >= 1")
    rng = np.random.default_rng(args.seed)
    worst = {"cocycle": 0.0, "poisson": 0.0, "ank": 0.0, "cosh_formula": 0.0}
    for _ in range(args.samples):
        s, u = rng.uniform(-2, 2, 2)
        th = rng.uniform(0, 2 * math.pi)
        g = ank_compose(AnkCoords(s, u, th))
        r = math.sqrt(rng.uniform(0, 0.81))
        z = DiscPoint(r * math.cos(th), r * math.sin(th))
        b = BoundaryPoint(rng.uniform(0, 2 * math.pi))
        lhs = busemann(mobius_apply(g, z), mobius_apply(g, b))
        rhs = busemann(z, b) + busemann(mobius_apply(g, DiscPoint(0, 0)),
                                        mobius_apply(g, b))
        worst["cocycle"] = max(worst["cocycle"], abs(lhs - rhs))
        pw = (poisson_weight(mobius_apply(g, z), mobius_apply(g, b))
              * boundary_angle_derivative(g, b))
        worst["poisson"] = max(worst["poisson"], abs(pw - poisson_weight(z, b)))
        h = ank_compose(ank_decompose(g))
        worst["ank"] = max(worst["ank"], abs(h.alpha - g.alpha) + abs(h.beta - g.beta))
        zz = mobius_apply(GroupElement.geodesic(s) @ GroupElement.horocycle(u),
                          DiscPoint(0, 0))
        lhs2 = math.cosh(hyp_distance(DiscPoint(0, 0), zz))
        rhs2 = (u * u * math.exp(s) + 2.0 * math.cosh(s)) / 2.0
        worst["cosh_formula"] = max(worst["cosh_formula"], abs(lhs2 - rhs2))
    return _finish(args, "geometry_check", {"worst_deviations": worst},
                   all(v < args.tol for v in worst.values()))


def cmd_spherical(args) -> int:
    lams, ts = args.lams, args.ts
    fast = phi_eval(np.array(lams), np.array(ts))      # the (t, lambda) grid
    rows = []
    for i, lam in enumerate(lams):
        for j, t in enumerate(ts):
            vi = spherical_phi(lam, t)
            rows.append((lam, t, vi, abs(vi - float(fast[j, i]))))
    worst = max(row[3] for row in rows)
    cid = max(abs(c_inverse_square(lam) - math.pi * lam * math.tanh(math.pi * lam))
              for lam in lams)
    write_csv(args.out, "spherical", "lambda,t,phi,int_vs_series", rows)
    return _finish(args, "spherical", {"max_integral_series_gap": worst,
                                       "c_function_identity_gap": cid},
                   worst < 1e-6 and cid < 1e-10)


def cmd_selberg(args) -> int:
    if args.n_lams < 1:
        raise ParameterOutOfRange("--n-lams must be >= 1")
    t0 = args.t
    k = RadialKernel(lambda r: np.cosh(t0) ** -0.5 * (r <= t0), support_bound=t0)
    h1 = selberg_transform(k)
    h2 = fourier_of_abel(abel_sharp(t0))
    lams = np.linspace(0.25, 4.0, args.n_lams)
    a, b = h1(lams), h2(lams)
    gaps = np.abs(a - b)
    worst = float(np.max(gaps))
    rows = list(zip(lams.tolist(), a.tolist(), b.tolist(), gaps.tolist()))
    write_csv(args.out, "selberg", "lambda,selberg,fourier_abel,gap", rows)
    return _finish(args, "selberg", {"max_triangle_gap": worst}, worst < 1e-6)


def cmd_kernel_decay(args) -> int:
    if args.n_t < 1:
        raise ParameterOutOfRange("--n-t must be >= 1")
    weight = weight_from_name(args.weight)
    rho = bump_multiplier(*args.support)
    ts = np.linspace(1.0, 40.0, args.n_t)
    s1 = np.abs(k_rho_scaled(rho, weight, ts, n_lambda=256))
    s2 = np.abs(k_rho_scaled(rho, weight, ts, n_lambda=512))
    sups, stable = [], True
    for N in range(5):
        v1 = float((s1 * (1 + ts) ** N).max())
        v2 = float((s2 * (1 + ts) ** N).max())
        sups.append(v2)
        stable &= math.isfinite(v2) and abs(v1 - v2) <= 0.01 * v2
    write_csv(args.out, "kernel_decay", "t,scaled_abs_k,est_error",
              [(float(t), float(v), float(e)) for t, v, e in
               zip(ts, s2, np.abs(s1 - s2))])
    return _finish(args, "kernel_decay", {"sup_scaled_times_poly": sups,
                                          "grid_stable": stable}, stable)


def cmd_prop33(args) -> int:
    cert = prop33_certificate(args.interval, args.sigma, args.T,
                              lam_spacing=args.lam_spacing)
    return _finish(args, "prop33", {
        "I": [cert.lam_lo, cert.lam_hi], "sigma": cert.sigma,
        "T_list": list(cert.T_list), "c_min": list(cert.c_min),
        "argmin_lambda": list(cert.argmin_lambda),
        "lemmaA1_constant": cert.lemma_a1_const,
        "upper_half_variation": cert.upper_half_variation}, cert.passed, verdict="pass")


def cmd_lemma_a1(args) -> int:
    lams = args.lams
    rs = np.arange(2.0, 21.0)
    vals = lemma_a1_check(np.asarray(lams, dtype=float), rs)
    per_lam_max = {lam: float(v) for lam, v in zip(lams, vals.max(axis=0))}
    rows = [(lam, r, v) for lam, col in zip(lams, vals.T.tolist())
            for r, v in zip(rs.tolist(), col)]
    ratio = max(per_lam_max.values()) / min(per_lam_max.values())
    write_csv(args.out, "lemma_a1", "lambda,r,value", rows)
    return _finish(args, "lemma_a1", {
        "per_lambda_max": {str(k): v for k, v in per_lam_max.items()},
        "max_over_min_ratio": ratio}, ratio < 10.0)


def cmd_orbit(args) -> int:
    group = _group(args)
    ball = orbit_enumerate(group, DiscPoint(0, 0), args.R)
    # the injectivity radius is searched within radius max(R, 1)
    inj = (ball if args.R >= 1.0
           else orbit_enumerate(group, DiscPoint(0, 0), 1.0)).injectivity_radius()
    write_csv(args.out, "orbit", "displacement,word_length",
              zip(ball.displacement.tolist(), map(len, ball.words)))
    return _finish(args, "orbit", {
        "count": len(ball), "orbit_elements_explored": ball.elements_explored,
        "orbit_levels": ball.levels, "injectivity_radius": inj.value,
        "inj_is_lower_bound": inj.is_lower_bound,
        "systole_upper_bound": systole_upper_bound(group)}, True)


def cmd_bs_stat(args) -> int:
    res = bs_statistic(_surface(args, args.degree), args.R, args.samples, args.seed)
    return _finish(args, "bs_stat", {
        "value": res.value, "stderr": res.stderr, "n_hits": res.n_hits,
        "orbit_elements_explored": res.orbit_elements_explored,
        "orbit_levels": res.orbit_levels,
        "sampler_proposals": res.sampler_proposals}, True)


def cmd_hs_check(args) -> int:
    group = _group(args)
    kern = RadialKernel(lambda t: np.exp(-t * t), support_bound=8.0)
    rep = hs_bound_check(kern, group, r=args.r, n_mc=args.samples, seed=args.seed,
                         window_radius=None if args.group == "bolza" else 2.5)
    return _finish(args, "hs_check", {
        "lhs_estimate": rep.lhs_estimate, "lhs_stderr": rep.lhs_stderr,
        "rhs_bound": rep.rhs_bound, "rhs_first_term": rep.rhs_first_term,
        "rhs_second_term": rep.rhs_second_term,
        "injrad_fraction": rep.injrad_fraction,
        "orbit_elements_explored": rep.orbit_elements_explored,
        "orbit_levels": rep.orbit_levels,
        "sampler_proposals": rep.sampler_proposals,
        "systole_bound": rep.systole_bound}, rep.passed)


def cmd_symbol(args) -> int:
    A = laplacian_observable()
    zs = ((0.0, 0.0), (0.3, 0.2), (-0.5, 0.1), (0.0, 0.6))
    lams = (0.5, 1.5, 3.0)
    z = np.array([complex(zre, zim) for zre, zim in zs])
    syms = [complete_symbol(A, z, lam, np.exp(1.1j)) for lam in lams]
    rows = [(zre, zim, lam, s[i].real, s[i].imag, abs(s[i] - (0.25 + lam * lam)))
            for i, (zre, zim) in enumerate(zs) for lam, s in zip(lams, syms)]
    worst = max(row[5] for row in rows)
    write_csv(args.out, "symbol", "z_re,z_im,lambda,sym_re,sym_im,gap", rows)
    return _finish(args, "symbol", {"max_laplacian_symbol_gap": worst}, worst < 1e-5)


def _mesh_counters(mesh, data) -> dict:
    return {"mesh_nodes": len(mesh.points), "triangles": mesh.triangles,
            "stiffness_nnz": int(mesh.stiffness.nnz), "factor_nnz": data.factor_nnz,
            "character_blocks": data.character_blocks,
            "validated_lifts": data.validated_lifts}


def _sign_re(z) -> np.ndarray:
    """The sign of Re z: the multiplication observable of the variance runs."""
    return np.where(np.real(z) > 0, 1.0, -1.0)


def _group(args):
    """The group of --group: Bolza, or the cyclic group of translation length --length."""
    return bolza_group() if args.group == "bolza" else cyclic_group(args.length)


def _surface(args, degree: int):
    """The Bolza surface (degree 1) or its cyclic cover drawn from args.seed."""
    base = bolza_group()
    return base if degree == 1 else random_cover(base, degree, args.seed)


def _solve(args, degree: int, window: SpectralWindow):
    """Mesh the degree-`degree` surface at args.h and solve it to the
    window's reach; the mesh, the eigendata and the summary's reach and
    modes (eigenpairs solved)."""
    mesh = disc_surface_mesh(_surface(args, degree), args.h)
    data = fem_eigensolve(mesh, reach=window.reach)
    return mesh, data, {"reach": window.reach, "modes": data.n_modes}


def _variance_row(data, window: SpectralWindow):
    """Windowed variance of the mean-zero sign observable, and its summary row."""
    rep = quantum_variance(mean_zero_density(_sign_re, data), data, window)
    return rep, {"count": rep.count, "variance": rep.variance,
                 "spread_stderr": float(np.std(rep.terms) / math.sqrt(rep.count)),
                 "uncertainty": rep.uncertainty}


def cmd_variance(args) -> int:
    window = SpectralWindow(*args.window)
    _, data, solved = _solve(args, args.degree, window)
    rep, row = _variance_row(data, window)
    write_csv(args.out, "variance", "nu,matrix_element,limit,term",
              [(float(n), float(m), float(l), float(t)) for n, m, l, t in
               zip(rep.eigenvalues, rep.matrix_elements, rep.limit_terms, rep.terms)])
    return _finish(args, "variance", {**solved, **row}, True,
                   observable="sign_re_mean_zero")


def cmd_weyl(args) -> int:
    window = SpectralWindow(*args.window)
    _, data, solved = _solve(args, args.degree, window)
    rep = weyl_ratio(data, window)
    return _finish(args, "weyl", {
        **solved, "measured_density": rep.measured, "predicted_density": rep.predicted,
        "ratio": rep.ratio, "count": rep.count, "volume": rep.volume},
        0.5 <= rep.ratio <= 2.0)


def cmd_tower(args) -> int:
    window = SpectralWindow(*args.window)
    rows, summaries = [], []
    for deg in args.degrees:
        mesh, data, solved = _solve(args, deg, window)
        _, row = _variance_row(data, window)
        wr = weyl_ratio(data, window)
        new = data.eigenvalues[data.characters != 0]
        rows.append((deg, row["count"], row["variance"], row["spread_stderr"], wr.ratio))
        summaries.append({"degree": deg, **solved, **row, "weyl_ratio": wr.ratio,
                          "min_new_eigenvalue": float(new.min()) if len(new) else None,
                          **_mesh_counters(mesh, data)})
    trend_ok = all(
        summaries[i + 1]["variance"] <= summaries[i]["variance"]
        + 2.0 * (summaries[i]["spread_stderr"] + summaries[i + 1]["spread_stderr"])
        for i in range(len(summaries) - 1))
    weyl_ok = 0.5 <= summaries[-1]["weyl_ratio"] <= 2.0
    write_csv(args.out, "tower", "degree,count,variance,spread,weyl_ratio", rows)
    return _finish(args, "tower", {
        "per_degree": summaries, "trend_nonincreasing_within_bars": trend_ok,
        "weyl_ratio_final_ok": weyl_ok}, trend_ok and weyl_ok,
        observable="sign_re_mean_zero", bs_spectral_gap_assumption=(
            "measured per degree as min_new_eigenvalue, the lowest"
            " eigenvalue of a nontrivial deck character; cyclic covers"
            " are not expanders, so it shrinks as the degree grows"))


def cmd_fem(args) -> int:
    if args.surface == "torus" and args.degree != 1:
        raise ParameterOutOfRange("the torus is solved at degree 1 only")
    mesh = (torus_mesh(args.h) if args.surface == "torus"
            else disc_surface_mesh(_surface(args, args.degree), args.h))
    data = fem_eigensolve(mesh, args.modes)
    if args.export:
        export_eigendata(data, os.path.join(args.out, args.export))
    write_csv(args.out, "fem_eigs", "index,eigenvalue,residual",
              [(j, float(v), float(r)) for j, (v, r) in
               enumerate(zip(data.eigenvalues, data.residuals))])
    return _finish(args, "fem", {
        **_mesh_counters(mesh, data),
        "eigenvalues": list(data.eigenvalues),
        "max_residual": float(np.max(data.residuals)),
        "gram_deviation": data.gram_deviation}, True)


def cmd_pipeline(args) -> int:
    A = multiplication_observable(_sign_re, 1.0)
    budget = variance_pipeline_bounds(A, _surface(args, args.degree), T=args.T,
                                      r=args.r, s=args.s,
                                      window=SpectralWindow(*args.window),
                                      weight=weight_from_name(args.weight),
                                      sigma=args.sigma, nevo_n=args.nevo_n,
                                      n_mc=args.samples, seed=args.seed)
    return _finish(args, "pipeline", {
        "terms": budget.terms, "total": budget.total, "dominant": budget.dominant,
        "bs_fraction_wrap": budget.bs_fraction_wrap,
        "bs_saturated": budget.bs_saturated, "systole": budget.systole},
        math.isfinite(budget.total), nevo_n_provenance=budget.nevo_n_provenance,
        suppressed_constants=budget.note)


def cmd_beta(args) -> int:
    if not all(t > 0 for t in args.ts):
        raise ParameterOutOfRange("--ts must be positive")
    vals = [beta_norm_check(t, args.p) for t in args.ts]
    band_ok = max(vals) / max(min(v for v in vals if v > 0), 1e-12) < 10.0
    write_csv(args.out, "beta_norm", "t,value", list(zip(args.ts, vals)))
    return _finish(args, "beta_norm", {"values": vals, "bounded_band": band_ok}, band_ok)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _split(convert, sep: str, count: int | None = None):
    """argparse type of a sep-separated list: a bad value is a usage error."""
    def parse(text: str) -> list:
        try:
            values = [convert(x) for x in text.split(sep)]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {convert.__name__} values separated by {sep!r}, got {text!r}")
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(
                f"expected {count} values separated by {sep!r}, got {text!r}")
        return values
    parse.sep = sep     # a config file may give the list as a JSON array
    return parse


_PAIR = _split(float, ":", 2)
_FLOATS = _split(float, ",")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hypsurf",
                                description="hyperbolic-surface spectral experiments")
    p.add_argument("--config", help="JSON file overriding subcommand defaults (a list "
                   "option may be a JSON array); flags on the command line override the file")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="runs", help="output directory")

    def seed(sp, seeds: str):
        sp.add_argument("--seed", type=int, default=0, help="seeds " + seeds)

    def weight(sp):
        sp.add_argument("--weight", choices=["paper", "harmonic"], default="paper",
                        help="Plancherel weight convention")

    cover, points = "the random cover (degree > 1)", "the Monte Carlo points"

    sp = sub.add_parser("toy1d", help="interval-model variance and Parseval bound")
    common(sp)
    sp.add_argument("--L", type=float, default=100.0)
    sp.add_argument("--window", type=_PAIR, default="1:2")
    sp.add_argument("--blocks", type=int, default=7)
    sp.set_defaults(func=cmd_toy1d)

    sp = sub.add_parser("geometry-check", help="disc-geometry identity battery")
    common(sp)
    seed(sp, "the random test isometries and points")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=cmd_geometry_check)

    sp = sub.add_parser("spherical", help="spherical function: integral vs series")
    common(sp)
    sp.add_argument("--lams", type=_FLOATS, default="0.5,1,2,3")
    sp.add_argument("--ts", type=_FLOATS, default="1,2,5,10")
    sp.set_defaults(func=cmd_spherical)

    sp = sub.add_parser("selberg", help="transform-triangle consistency")
    common(sp)
    sp.add_argument("--t", type=float, default=2.0)
    sp.add_argument("--n-lams", type=int, default=9, dest="n_lams")
    sp.set_defaults(func=cmd_selberg)

    sp = sub.add_parser("kernel-decay", help="scaled decay of the multiplier kernel")
    common(sp)
    weight(sp)
    sp.add_argument("--support", type=_PAIR, default="1:2")
    sp.add_argument("--n-t", type=int, default=200, dest="n_t")
    sp.set_defaults(func=cmd_kernel_decay)

    sp = sub.add_parser("prop33", help="averaged-multiplier positivity certificate")
    common(sp)
    sp.add_argument("--interval", type=_PAIR,
                    default="0.8660254037844386:1.9364916731037085")
    sp.add_argument("--sigma", type=float, default=0.1)
    sp.add_argument("--T", type=_FLOATS, default="10,20,40")
    sp.add_argument("--lam-spacing", type=float, default=0.02, dest="lam_spacing")
    sp.set_defaults(func=cmd_prop33)

    sp = sub.add_parser("lemma-a1", help="oscillatory-integral uniform bound scan")
    common(sp)
    sp.add_argument("--lams", type=_FLOATS, default="0.5,1,2,3")
    sp.set_defaults(func=cmd_lemma_a1)

    sp = sub.add_parser("orbit", help="orbit ball, injectivity radius, systole")
    common(sp)
    sp.add_argument("--group", choices=["bolza", "cyclic"], default="bolza")
    sp.add_argument("--R", type=float, default=3.1)
    sp.add_argument("--length", type=float, default=1.0)
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("bs-stat", help="small-injectivity-radius volume fraction")
    common(sp)
    seed(sp, f"{cover} and {points}")
    sp.add_argument("--R", type=float, default=1.7)
    sp.add_argument("--degree", type=int, default=1)
    sp.add_argument("--samples", type=int, default=300)
    sp.set_defaults(func=cmd_bs_stat)

    sp = sub.add_parser("hs-check", help="truncated-periodization HS inequality")
    common(sp)
    seed(sp, points)
    sp.add_argument("--group", choices=["bolza", "cyclic"], default="bolza")
    sp.add_argument("--r", type=float, default=2.0)
    sp.add_argument("--length", type=float, default=1.0)
    sp.add_argument("--samples", type=int, default=400)
    sp.set_defaults(func=cmd_hs_check)

    sp = sub.add_parser("symbol", help="complete-symbol spot checks")
    common(sp)
    sp.set_defaults(func=cmd_symbol)

    sp = sub.add_parser("variance", help="windowed quantum variance on one surface")
    common(sp)
    seed(sp, cover)
    sp.add_argument("--degree", type=int, default=1)
    sp.add_argument("--h", type=float, default=0.05)
    sp.add_argument("--window", type=_PAIR, default="1:4")
    sp.set_defaults(func=cmd_variance)

    sp = sub.add_parser("weyl", help="window eigenvalue count vs predicted density")
    common(sp)
    seed(sp, cover)
    sp.add_argument("--degree", type=int, default=4)
    sp.add_argument("--h", type=float, default=0.05)
    sp.add_argument("--window", type=_PAIR, default="1:4")
    sp.set_defaults(func=cmd_weyl)

    sp = sub.add_parser("tower", help="variance trend across a cover tower")
    common(sp)
    seed(sp, "the random covers (degrees > 1)")
    sp.add_argument("--degrees", type=_split(int, ","), default="1,2,4")
    sp.add_argument("--h", type=float, default=0.05)
    sp.add_argument("--window", type=_PAIR, default="1:4")
    sp.set_defaults(func=cmd_tower)

    sp = sub.add_parser("fem", help="eigensolver run, optional eigendata export")
    common(sp)
    seed(sp, cover)
    sp.add_argument("--surface", choices=["torus", "bolza"], default="torus")
    sp.add_argument("--h", type=float, default=0.02)
    sp.add_argument("--modes", type=int, default=10)
    sp.add_argument("--degree", type=int, default=1)
    sp.add_argument("--export", default="", help="basename for eigendata files")
    sp.set_defaults(func=cmd_fem)

    sp = sub.add_parser("pipeline", help="term-by-term variance budget")
    common(sp)
    seed(sp, f"{cover} and {points}")
    weight(sp)
    sp.add_argument("--degree", type=int, default=1)
    sp.add_argument("--window", type=_PAIR, default="1:4")
    sp.add_argument("--T", type=float, default=4.0)
    sp.add_argument("--r", type=float, default=3.0)
    sp.add_argument("--s", type=float, default=3.0)
    sp.add_argument("--sigma", type=float, default=0.1)
    sp.add_argument("--nevo-n", type=float, default=2.0, dest="nevo_n")
    sp.add_argument("--samples", type=int, default=100)
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("beta-norm", help="averaging-density norm majorant scan")
    common(sp)
    sp.add_argument("--ts", type=_FLOATS, default="2,5,10,15")
    sp.add_argument("--p", type=float, default=1.5)
    sp.set_defaults(func=cmd_beta)

    return p


def _apply_config(parser: argparse.ArgumentParser, command: str, path: str):
    """Make the subcommand options named in a JSON file its defaults, each
    value converted by its option's own argparse type and choices (a JSON
    array for a list option is joined with the option's separator first); an
    unreadable file, an unknown key or a bad value is a usage error (exit 2)."""
    try:
        with open(path) as f:
            overrides = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"unreadable config {path}: {exc}")
    if not isinstance(overrides, dict):
        parser.error(f"config {path} must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sp = sub.choices[command]
    options = {a.dest: a for a in sp._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, val in overrides.items():
        if key not in options:
            sp.error(f"unknown config key {key!r} in {path}")
        sep = getattr(options[key].type, "sep", None)
        if sep is not None and isinstance(val, list):
            val = sep.join(map(str, val))
        defaults[key] = getattr(sp.parse_args([f"{options[key].option_strings[0]}={val}"]), key)
    sp.set_defaults(**defaults)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the file's values become defaults, so flags given in argv still win
        _apply_config(parser, args.command, args.config)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypsurfError as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "subcommand": args.command}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
