"""Regenerate perfbench/references.json from independent routes.

    python3 perfbench/make_references.py [--out FILE]

Every stored value comes with a record of how it was made: closed forms
evaluated in mpmath, the from-scratch orbit enumeration of oracles.py, a
high-sample Monte Carlo with its own sampler, and scipy/mpmath quadrature.
No value is taken from hypsurf.  Takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import scipy

import oracles

HERE = Path(__file__).resolve().parent
BS_SEED = 20130517
BS_SAMPLES = 200_000
# Sheet permutations of the degree-4 cover that `hypsurf bs-stat --degree 4
# --seed 0` builds (random_cover(bolza_group(), 4, 0)): generator k shifts
# sheet i to i + w_k mod 4 with weights (3, 2, 2, 1).  A fixed input, like the
# Bolza generators; the workload checks that its cover has this table.
COVER4_PERMUTATIONS = ((3, 0, 1, 2), (2, 3, 0, 1), (2, 3, 0, 1), (1, 2, 3, 0))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=str(HERE / "references.json"))
    args = p.parse_args(argv)

    values, provenance = {}, {}
    with mp.workdps(40):
        injrad = mp.acosh(1 + mp.sqrt(2))
        values["bolza"] = {"systole": float(2 * injrad), "injrad_at_0": float(injrad)}
    provenance["bolza"] = ("closed forms in mpmath at 40 digits: the systole of the "
                           "regular-octagon surface is its side-pairing translation "
                           "length 2 arccosh(1 + sqrt 2); the injectivity radius at the "
                           "octagon centre is half of it")

    values["orbit_count"] = {f"{R:g}": oracles.bolza_orbit_count(R) for R in (4.0, 8.0)}
    values["orbit_count_estimate"] = {f"{R:g}": oracles.lattice_point_estimate(R)
                                      for R in (4.0, 8.0)}
    provenance["orbit_count"] = (
        "oracles.bolza_orbit: breadth-first search over octagon tiles on numpy "
        "SU(1,1) matrices, pruned at R + circumradius, points identified by g(0); "
        "the R = 8 count 793 equals the frozen seed value of `hypsurf orbit --R 8`")
    provenance["orbit_count_estimate"] = "ball area / covolume = 2 pi (cosh R - 1) / 4 pi"

    method = (f"{BS_SAMPLES} area-uniform samples of the octagon (numpy PCG64 seed "
              f"{BS_SEED}), InjRad < R decided by the minimum displacement over the "
              "nontrivial deck transformations g with d(0, g 0) <= 2R + 2 R_D; stderr "
              "sqrt(p(1-p)/n), which is 0 when every sample hits")
    p_bs, se_bs = oracles.bolza_bs_fraction(1.7, BS_SAMPLES, BS_SEED)
    values["bs_bolza_R1.7"] = {"value": p_bs, "stderr": se_bs, "n_samples": BS_SAMPLES}
    provenance["bs_bolza_R1.7"] = f"oracles.bolza_bs_fraction on the Bolza surface: {method}"
    p_bs, se_bs = oracles.bolza_bs_fraction(1.7, BS_SAMPLES, BS_SEED, COVER4_PERMUTATIONS)
    values["bs_cover4_R1.7"] = {"value": p_bs, "stderr": se_bs, "n_samples": BS_SAMPLES,
                                "permutations": [list(p) for p in COVER4_PERMUTATIONS]}
    provenance["bs_cover4_R1.7"] = (
        "oracles.bolza_bs_fraction on the cyclic degree-4 cover with the stored sheet "
        "permutations (those of random_cover(bolza_group(), 4, 0)); its deck group is the "
        "kernel of the weight homomorphism to Z_4, tracked along the orbit enumeration: "
        + method)

    hs = oracles.hs_norm_separable(0.5)
    with mp.workdps(30):
        def integrand(lam):
            x = 2 * lam - 3
            if abs(x) >= 1:
                return mp.mpf(0)
            w = lam * mp.tanh(2 * mp.pi * lam)
            return mp.exp(2 - 2 / (1 - x * x)) * w * w / (lam * mp.tanh(mp.pi * lam))
        hs_mp = float(4 * mp.pi * mp.mpf("0.25") / mp.mpf("0.75") * 2 * mp.pi
                      * mp.quad(integrand, [1, 1.5, 2]))
    values["hs_norm_separable_r0.5"] = {"value": hs, "mpmath_value": hs_mp}
    provenance["hs_norm_separable_r0.5"] = (
        "symbol bump(lam) 1{|z| <= 0.5}, paper weight: area 4 pi r0^2/(1 - r0^2) "
        "times Poisson mass 2 pi times int bump^2 W dlam by scipy.integrate.quad "
        "(epsrel 1e-13); mpmath_value repeats it with mpmath.quad at 30 digits")

    ts = np.array([0.0, 0.013, 0.05, 0.2, 0.37, 0.61, 0.8, 0.999])
    series = oracles.k_rho_bump(ts)
    legenp = np.array([oracles.k_rho_bump_mpmath(float(t)) for t in ts])
    values["k_rho_series_vs_mpmath"] = {"t": ts.tolist(), "series": series.tolist(),
                                        "mpmath": legenp.tolist(),
                                        "max_abs_diff": float(np.max(np.abs(series - legenp)))}
    provenance["k_rho_series_vs_mpmath"] = (
        "validation of the run-time k_rho oracle (hypergeometric series for phi, "
        "tanh-sinh in lambda) against mpmath.legenp(-1/2 + i lam, 0, cosh t) under "
        "mpmath.quad at 30 digits; the benchmark checks all of its sample points "
        "against the series oracle")

    values["bolza_spectrum"] = {"lambda1": oracles.BOLZA_LAMBDA1, "mult1": oracles.BOLZA_MULT1,
                                "lambda2": oracles.BOLZA_LAMBDA2, "mult2": oracles.BOLZA_MULT2}
    provenance["bolza_spectrum"] = ("Strohmaier & Uski, Commun. Math. Phys. 317 (2013); "
                                    "reported as metrics, not gated")

    doc = {"values": values, "provenance": provenance,
           "generated_with": {"python": sys.version.split()[0], "numpy": np.__version__,
                              "scipy": scipy.__version__, "mpmath": mp.__version__}}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(values, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
