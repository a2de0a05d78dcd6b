import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hypsurf.cli import main


def read(out_dir, name):
    with open(os.path.join(out_dir, name + ".json")) as f:
        return json.load(f)


def read_bytes(out_dir, name):
    with open(os.path.join(out_dir, name + ".json"), "rb") as f:
        return f.read()


def read_all_bytes(out_dir):
    """Every file of an output directory, by name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            out[name] = f.read()
    return out


class TestBasicRuns:
    def test_toy1d(self, tmp_path):
        out = str(tmp_path)
        assert main(["toy1d", "--out", out, "--L", "100", "--window", "1:2"]) == 0
        d = read(out, "toy1d")
        assert d["passed"] and d["variance"] <= d["parseval_bound"]
        assert os.path.exists(os.path.join(out, "toy1d.csv"))

    def test_geometry_check(self, tmp_path):
        out = str(tmp_path)
        assert main(["geometry-check", "--out", out, "--samples", "300"]) == 0
        d = read(out, "geometry_check")
        assert max(d["worst_deviations"].values()) < 1e-8

    def test_prop33(self, tmp_path):
        out = str(tmp_path)
        assert main(["prop33", "--out", out, "--T", "5,10",
                     "--lam-spacing", "0.1"]) == 0
        d = read(out, "prop33")
        assert d["pass"] and all(c > 0 for c in d["c_min"])
        assert "lemmaA1_constant" in d

    def test_orbit_and_bs(self, tmp_path):
        out = str(tmp_path)
        assert main(["orbit", "--out", out, "--R", "3.1"]) == 0
        assert read(out, "orbit")["count"] == 9
        assert main(["bs-stat", "--out", out, "--R", "1.0",
                     "--samples", "40"]) == 0
        d = read(out, "bs_stat")
        assert d["value"] == 0.0
        # below half the systole no sample closes early: the search runs on
        assert d["orbit_levels"] > 1 and d["orbit_elements_explored"] > 8

    def test_orbit_search_counters_frozen(self, tmp_path):
        out = str(tmp_path)
        assert main(["orbit", "--out", out, "--R", "8"]) == 0
        d = read(out, "orbit")
        assert d["count"] == 793
        assert (d["orbit_elements_explored"], d["orbit_levels"]) == (58208, 10)

    def test_symbol(self, tmp_path):
        out = str(tmp_path)
        assert main(["symbol", "--out", out]) == 0
        assert read(out, "symbol")["max_laplacian_symbol_gap"] < 1e-5

    def test_symbol_gap_below_rounding_floor_of_plain_wave(self, tmp_path):
        # the stencil acts on expm1 of the relative wave, so last-bit noise of
        # the wave is not amplified by 1 / h^2; the plain wave sat near 8e-6
        out = str(tmp_path)
        assert main(["symbol", "--out", out]) == 0
        assert read(out, "symbol")["max_laplacian_symbol_gap"] < 1e-7

    def test_beta_norm(self, tmp_path):
        out = str(tmp_path)
        assert main(["beta-norm", "--out", out]) == 0
        assert read(out, "beta_norm")["bounded_band"]

    def test_fem_torus(self, tmp_path):
        out = str(tmp_path)
        assert main(["fem", "--out", out, "--surface", "torus", "--h", "0.05",
                     "--modes", "6", "--export", "torusdata"]) == 0
        d = read(out, "fem")
        assert abs(d["eigenvalues"][0]) < 1e-10
        # 20 x 20 nodes, two triangles per cell, 5-point stencil
        assert (d["mesh_nodes"], d["triangles"], d["stiffness_nnz"]) == (400, 800, 2000)
        # L and U hold at least the pattern of K, and L its unit diagonal
        assert d["factor_nnz"] >= d["stiffness_nnz"] + d["mesh_nodes"]
        assert os.path.exists(os.path.join(out, "torusdata.json"))


class TestContracts:
    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["toy1d", "--no-such-flag"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, name", [
        (["geometry-check", "--samples", "200"], "geometry_check"),
        (["bs-stat", "--degree", "4"], "bs_stat"),
        (["hs-check", "--samples", "100"], "hs_check"),
        (["orbit", "--R", "8"], "orbit")],
        ids=["geometry-check", "bs-stat", "hs-check", "orbit"])
    def test_deterministic_summaries(self, tmp_path, argv, name):
        # the summary and every other file the run writes (orbit's CSV)
        out = str(tmp_path)
        args = argv + ["--out", out, "--seed", "7"]
        assert main(args) == 0
        first = read_all_bytes(out)
        assert name + ".json" in first
        assert main(args) == 0
        assert read_all_bytes(out) == first

    def test_deterministic_eigensolve(self, tmp_path):
        out = str(tmp_path)
        args = ["fem", "--out", out, "--surface", "bolza", "--h", "0.05"]
        assert main(args) == 0
        first = read_bytes(out, "fem")
        assert main(args) == 0
        assert read_bytes(out, "fem") == first

    def test_config_file_override(self, tmp_path):
        out = str(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 200.0}))
        assert main(["--config", str(cfg), "toy1d", "--out", out]) == 0
        assert read(out, "toy1d")["config"]["L"] == 200.0

    def test_provenance_fields_present(self, tmp_path):
        out = str(tmp_path)
        assert main(["toy1d", "--out", out]) == 0
        cfg = read(out, "toy1d")["config"]
        for key in ("seed", "weight_convention", "subcommand"):
            assert key in cfg

    def test_machine_readable_failure(self, tmp_path, capsys):
        # empty spectral window is a domain error -> exit 1 with a JSON record
        out = str(tmp_path)
        code = main(["toy1d", "--out", out, "--L", "1", "--window", "1:1.1"])
        assert code == 1
        err = capsys.readouterr().err
        rec = json.loads(err.strip())
        assert rec["error"] == "EmptyWindow"

    @pytest.mark.parametrize("subcommand", ["orbit", "bs-stat"])
    def test_radius_guard_is_a_json_error(self, tmp_path, capsys, subcommand):
        code = main([subcommand, "--out", str(tmp_path), "--R", "30"])
        assert code == 1
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ParameterOutOfRange"
        assert rec["subcommand"] == subcommand

    def test_config_values_use_option_types(self, tmp_path):
        out = str(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": "0.05", "modes": 6}))
        assert main(["--config", str(cfg), "fem", "--out", out]) == 0
        assert read(out, "fem")["config"]["h"] == 0.05

    # word_len names the removed orbit --word-len: a stale config must fail
    @pytest.mark.parametrize("overrides", [{"no_such_key": 1}, {"h": "abc"},
                                           {"surface": "sphere"}, {"word_len": 8}])
    def test_bad_config_exits_2(self, tmp_path, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        for subcommand in ("fem", "orbit"):
            with pytest.raises(SystemExit) as exc:
                main(["--config", str(cfg), subcommand, "--out", str(tmp_path)])
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["toy1d", "--window", "abc"],
                                      ["tower", "--degrees", "1,x"],
                                      ["prop33", "--T", "10,a"],
                                      ["kernel-decay", "--support", "1:2:3"]])
    def test_malformed_split_option_exits_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_deterministic_tower(self, tmp_path):
        out = str(tmp_path)
        args = ["tower", "--out", out, "--degrees", "1,2", "--h", "0.05"]
        assert main(args) == 0
        first = read_bytes(out, "tower")
        assert main(args) == 0
        assert read_bytes(out, "tower") == first
        rows = read(out, "tower")["per_degree"]
        assert rows[0]["min_new_eigenvalue"] is None        # the base has no deck
        assert 0.0 < rows[1]["min_new_eigenvalue"] < 10.0
        # degree 2 factorizes two blocks with the base's pattern, or more on re-solves
        assert rows[1]["factor_nnz"] >= 2 * rows[0]["factor_nnz"] > 0

    def test_variance_and_weyl_match_the_tower_row(self, tmp_path):
        # variance, weyl and each tower degree share one mesh-solve-variance
        # path; the degree-2 row of tower solves 24 + 10 * 2 = 44 modes
        out = str(tmp_path)
        assert main(["tower", "--out", out, "--degrees", "1,2", "--h", "0.05"]) == 0
        row = read(out, "tower")["per_degree"][1]
        same = ["--out", out, "--degree", "2", "--modes", "44", "--h", "0.05"]
        assert main(["variance"] + same) == 0
        var = read(out, "variance")
        assert var["count"] == row["count"] == 5
        for key in ("variance", "spread_stderr", "uncertainty"):
            assert var[key] == row[key]
        assert main(["weyl"] + same) == 0
        assert read(out, "weyl")["ratio"] == row["weyl_ratio"]

    def test_pipeline_config_records_samples(self, tmp_path):
        out = str(tmp_path)
        assert main(["pipeline", "--out", out, "--samples", "20"]) == 0
        assert read(out, "pipeline")["config"]["samples"] == 20

    def test_torus_eigensolve_reproducible_across_processes(self, tmp_path):
        # 21 modes cut into the 8-fold level 197.17: the degenerate solve whose
        # last digits once changed from process to process
        out = str(tmp_path)
        argv = [sys.executable, "-m", "hypsurf.cli", "fem", "--out", out,
                "--surface", "torus", "--h", "0.01", "--modes", "21"]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs = []
        for _ in range(2):
            subprocess.run(argv, env=env, check=True, capture_output=True)
            runs.append(read_bytes(out, "fem"))
        assert runs[0] == runs[1]
        # the 5-point Laplacian on the 100 x 100 lattice: (4/h^2)(sin^2 pi m h + sin^2 pi n h)
        s = np.sin(math.pi * np.arange(100) / 100) ** 2
        exact = np.sort(4e4 * (s[:, None] + s[None, :]).ravel())[:21]
        got = np.array(json.loads(runs[0])["eigenvalues"])
        assert np.all(np.abs(got - exact) <= 1e-8 * np.maximum(exact, 1.0))

    @pytest.mark.parametrize("argv", [["variance", "--window", "0.1:4"],
                                      ["fem", "--h", "0.5"]])
    def test_input_guard_is_a_json_error(self, tmp_path, capsys, argv):
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 1
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ParameterOutOfRange"
        assert rec["subcommand"] == argv[0]
