import argparse
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hypsurf.cli import build_parser, main


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


def subparsers() -> dict:
    """Each subcommand's parser, by name."""
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# one small run of every subcommand, each with a non-default option, and the
# name of its summary
ROUND_TRIP = [
    (["toy1d", "--blocks", "5"], "toy1d"),
    (["geometry-check", "--samples", "50"], "geometry_check"),
    (["spherical", "--lams", "0.5,2", "--ts", "1,5"], "spherical"),
    (["selberg", "--n-lams", "5"], "selberg"),
    (["kernel-decay", "--n-t", "20"], "kernel_decay"),
    (["kernel-decay", "--n-t", "20", "--weight", "harmonic"], "kernel_decay"),
    (["prop33", "--T", "5,10", "--lam-spacing", "0.1"], "prop33"),
    (["lemma-a1", "--lams", "0.5,2"], "lemma_a1"),
    (["orbit", "--R", "4"], "orbit"),
    (["bs-stat", "--R", "1.5", "--samples", "30"], "bs_stat"),
    (["hs-check", "--samples", "40"], "hs_check"),
    (["symbol"], "symbol"),
    (["variance", "--h", "0.1"], "variance"),
    (["weyl", "--degree", "1", "--h", "0.1"], "weyl"),
    (["tower", "--degrees", "1,2", "--h", "0.1"], "tower"),
    (["fem", "--surface", "bolza", "--h", "0.1", "--modes", "4", "--export", "e"], "fem"),
    (["pipeline", "--T", "3", "--samples", "10"], "pipeline"),
    (["pipeline", "--T", "3", "--samples", "10", "--weight", "harmonic"], "pipeline"),
    (["beta-norm", "--ts", "2,5"], "beta_norm"),
]
ROUND_TRIP_IDS = [argv[0] + "-harmonic" * ("harmonic" in argv) for argv, _ in ROUND_TRIP]

# the fixed labels each subcommand adds to its summary's config
LABELS = {"variance": {"observable"},
          "tower": {"observable", "bs_spectral_gap_assumption"},
          "pipeline": {"nevo_n_provenance", "suppressed_constants"}}


def option_dests(subcommand) -> set:
    """The dests of a subcommand's options, --help aside."""
    return {a.dest for a in subparsers()[subcommand]._actions
            if a.option_strings and a.dest != "help"}


@pytest.fixture(scope="module", params=ROUND_TRIP, ids=ROUND_TRIP_IDS)
def round_trip(request, tmp_path_factory):
    """A ROUND_TRIP run, made once: its argv, summary name and output directory."""
    argv, name = request.param
    out = str(tmp_path_factory.mktemp("first"))
    assert main(argv + ["--out", out]) == 0
    return argv, name, out


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
        # one row per orbit of the rotation about 0: (33504, 10) with a row
        # per element, and (58208, 10) before the side test of the tile prune
        assert (d["orbit_elements_explored"], d["orbit_levels"]) == (4188, 10)

    def test_orbit_r12_fits_the_default_cap(self, tmp_path):
        # 1,905,640 elements explored with a row per element, past the cap
        out = str(tmp_path)
        assert main(["orbit", "--out", out, "--R", "12"]) == 0
        d = read(out, "orbit")
        assert d["count"] == 40905
        assert (d["orbit_elements_explored"], d["orbit_levels"]) == (238205, 14)

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

    def test_symbol_calls_once_per_lambda(self, tmp_path, monkeypatch):
        import hypsurf.cli as cli
        calls, complete_symbol = [], cli.complete_symbol

        def counted(A, z, lam, b):
            calls.append((np.shape(z), lam))
            return complete_symbol(A, z, lam, b)

        monkeypatch.setattr(cli, "complete_symbol", counted)
        assert main(["symbol", "--out", str(tmp_path)]) == 0
        assert calls == [((4,), 0.5), ((4,), 1.5), ((4,), 3.0)]

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
        assert (d["character_blocks"], d["validated_lifts"]) == (1, 1)
        assert os.path.exists(os.path.join(out, "torusdata.json"))

    def test_fem_export_creates_the_out_directory(self, tmp_path):
        out = str(tmp_path / "new" / "run")
        assert main(["fem", "--out", out, "--surface", "torus", "--h", "0.1",
                     "--modes", "4", "--export", "td"]) == 0
        for suffix in (".json", "_mesh.csv", "_eigs.csv", "_modes.csv"):
            assert os.path.exists(os.path.join(out, "td" + suffix))


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
        (["geometry-check", "--samples", "200", "--seed", "7"], "geometry_check"),
        (["bs-stat", "--degree", "4", "--seed", "7"], "bs_stat"),
        (["hs-check", "--samples", "100", "--seed", "7"], "hs_check"),
        (["orbit", "--R", "8"], "orbit")],
        ids=["geometry-check", "bs-stat", "hs-check", "orbit"])
    def test_deterministic_summaries(self, tmp_path, argv, name):
        # the summary and every other file the run writes (orbit's CSV)
        out = str(tmp_path)
        args = argv + ["--out", out]
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

    def test_command_line_flags_override_config(self, tmp_path):
        out = str(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 200}))
        assert main(["--config", str(cfg), "toy1d", "--out", out, "--L", "150"]) == 0
        assert read(out, "toy1d")["config"]["L"] == 150.0

    # config is the parse: every option the subcommand takes and no other
    def test_config_keys_are_the_options(self, round_trip):
        argv, name, out = round_trip
        config = read(out, name)["config"]
        expected = option_dests(argv[0]) - {"out"} | {"out_dir", "subcommand"}
        assert set(config) == expected | LABELS.get(argv[0], set())
        assert (config["out_dir"], config["subcommand"]) == (out, argv[0])

    # --seed and --weight are taken only where a run reads them
    @pytest.mark.parametrize("argv", [["spherical", "--seed", "3"],
                                      ["orbit", "--weight", "harmonic"]], ids=" ".join)
    def test_unread_option_exits_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_seed_and_weight_options(self):
        takes = {opt: {cmd for cmd in subparsers() if opt in option_dests(cmd)}
                 for opt in ("seed", "weight")}
        assert takes["seed"] == {"geometry-check", "bs-stat", "hs-check", "variance",
                                 "weyl", "tower", "fem", "pipeline"}
        assert takes["weight"] == {"kernel-decay", "pipeline"}

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

    @pytest.mark.parametrize("text", [None, "{bad", "[1, 2]"],
                             ids=["missing", "malformed", "not_an_object"])
    def test_unreadable_config_exits_2(self, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "toy1d", "--out", str(tmp_path)])
        assert exc.value.code == 2

    # stale config keys: the windowed subcommands solve to the window's reach,
    # so the mode counts they once took, and the seed symbol never read
    @pytest.mark.parametrize("subcommand,key", [("tower", "modes_base"),
                                                ("variance", "modes"), ("weyl", "modes"),
                                                ("symbol", "seed")])
    def test_stale_mode_count_config_exits_2(self, tmp_path, subcommand, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 44}))
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

    def test_tower_block_counters_frozen(self, tmp_path):
        # degree d solves the characters 0..d/2 once each here (no block is
        # short) and checks the lowest mode of each, lifted, against the cover;
        # each block is solved to the reach 1.2 x 4 of the window 1:4, 11 pairs
        out = str(tmp_path)
        assert main(["tower", "--out", out, "--degrees", "1,2,4", "--h", "0.05"]) == 0
        rows = read(out, "tower")["per_degree"]
        assert [r["character_blocks"] for r in rows] == [1, 2, 3]
        assert [r["validated_lifts"] for r in rows] == [1, 2, 3]
        assert [r["reach"] for r in rows] == [4.8] * 3
        assert [r["modes"] for r in rows] == [11, 21, 42]

    def test_variance_and_weyl_match_the_tower_row(self, tmp_path):
        # variance, weyl and each tower degree share one mesh-solve-variance
        # path, which solves to the reach of the window
        out = str(tmp_path)
        assert main(["tower", "--out", out, "--degrees", "1,2", "--h", "0.05"]) == 0
        row = read(out, "tower")["per_degree"][1]
        same = ["--out", out, "--degree", "2", "--h", "0.05"]
        assert main(["variance"] + same) == 0
        var = read(out, "variance")
        assert var["count"] == row["count"] == 5
        for key in ("variance", "spread_stderr", "uncertainty", "reach", "modes"):
            assert var[key] == row[key]
        assert main(["weyl"] + same) == 0
        weyl = read(out, "weyl")
        assert weyl["ratio"] == row["weyl_ratio"]
        assert (weyl["reach"], weyl["modes"]) == (row["reach"], row["modes"])

    def test_pipeline_config_records_samples(self, tmp_path):
        out = str(tmp_path)
        assert main(["pipeline", "--out", out, "--samples", "20"]) == 0
        d = read(out, "pipeline")
        assert d["config"]["samples"] == 20
        assert d["orbit_elements_explored"] > 0 and d["sampler_proposals"] >= 40

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

    # the torus has no covers; fem solves it by default, so a stray --degree
    # must not write a summary claiming a cover it never solved
    @pytest.mark.parametrize("argv", [["--surface", "torus", "--degree", "4"],
                                      ["--degree", "0"], ["--degree", "-3"],
                                      ["--modes", "0"],
                                      ["--surface", "bolza", "--h", "0.1", "--modes", "0"]],
                             ids=["torus-degree-4", "degree-0", "degree-minus-3",
                                  "torus-modes-0", "bolza-modes-0"])
    def test_fem_guard_is_a_json_error(self, tmp_path, capsys, argv):
        out = str(tmp_path)
        assert main(["fem", "--out", out] + argv) == 1
        rec = json.loads(capsys.readouterr().err.strip())
        assert (rec["error"], rec["subcommand"]) == ("ParameterOutOfRange", "fem")
        assert not os.path.exists(os.path.join(out, "fem.json"))

    @pytest.mark.parametrize("window, message", [("4:1", "nu_lo < nu_hi"),
                                                 ("2:2", "nu_lo < nu_hi"),
                                                 ("0.1:4", "above 1/4")])
    def test_window_messages(self, tmp_path, capsys, window, message):
        assert main(["variance", "--out", str(tmp_path), "--window", window]) == 1
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ParameterOutOfRange"
        assert message in rec["message"]

    def test_option_flags_spell_their_dests(self):
        # config keys and flags are one vocabulary: --lam-spacing is lam_spacing
        assert set(subparsers()) == {argv[0] for argv, _ in ROUND_TRIP}
        for sp in subparsers().values():
            for action in sp._actions:
                if action.option_strings and action.dest != "help":
                    assert action.option_strings == ["--" + action.dest.replace("_", "-")]

    # the summary's config, as a --config file, reruns the same run
    def test_summary_config_reruns_the_run(self, tmp_path, round_trip):
        argv, name, first = round_trip
        second = str(tmp_path / "second")
        dests = option_dests(argv[0])
        config = read(first, name)["config"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v for k, v in config.items() if k in dests}))
        assert main(["--config", str(cfg), argv[0], "--out", second]) == 0
        rerun = read_all_bytes(second)
        rerun[name + ".json"] = rerun[name + ".json"].replace(
            json.dumps(second).encode(), json.dumps(first).encode())
        assert rerun == read_all_bytes(first)

    # inputs that once ended in a traceback, or passed with a meaningless
    # result (a ball of radius -1, a check from no samples, a NaN bound)
    @pytest.mark.parametrize("argv", [
        ["kernel-decay", "--n-t", "0"], ["selberg", "--n-lams", "0"],
        ["toy1d", "--blocks", "0"], ["toy1d", "--blocks", "-2"],
        ["pipeline", "--samples", "0"], ["pipeline", "--T", "0"],
        ["pipeline", "--r", "0"], ["pipeline", "--nevo-n", "1"],
        ["pipeline", "--nevo-n", "0.5"], ["hs-check", "--samples", "0"],
        ["prop33", "--lam-spacing", "0"], ["prop33", "--sigma", "-0.5"],
        ["prop33", "--sigma", "0"], ["spherical", "--lams", "0"],
        ["spherical", "--lams", "-1"], ["beta-norm", "--ts", "-1"],
        ["beta-norm", "--ts", "nan"],
        ["orbit", "--R", "-1"], ["bs-stat", "--R", "-1"],
        ["geometry-check", "--samples", "-5"], ["hs-check", "--r", "0"],
        ["selberg", "--t", "inf"], ["selberg", "--t", "nan"], ["toy1d", "--L", "nan"],
        ["spherical", "--lams", "nan"], ["lemma-a1", "--lams", "nan"],
        ["beta-norm", "--ts", "inf"], ["kernel-decay", "--support", "1:inf"],
        ["variance", "--window", "1:inf"], ["prop33", "--interval", "1:inf"],
        ["prop33", "--T", "inf"], ["prop33", "--T", "nan"], ["prop33", "--sigma", "inf"],
        ["prop33", "--lam-spacing", "inf"], ["prop33", "--lam-spacing", "2"],
        ["pipeline", "--T", "inf"], ["pipeline", "--r", "inf"], ["pipeline", "--s", "inf"],
        ["pipeline", "--s", "-1"], ["pipeline", "--sigma", "inf"],
        ["pipeline", "--sigma", "0"], ["pipeline", "--sigma", "nan"],
        ["pipeline", "--T", "4", "--sigma", "5"], ["toy1d", "--L", "-5"],
        ["toy1d", "--window", "2:1"]],
        ids=" ".join)
    def test_bad_input_is_a_json_error(self, tmp_path, capsys, argv):
        out = str(tmp_path / "out")
        assert main(argv + ["--out", out]) == 1
        rec = json.loads(capsys.readouterr().err.strip())
        assert (rec["error"], rec["subcommand"]) == ("ParameterOutOfRange", argv[0])
        assert not os.path.exists(out)

    # a radius or ramp width the budget cannot use is refused before any
    # quadrature runs, in a message that names it
    @pytest.mark.parametrize("flag, value", [("T", "inf"), ("r", "inf"), ("s", "inf"),
                                             ("s", "-1"), ("sigma", "inf"),
                                             ("sigma", "0"), ("sigma", "nan"),
                                             ("sigma", "5")])
    def test_pipeline_radius_message_names_the_input(self, tmp_path, capsys, flag,
                                                     value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["pipeline", "--out", str(tmp_path), "--" + flag, value]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["message"].split()[0] == flag

    @pytest.mark.parametrize("key, listed, spelled", [("degrees", [1, 2], "1,2"),
                                                      ("window", [1, 4], "1:4")])
    def test_config_lists_join_with_the_option_separator(self, tmp_path, key, listed,
                                                         spelled):
        summaries = []
        for val in (listed, spelled):
            out = str(tmp_path / str(len(summaries)))
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"degrees": "1,2", "h": 0.1, key: val}))
            assert main(["--config", str(cfg), "tower", "--out", out]) == 0
            summary = read(out, "tower")
            del summary["config"]["out_dir"]
            summaries.append(summary)
        assert summaries[0] == summaries[1]
        assert summaries[0]["config"][key] == listed
