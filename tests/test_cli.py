"""The batch entry point: configs, reports, determinism, exit codes."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from neutralkahler.cli import (
    DEFAULT_TOLERANCES,
    RunConfig,
    build_parser,
    config_from_args,
    main,
    run,
)
from neutralkahler.errors import ConfigError


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("NKLAB_OUTPUT_DIR", str(tmp_path))
    return tmp_path


def parse(argv):
    return config_from_args(build_parser().parse_args(argv))


class TestConfig:
    def test_defaults(self):
        cfg = parse(["verify", "--suite", "ambient"])
        assert cfg.task == "verify"
        assert cfg.seed == 0
        assert cfg.tolerance("residual_max") == DEFAULT_TOLERANCES["residual_max"]

    def test_grid_spec(self):
        cfg = parse(["residual", "--A2", "1", "--grid", "64x48"])
        assert (cfg.grid_r, cfg.grid_theta) == (64, 48)

    def test_bad_grid_spec(self):
        with pytest.raises(ConfigError):
            parse(["residual", "--A2", "1", "--grid", "64by48"])

    def test_exclusion_bands(self):
        cfg = parse(["residual", "--B2", "1", "--C2", "0", "--exclude", "1.0:0.05",
                     "--exclude", "2.0"])
        assert cfg.exclude == ((1.0, 0.05), (2.0, 1e-3))

    def test_tolerance_override(self):
        cfg = parse(["verify", "--tol", "residual_max=1e-4"])
        assert cfg.tolerance("residual_max") == 1e-4

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            parse(["verify", "--tol", "bogus=1"])

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "[run]\ngeometry = sphere\nseed = 7\nsamples = 50\nsuite = ambient\n"
            "tol = residual_max=1e-4 stokes=2e-6\n"
        )
        cfg = parse(["verify", "--config", str(cfg_file), "--seed", "9"])
        assert cfg.geometry == "sphere"
        assert cfg.samples == 50
        assert cfg.seed == 9  # flag wins
        assert cfg.tol == {"residual_max": 1e-4, "stokes": 2e-6}
        cfg = parse(["verify", "--config", str(cfg_file), "--tol", "stokes=1e-5"])
        assert cfg.tol == {"stokes": 1e-5}  # flag wins
        export_file = tmp_path / "export.cfg"
        export_file.write_text("[run]\nformat = csv\nhalf-length = 2\n")
        argv = ["export", "--config", str(export_file), "--B2", "1", "--C2", "0", "--out", "t.csv"]
        assert (parse(argv).fmt, parse(argv).half_length) == ("csv", 2.0)
        assert parse(argv + ["--format", "obj"]).fmt == "obj"  # flag wins

    def test_torus_shorthand_implies_sphere(self, capsys):
        assert parse(["residual", "--B2", "1", "--C2", "0"]).geometry == "sphere"
        assert parse(["residual", "--A2", "1"]).geometry == "flat"
        with pytest.raises(ConfigError):
            parse(["residual", "--geometry", "flat", "--B2", "1", "--C2", "0"])
        assert main(["residual", "--geometry", "flat", "--B2", "1", "--C2", "0"]) == 2
        assert "round sphere" in capsys.readouterr().err

    def test_export_needs_sphere(self, capsys):
        assert main(["export", "--geometry", "flat", "--A2", "1", "--B2", "0.5",
                     "--out", "x.obj"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("line, argv", [
        ("branch = 2", ["residual", "--A2", "1"]),
        ("fmt = ply", ["export", "--B2", "1", "--C2", "0", "--out", "t.obj"]),
        ("suite = bogus", ["verify"]),
    ])
    def test_config_file_values_checked_like_flags(self, tmp_path, line, argv):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[run]\n{line}\n")
        argv = argv[:1] + ["--config", str(cfg_file)] + argv[1:]
        with pytest.raises(ConfigError):
            parse(argv)
        assert main(argv) == 2

    @pytest.mark.parametrize("argv", [
        ["area", "--A2", "1", "--B2", "0.5", "--grid", "1x16"],
        ["area", "--A2", "1", "--B2", "0.5", "--grid", "16x2"],
        ["area", "--A2", "1", "--B2", "0.5", "--rmin", "2", "--rmax", "1"],
        ["export", "--B2", "1", "--C2", "0", "--half-length", "-1", "--out", "t.obj"],
    ], ids=["one-radius", "two-angles", "empty-range", "negative-half-length"])
    def test_bad_grid_range_and_half_length(self, argv, capsys):
        with pytest.raises(ConfigError):
            parse(argv)
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse(["verify", "--config", str(tmp_path / "absent.cfg")])

    def test_main_exit_codes(self, tmp_path):
        assert main(["residual", "--grid", "13", "--A2", "1"]) == 2  # bad grid
        assert main([]) == 2  # no task

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [
            line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("nklab ")
        ]
        assert len(commands) >= 4
        for line in commands:
            parse(shlex.split(line)[1:])


class TestRun:
    def test_verify_ambient_passes(self, outdir):
        code, report = run(RunConfig(task="verify", geometry="sphere", suite="ambient",
                                     samples=100, seed=42, report="amb.json"))
        assert code == 0
        assert report["schema"] == 1
        assert all(c["passed"] for c in report["checks"])
        on_disk = json.loads((outdir / "amb.json").read_text())
        assert on_disk["checks"] == report["checks"]

    def test_determinism_modulo_timestamp(self):
        cfg = dict(task="verify", geometry="flat", suite="graphs", samples=60, seed=5,
                   report="g.json")
        _, a = run(RunConfig(**cfg))
        _, b = run(RunConfig(**cfg))
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b

    def test_torus_residual_task(self, outdir):
        code, report = run(RunConfig(
            task="residual", geometry="sphere",
            b2=1.0, c2=0.0, rmin=0.3, rmax=2.5, grid_r=16, grid_theta=16,
            exclude=((1.0, 0.05),), out="classes.csv", report="res.json",
        ))
        assert code == 0
        check = report["checks"][0]
        assert check["name"] == "residual_max"
        assert check["value"] <= 1e-6
        # 15 rings of 16 nodes: the ring at R = 1.033 lies in the band
        assert check["evaluated"] + report["values"]["skipped_nodes"] == 15 * 16
        values = report["values"]
        assert sum(values["skipped_by_reason"].values()) == values["skipped_nodes"]
        assert check["evaluated"] > 0
        assert (outdir / "classes.csv").exists()

    def test_flat_family_variation(self):
        code, report = run(RunConfig(
            task="variation", geometry="flat", a2=1.0, b2=0.5,
            rmin=0.5, rmax=2.0, grid_r=12, grid_theta=12, report="v.json",
        ))
        assert code == 0
        assert report["checks"][0]["name"] == "first_variation_rel"

    def test_export_obj(self, outdir):
        code, report = run(RunConfig(
            task="export", geometry="sphere", b2=1.0, c2=0.0,
            rmin=0.3, rmax=3.0, grid_r=16, grid_theta=16,
            fmt="obj", out="torus.obj", report="e.json",
        ))
        assert code == 0
        assert report["values"]["segments"] == 256
        assert (outdir / "torus.obj").exists()

    def test_failed_check_exits_one(self):
        code, report = run(RunConfig(
            task="residual", geometry="sphere",
            b2=1.0, c2=0.0, rmin=0.3, rmax=2.5, grid_r=12, grid_theta=12,
            exclude=((1.0, 0.05),), tol={"residual_max": 1e-15}, report="f.json",
        ))
        assert code == 1
        assert not report["checks"][0]["passed"]

    def test_tolerances_echoed(self):
        _, report = run(RunConfig(
            task="residual", geometry="sphere",
            b2=1.0, c2=0.0, rmin=0.3, rmax=2.5, grid_r=12, grid_theta=12,
            exclude=((1.0, 0.05),), tol={"residual_max": 1e-5}, report="t.json",
        ))
        assert report["config"]["tolerance_overrides"] == {"residual_max": 1e-5}
        assert report["checks"][0]["tolerance"] == 1e-5

    def test_check_that_evaluated_nothing_fails(self, outdir, capsys):
        # C2 = 2 B2: the torus is degenerate everywhere, so every node is skipped
        assert main(["residual", "--B2", "1", "--C2", "2", "--rmin", "0.3", "--rmax", "2.5",
                     "--grid", "16x16", "--report", "vacuous.json"]) == 1
        assert "[FAIL] residual_max" in capsys.readouterr().out
        report = json.loads((outdir / "vacuous.json").read_text())
        assert report["values"]["skipped_nodes"] == 256
        assert report["values"]["skipped_by_reason"] == {
            "degenerate": 256, "det_sign_change": 0, "lam_sign_change": 0}
        check = report["checks"][0]
        assert (check["value"], check["evaluated"], check["passed"]) == (0.0, 0, False)

    def test_suite_and_samples_echoed_for_verify_only(self):
        _, report = run(RunConfig(
            task="area", a2=1.0, rmin=1.0, rmax=2.0, grid_r=4, grid_theta=4, report="a.json",
        ))
        assert "suite" not in report["config"] and "samples" not in report["config"]
        _, report = run(RunConfig(task="verify", suite="ambient", samples=20, report="v.json"))
        assert (report["config"]["suite"], report["config"]["samples"]) == ("ambient", 20)

    @pytest.mark.parametrize("task", ["residual", "classify"])
    def test_one_lattice_evaluation_per_task(self, task, outdir, monkeypatch):
        # the report and the --out CSV share one residual map and one slope table
        from neutralkahler import cli, graphs

        calls = []
        for module, name in ((cli, "_residual_map"), (cli, "_slopes_on"),
                             (graphs, "_residual_map"), (graphs, "_slopes_on")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda s, xi, *a, name=name, real=real:
                                calls.append((name, np.shape(xi))) or real(s, xi, *a))
        assert main([task, "--B2", "1", "--C2", "5", "--rmin", "0.3", "--rmax", "2.5",
                     "--grid", "12x12", "--out", "c.csv", "--report", "r.json"]) == 0
        lattice = (144,)
        assert calls.count(("_residual_map", lattice)) == 1
        assert calls.count(("_slopes_on", lattice)) == 1

    def test_out_csv_is_the_export_csv(self, outdir):
        from neutralkahler.graphs import export_classification_csv
        from neutralkahler.lines3d import TorusFamily, torus_section
        from neutralkahler.numerics import AnnulusGrid

        grid = AnnulusGrid(0.3, 2.5, 12, 12, ((1.0, 0.05),))
        export_classification_csv(torus_section(TorusFamily(1.0, 5.0)), grid, outdir / "direct.csv")
        for task in ("residual", "classify"):
            assert main([task, "--B2", "1", "--C2", "5", "--rmin", "0.3", "--rmax", "2.5",
                         "--grid", "12x12", "--exclude", "1.0:0.05", "--out", f"{task}.csv",
                         "--report", "r.json"]) == 0
            assert (outdir / f"{task}.csv").read_bytes() == (outdir / "direct.csv").read_bytes()

    def test_worst_cases_are_located(self):
        _, report = run(RunConfig(task="verify", geometry="sphere", suite="graphs",
                                  samples=60, seed=5, report="w.json"))
        checks = {c["name"]: c for c in report["checks"]}
        r_min, r_max = checks["stokes"]["worst_at"]["r_range"]
        assert 0.6 <= r_min < r_max <= 2.1
        assert checks["stokes"]["worst_at"]["section"] in ("polynomial", "lagrangian")
        x, y = checks["det_oracle"]["worst_at"]["xi"]
        assert isinstance(x, float) and isinstance(y, float)

    def test_rotsym_worst_cases_are_located(self):
        _, report = run(RunConfig(task="verify", geometry="sphere", suite="rotsym",
                                  samples=100, seed=0, report="w.json"))
        checks = {c["name"]: c for c in report["checks"]}
        # 5 profiles x 9 radii x 2 equations; 3 profiles x 17 radii
        assert 45 <= checks["ode_residual"]["evaluated"] <= 90
        assert checks["psi_quadrature"]["evaluated"] == 51
        for name in ("ode_residual", "psi_quadrature"):
            at = checks[name]["worst_at"]
            assert isinstance(at["R"], float) and 0.0 < at["R"] < 1.0
            assert len(at["params"]) == 4

    def test_area_value_reported(self):
        _, report = run(RunConfig(
            task="area", geometry="flat", a2=1.0, b2=0.0,
            rmin=1.0, rmax=2.0, grid_r=16, grid_theta=8, report="a.json",
        ))
        import math

        assert report["values"]["area"] == pytest.approx(6.0 * math.pi, rel=1e-10)
