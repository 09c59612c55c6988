"""The batch entry point: configs, reports, determinism, exit codes."""

import hashlib
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from neutralkahler.ambient import GEOMETRIES
from neutralkahler.cli import (
    _OPTIONS,
    DEFAULT_TOLERANCES,
    RunConfig,
    build_parser,
    config_from_args,
    main,
    run,
)
from neutralkahler.errors import ConfigError, DomainError, UnsupportedGeometryError
from neutralkahler.graphs import conjugate_section, lagrangian_section, slopes
from neutralkahler.sampling import geometry_by_name, random_family_profiles, rng_from_seed


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
        assert cfg.grid == (64, 48)

    def test_bad_grid_spec(self):
        with pytest.raises(ConfigError):
            parse(["residual", "--A2", "1", "--grid", "64by48"])

    def test_exclusion_bands(self):
        cfg = parse(["residual", "--B2", "1", "--C2", "0", "--exclude", "1.0:0.05",
                     "--exclude", "2.0"])
        assert cfg.exclude == ((1.0, 0.05), (2.0, 1e-3))

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="unknown task 'bogus'"):
            RunConfig(task="bogus")

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
        ["export", "--B2", "1", "--C2", "5", "--grid", "4x4", "--half-length", "nan",
         "--out", "t.obj"],
        ["export", "--B2", "1", "--C2", "5", "--grid", "4x4", "--half-length", "inf",
         "--out", "t.obj"],
        ["area", "--A2", "1", "--B2", "0.5", "--rmax", "inf"],
        ["export", "--B2", "1", "--C2", "5", "--rmax", "inf", "--out", "t.obj"],
        ["area", "--A2", "1", "--B2", "0.5", "--rmin", "nan"],
        ["area", "--A2", "1", "--B2", "0.5", "--rmin", "0.5", "--rmax", "2", "--grid", "16x16",
         "--exclude", "1.0:-0.1"],
        ["area", "--A2", "1", "--B2", "0.5", "--exclude", "1.0:nan"],
        ["area", "--A2", "1", "--B2", "0.5", "--exclude", "1.0:0"],
        ["area", "--A2", "1", "--B2", "0.5", "--exclude", "nan:0.1"],
        ["verify", "--seed", "-5"],
        ["residual", "--A2", "nan", "--B2", "1"],
        ["residual", "--A2", "1", "--B2", "inf"],
        ["area", "--A1=-inf", "--A2", "1", "--B2", "0.5"],
        ["area", "--B1", "nan", "--A2", "1", "--B2", "0.5"],
        ["export", "--B2", "nan", "--C2", "0", "--out", "t.obj"],
        ["export", "--B2", "1", "--C2", "inf", "--out", "t.obj"],
        ["verify", "--tol", "ode_residual=nan"],
        ["verify", "--tol", "ode_residual=-1"],
        ["verify", "--tol", "stokes=inf"],
    ], ids=["one-radius", "two-angles", "empty-range", "negative-half-length",
            "nan-half-length", "infinite-half-length", "infinite-rmax", "export-infinite-rmax",
            "nan-rmin", "negative-band-half-width", "nan-band-half-width",
            "zero-band-half-width", "nan-band-centre", "negative-seed", "nan-A2",
            "infinite-B2", "infinite-A1", "nan-B1", "nan-B2", "infinite-C2", "nan-tolerance",
            "negative-tolerance", "infinite-tolerance"])
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

    @pytest.mark.parametrize("argv, message", [
        (["export", "--B2", "1", "--C2", "0"], "export needs --out"),
        (["residual", "--C2", "5"], "needs both --B2 and --C2"),
        (["area", "--B2", "0.5"], "family tasks need --A2"),
    ], ids=["export-without-out", "C2-without-B2", "family-task-without-A2"])
    def test_missing_options_exit_two(self, argv, message, capsys):
        # a rule of the run, raised when its RunConfig is built
        with pytest.raises(ConfigError, match=message):
            parse(argv)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    def test_export_without_out_fails_before_building_the_torus(self, outdir, capsys):
        # B2 < 0 has no torus: an export that built it first would exit 1 on "need B2 >= 0"
        assert main(["export", "--B2", "-1", "--C2", "0"]) == 2
        assert "export needs --out" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_report_under_a_file_is_an_io_error(self, outdir, capsys):
        (outdir / "taken").write_text("")
        assert main(["area", "--A2", "1", "--B2", "0.5", "--grid", "4x4",
                     "--report", "taken/r.json"]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")

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


class TestOptionTable:
    COMMON = {"-h", "--help", "--config", "--geometry", "--seed", "--grid", "--rmin", "--rmax",
              "--exclude", "--tol", "--report", "--out"}
    FAMILY = {"--A1", "--B1", "--A2", "--B2", "--C2", "--branch"}

    def test_subcommands_list_the_same_options(self):
        # the option strings of each subcommand, as recorded before the option table
        expected = {
            "verify": self.COMMON | {"--suite", "--samples"},
            "residual": self.COMMON | self.FAMILY,
            "area": self.COMMON | self.FAMILY,
            "variation": self.COMMON | self.FAMILY,
            "classify": self.COMMON | self.FAMILY,
            "export": self.COMMON | self.FAMILY | {"--half-length", "--format"},
        }
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "task")
        assert list(sub.choices) == list(expected)
        for task, subparser in sub.choices.items():
            assert {s for a in subparser._actions for s in a.option_strings} == expected[task]
        assert {s for a in parser._actions for s in a.option_strings} == {
            "-h", "--help", "--version"}

    def test_parser_is_shared_and_keeps_no_state(self, outdir):
        assert build_parser() is build_parser()
        # repeatable options append: a value of the first call must not reach the second
        argv = ["residual", "--B2", "1", "--C2", "5", "--rmin", "0.3", "--rmax", "2.5",
                "--grid", "8x8"]
        assert main(argv + ["--exclude", "1.0:0.05", "--tol", "residual_max=1e-3",
                            "--report", "first.json"]) == 0
        assert main(argv + ["--report", "second.json"]) == 0
        first, second = (json.loads((outdir / f"{name}.json").read_text())["config"]
                         for name in ("first", "second"))
        assert (first["exclude"], first["tolerance_overrides"]) == (
            [[1.0, 0.05]], {"residual_max": 1e-3})
        assert (second["exclude"], second["tolerance_overrides"]) == ([], {})

    # one bad value per parser: the task, the flag, its file key, the value
    BAD_VALUES = [
        (["verify"], "--samples", "samples", "abc"),
        (["verify"], "--seed", "seed", "1.5"),
        (["area", "--A2", "1"], "--rmin", "rmin", "abc"),
        (["area", "--A2", "1"], "--grid", "grid", "64by48"),
        (["area", "--A2", "1"], "--exclude", "exclude", "1.0:x"),
        (["verify"], "--tol", "tol", "residual_max"),
        (["verify"], "--tol", "tol", "residual_max=abc"),
        (["export", "--B2", "1", "--C2", "0", "--out", "t.obj"], "--format", "format", "ply"),
    ]
    BAD_IDS = ["int", "int-from-float", "float", "grid", "exclude", "tol", "tol-value", "format"]

    @pytest.mark.parametrize("argv, flag, key, value", BAD_VALUES, ids=BAD_IDS)
    def test_bad_flag_value(self, argv, flag, key, value, capsys):
        argv = argv + [flag, value]
        with pytest.raises(ConfigError, match=flag):
            parse(argv)
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, key, value", BAD_VALUES, ids=BAD_IDS)
    def test_bad_file_value(self, tmp_path, argv, flag, key, value, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[run]\n{key} = {value}\n")
        argv = argv[:1] + ["--config", str(cfg_file)] + argv[1:]
        with pytest.raises(ConfigError, match=flag):
            parse(argv)
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("line, argv", [
        ("samples = 5", ["area", "--A2", "1"]), ("half_length = 2", ["area", "--A2", "1"]),
        ("suite = ambient", ["residual", "--A2", "1"]), ("grid_r = 16", ["verify"]),
        ("grid_theta = 16", ["verify"]), ("task = area", ["verify"]),
        ("config = other.cfg", ["verify"]), ("bogus = 1", ["verify"]),
    ])
    def test_file_keys_the_task_does_not_take(self, tmp_path, line, argv, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[run]\n{line}\n")
        argv = argv[:1] + ["--config", str(cfg_file)] + argv[1:]
        with pytest.raises(ConfigError, match="does not take"):
            parse(argv)
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_file_keys_spelled_like_flag_or_field(self, tmp_path):
        for text in ("[run]\nformat = csv\nhalf-length = 2\nA2 = 1\ngrid = 8x12\n",
                     "[run]\nfmt = csv\nhalf_length = 2\na2 = 1\ngrid = 8X12\n"):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(text)
            cfg = parse(["export", "--config", str(cfg_file), "--B2", "1", "--C2", "0",
                         "--out", "t.csv"])
            assert (cfg.fmt, cfg.half_length, cfg.a2) == ("csv", 2.0, 1.0)
            assert cfg.grid == (8, 12)

    def test_unparsable_file_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("samples = 5\n")  # no section header
        assert main(["verify", "--config", str(cfg_file)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, flag", [
        ("geometry", "hyperbolic", "--geometry"), ("suite", "bogus", "--suite"),
        ("samples", 0, "--samples"), ("seed", -1, "--seed"), ("branch", 2, "--branch"),
        ("grid", (1, 32), "--grid"), ("grid", (32, 3), "--grid"),
        ("exclude", ((1.0, 0.0),), "--exclude"), ("half_length", np.inf, "--half-length"),
        ("fmt", "ply", "--format"), ("tol", {"bogus": 1.0}, "--tol"),
        ("a1", np.nan, "--A1"), ("b1", -np.inf, "--B1"), ("a2", np.nan, "--A2"),
        ("b2", np.inf, "--B2"), ("c2", np.nan, "--C2"), ("tol", {"stokes": np.nan}, "--tol"),
        ("tol", {"stokes": -1e-9}, "--tol"), ("tol", {"stokes": np.inf}, "--tol"),
    ])
    def test_rules_guard_direct_construction(self, field, value, flag):
        base = dict(task="export", geometry="sphere", b2=1.0, c2=0.0, out="t.obj")
        RunConfig(**base)
        with pytest.raises(ConfigError, match=flag):
            RunConfig(**{**base, field: value})

    @pytest.mark.parametrize("field, value, flag", [
        ("seed", None, "--seed"), ("samples", None, "--samples"), ("suite", None, "--suite"),
        ("exclude", None, "--exclude"), ("tol", None, "--tol"), ("rmin", None, "--rmin"),
        ("samples", "5", "--samples"), ("grid", 16, "--grid"), ("seed", 1.5, "--seed"),
        ("rmin", "0.3", "--rmin"),
    ])
    def test_none_or_a_wrong_type_is_a_config_error(self, field, value, flag):
        # None stands only where it is the default; a value the rule cannot test is bad too
        RunConfig(task="verify", geometry=None, out=None)
        with pytest.raises(ConfigError, match=flag):
            RunConfig(task="verify", **{field: value})

    def test_an_option_without_a_rule_is_type_checked_too(self):
        # a value is held to the type that its option's parser returns
        with pytest.raises(ConfigError, match="--A2 takes float, got '1'"):
            RunConfig(task="area", a2="1", grid=(4, 4))

    @pytest.mark.parametrize("field, value", [
        ("exclude", ((1.0, "x"),)), ("exclude", [(1.0, 0.1)]),
        ("tol", {"stokes": "x"}), ("tol", {"stokes": True}),
    ])
    def test_a_repeatable_option_names_its_collection(self, field, value):
        # a wrong item, or the wrong collection, names the collection and the item type
        takes = {"exclude": "--exclude takes a tuple of tuple[float, float]",
                 "tol": "--tol takes a dict of tuple[str, float]"}
        with pytest.raises(ConfigError) as exc:
            RunConfig(task="area", a2=1.0, grid=(4, 4), **{field: value})
        assert str(exc.value) == f"{takes[field]}, got {value!r}"

    def test_an_int_passes_for_a_float(self, outdir):
        _, by_int = run(RunConfig(task="area", a2=1, rmin=1, grid=(4, 4), report="a.json"))
        _, by_float = run(RunConfig(task="area", a2=1.0, rmin=1.0, grid=(4, 4), report="a.json"))
        assert (by_int["checks"], by_int["values"]) == (by_float["checks"], by_float["values"])

    def test_an_int_for_a_float_is_held_as_a_float(self, outdir):
        # the report echoes the options, so equal values give equal reports
        by_int = RunConfig(task="area", a1=0, a2=1, rmin=1, grid=(4, 4), exclude=((2, 0.05),),
                           tol={"residual_max": 1}, report="a.json")
        by_float = RunConfig(task="area", a1=0.0, a2=1.0, rmin=1.0, grid=(4, 4),
                             exclude=((2.0, 0.05),), tol={"residual_max": 1.0}, report="a.json")
        assert [type(v) for v in (by_int.a1, by_int.a2, by_int.rmin, by_int.exclude[0][0],
                                  by_int.tol["residual_max"])] == [float] * 5
        assert type(RunConfig(task="verify", a1=0).a1) is float  # an option verify does not take
        texts = []
        for config in (by_int, by_float):
            report = run(config)[1]
            del report["timestamp"]
            texts.append(json.dumps(report, sort_keys=True))
        # dict equality takes 1 for 1.0; the report's JSON text does not
        assert texts[0] == texts[1] and '"r_range": [1.0, 2.5]' in texts[0]

    def test_a_parser_return_type_is_resolved_once(self, monkeypatch):
        import neutralkahler.cli as cli
        calls, real = [], cli.get_type_hints
        monkeypatch.setattr(cli, "get_type_hints", lambda f: calls.append(f) or real(f))
        cli._returns.cache_clear()
        for _ in range(3):
            RunConfig(task="area", a2=1.0, grid=(4, 4), exclude=((2.0, 0.05),))
        cli._returns.cache_clear()
        assert sorted(f.__name__ for f in calls) == ["_parse_band", "_parse_grid", "_parse_tol"]

    @pytest.mark.parametrize("task, field, value, flag", [
        ("area", "samples", 5, "--samples"), ("export", "suite", "graphs", "--suite"),
        ("verify", "a2", 1.0, "--A2"), ("verify", "branch", -1, "--branch"),
        ("residual", "fmt", "csv", "--format"), ("classify", "half_length", 2.0, "--half-length"),
    ])
    def test_direct_construction_takes_only_the_tasks_options(self, task, field, value, flag):
        base = {"task": task}
        if task == "export":
            base.update(geometry="sphere", b2=1.0, c2=0.0, out="t.obj")
        elif task != "verify":
            base.update(a2=1.0)
        # an option the task does not take may hold its default only
        RunConfig(**base, **{field: getattr(RunConfig(**base), field)})
        with pytest.raises(ConfigError, match=f"does not take {flag}"):
            RunConfig(**base, **{field: value})


class TestRun:
    def test_sphere_family_stands_off_the_null_circle(self, outdir):
        # its domain starts at R = 1.00025, next to the zero of 1 + R u' at R = 1,
        # where residual_max read 1.75e-6 on the first ring of the lattice
        argv = ["residual", "--geometry", "sphere", "--A1", "0.4", "--B1", "0.3", "--A2", "1",
                "--B2", "0.5", "--rmin", "0.5", "--rmax", "2.0", "--report", "r.json"]
        assert main(argv) == 0
        report = json.loads((outdir / "r.json").read_text())
        (check,) = report["checks"]
        assert check["name"] == "residual_max" and check["passed"]
        assert check["tolerance"] == DEFAULT_TOLERANCES["residual_max"]
        assert check["evaluated"] == 32 * 32

    def test_verify_ambient_passes(self, outdir):
        code, report = run(RunConfig(task="verify", geometry="sphere", suite="ambient",
                                     samples=100, seed=42, report="amb.json"))
        assert code == 0
        assert report["schema"] == 1
        assert all(c["passed"] for c in report["checks"])
        on_disk = json.loads((outdir / "amb.json").read_text())
        assert on_disk["checks"] == report["checks"]

    def test_returned_report_is_the_one_on_disk(self, outdir):
        _, report = run(RunConfig(task="area", a2=1.0, grid=(4, 4), report="a.json"))
        assert json.loads((outdir / "a.json").read_text()) == report  # timestamp included

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
            b2=1.0, c2=0.0, rmin=0.3, rmax=2.5, grid=(16, 16),
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
            rmin=0.5, rmax=2.0, grid=(12, 12), report="v.json",
        ))
        assert code == 0
        assert report["checks"][0]["name"] == "first_variation_rel"

    def test_export_obj(self, outdir):
        code, report = run(RunConfig(
            task="export", geometry="sphere", b2=1.0, c2=0.0,
            rmin=0.3, rmax=3.0, grid=(16, 16),
            fmt="obj", out="torus.obj", report="e.json",
        ))
        assert code == 0
        assert report["values"]["segments"] == 256
        assert (outdir / "torus.obj").exists()

    def test_export_of_an_empty_lattice_fails(self, outdir, capsys):
        # both radii of the 2x4 lattice lie in exclusion bands: nothing is exported
        assert main(["export", "--B2", "1", "--C2", "5", "--grid", "2x4", "--rmin", "0.5",
                     "--rmax", "2.5", "--exclude", "0.5:0.1", "--exclude", "2.5:0.1",
                     "--out", "t.obj", "--report", "empty.json"]) == 1
        assert "[FAIL] export_segments" in capsys.readouterr().out
        report = json.loads((outdir / "empty.json").read_text())
        assert report["values"]["segments"] == 0
        assert report["checks"][0]["evaluated"] == 0

    @pytest.mark.parametrize("argv", [
        ["export", "--B2", "1", "--C2", "0", "--out", "sub/t.obj"],
        ["classify", "--B2", "1", "--C2", "5", "--out", "sub/t.csv"],
        ["residual", "--B2", "1", "--C2", "5", "--out", "sub/t.csv"],
    ], ids=["export", "classify", "residual"])
    def test_artifact_directories_are_created(self, argv, outdir, monkeypatch):
        # like the report's: under a missing output directory and in a missing subdirectory
        monkeypatch.setenv("NKLAB_OUTPUT_DIR", str(outdir / "missing"))
        argv += ["--rmin", "0.3", "--rmax", "2.5", "--grid", "8x8", "--report", "rep/r.json"]
        assert main(argv) == 0
        report = json.loads((outdir / "missing" / "rep" / "r.json").read_text())
        assert report["artifacts"] == [str(outdir / "missing" / argv[argv.index("--out") + 1])]
        assert Path(report["artifacts"][0]).stat().st_size > 0

    def test_failed_check_exits_one(self):
        code, report = run(RunConfig(
            task="residual", geometry="sphere",
            b2=1.0, c2=0.0, rmin=0.3, rmax=2.5, grid=(12, 12),
            exclude=((1.0, 0.05),), tol={"residual_max": 1e-15}, report="f.json",
        ))
        assert code == 1
        assert not report["checks"][0]["passed"]

    def test_tolerances_echoed(self):
        _, report = run(RunConfig(
            task="residual", geometry="sphere",
            b2=1.0, c2=0.0, rmin=0.3, rmax=2.5, grid=(12, 12),
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
            task="area", a2=1.0, rmin=1.0, rmax=2.0, grid=(4, 4), report="a.json",
        ))
        assert "suite" not in report["config"] and "samples" not in report["config"]
        _, report = run(RunConfig(task="verify", suite="ambient", samples=20, report="v.json"))
        assert (report["config"]["suite"], report["config"]["samples"]) == ("ambient", 20)

    @pytest.mark.parametrize("task", ["residual", "classify"])
    def test_one_lattice_evaluation_per_task(self, task, outdir, monkeypatch):
        # the report and the --out CSV share one residual map, whose stencil
        # centres are the lattice's slopes: no second slope table
        from neutralkahler import cli, graphs

        calls = []
        for module, name in ((cli, "_residual_map"), (cli, "slopes"),
                             (graphs, "_residual_map"), (graphs, "slopes")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda s, xi, *a, name=name, real=real:
                                calls.append((name, np.shape(xi))) or real(s, xi, *a))
        assert main([task, "--B2", "1", "--C2", "5", "--rmin", "0.3", "--rmax", "2.5",
                     "--grid", "12x12", "--out", "c.csv", "--report", "r.json"]) == 0
        lattice = (144,)
        assert calls.count(("_residual_map", lattice)) == 1
        assert calls.count(("slopes", (9,) + lattice)) == 1
        assert len(calls) == 2

    def test_classify_without_out_counts_the_same_classes(self, outdir):
        argv = ["classify", "--B2", "1", "--C2", "0", "--rmin", "0.3", "--rmax", "2.5",
                "--grid", "12x12"]
        assert main(argv + ["--report", "plain.json"]) == 0
        assert main(argv + ["--out", "c.csv", "--report", "out.json"]) == 0
        plain, out = (json.loads((outdir / f"{name}.json").read_text())
                      for name in ("plain", "out"))
        assert plain["artifacts"] == [] and len(out["artifacts"]) == 1
        assert plain["values"]["class_counts"] == out["values"]["class_counts"]
        assert sum(plain["values"]["class_counts"].values()) == 144

    def test_out_csv_is_the_export_csv(self, outdir):
        from neutralkahler.graphs import export_classification_csv
        from neutralkahler.lines3d import TorusFamily, torus_section
        from neutralkahler.numerics import AnnulusGrid

        # the band removes the rings at R = 0.9 and 1.1 of the 12 on [0.3, 2.5]
        grid = AnnulusGrid(0.3, 2.5, 12, 12, ((1.0, 0.15),))
        rings = np.unique(grid._lattice()[0])
        assert rings.size == 10 < np.unique(AnnulusGrid(0.3, 2.5, 12, 12)._lattice()[0]).size
        assert not np.any(np.abs(rings - 1.0) < 0.15)
        rows = export_classification_csv(torus_section(TorusFamily(1.0, 5.0)), grid,
                                         outdir / "direct.csv")
        assert rows == 10 * 12
        for task in ("residual", "classify"):
            assert main([task, "--B2", "1", "--C2", "5", "--rmin", "0.3", "--rmax", "2.5",
                         "--grid", "12x12", "--exclude", "1.0:0.15", "--out", f"{task}.csv",
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

    def test_ambient_checks_show_coverage(self):
        _, report = run(RunConfig(task="verify", geometry="sphere", suite="ambient",
                                  samples=100, seed=0, report="amb.json"))
        checks = {c["name"]: c for c in report["checks"]}
        # 100 random planes, 10 complex planes, 100 frames, 5 stencil centres
        expected = {"calibration_floor": 100, "jplane_gap": 10, "compatibility": 100,
                    "signature_defects": 100, "closedness": 5, "exactness": 5}
        assert {name: checks[name]["evaluated"] for name in expected} == expected
        # closedness and exactness: the centre of the worst stencil
        for name in ("calibration_floor", "jplane_gap", "compatibility", "closedness",
                     "exactness"):
            at = checks[name]["worst_at"]
            assert set(at) == {"xi", "eta"}
            assert all(isinstance(c, float) for c in at["xi"] + at["eta"])
        assert "worst_at" not in checks["signature_defects"]

    def test_every_max_type_check_shows_coverage_and_worst_case(self):
        reports = [run(RunConfig(task="verify", geometry=geometry, suite="all", samples=100,
                                 report=f"{geometry}.json"))[1] for geometry in ("flat", "sphere")]
        family = dict(geometry="sphere", b2=1.0, c2=5.0, rmin=0.3, rmax=2.5, grid=(12, 12),
                      exclude=((1.0, 0.05),))
        reports += [run(RunConfig(task=task, report=f"{task}.json", **family))[1]
                    for task in ("residual", "variation")]
        checks = [c for report in reports for c in report["checks"]]
        assert {c["name"] for c in checks} >= set(DEFAULT_TOLERANCES)
        for check in checks:
            if check["name"] in DEFAULT_TOLERANCES:
                assert check["evaluated"] > 0, check
                assert "worst_at" in check, check

    def test_residual_worst_cases_are_located(self):
        _, report = run(RunConfig(
            task="residual", geometry="sphere", b2=1.0, c2=5.0, rmin=0.3, rmax=2.5,
            grid=(12, 12), exclude=((1.0, 0.05),), report="r.json"))
        at = report["checks"][0]["worst_at"]
        assert set(at) == {"R", "theta"}
        assert 0.3 <= at["R"] <= 2.5 and abs(at["R"] - 1.0) >= 0.05
        assert 0.0 <= at["theta"] < 2.0 * np.pi
        _, report = run(RunConfig(task="verify", geometry="sphere", suite="families",
                                  samples=100, seed=0, report="f.json"))
        check = next(c for c in report["checks"] if c["name"] == "residual_max")
        assert set(check["worst_at"]) == {"R", "theta", "params"}
        assert len(check["worst_at"]["params"]) == 4
        assert isinstance(check["worst_at"]["theta"], float)

    def test_area_value_reported(self):
        _, report = run(RunConfig(
            task="area", geometry="flat", a2=1.0, b2=0.0,
            rmin=1.0, rmax=2.0, grid=(16, 8), report="a.json",
        ))
        import math

        assert report["values"]["area"] == pytest.approx(6.0 * math.pi, rel=1e-10)


def _hexed(obj):
    """``obj`` with every float written as its ``float.hex`` string."""
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, dict):
        return {key: _hexed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_hexed(value) for value in obj]
    return obj


#: (geometry, seed) -> SHA-256 of the families suite's checks and values, every float
#: as float.hex, recorded before the suite swept each section's bumps in one call
FAMILIES_DIGESTS = {
    ("flat", 0): "5195158e26051139590ecf964b912f7d4aeba17e68b1de267379a86219ab7874",
    ("flat", 1): "5bc05362822ac20985c1671877b3e83717fbde019ad6a774bfea6ebd1330e0cf",
    ("sphere", 0): "e68887bd7f6dcbf8ef72aa99efdd40b7fd06357e9812ee29fc4de865cdd215c7",
    ("sphere", 1): "c9763a168a1cd2fc13e18a704869b5e1de28e86f13f6b3a359a1d3c996fb6f3f",
}


@pytest.mark.parametrize("geometry, seed", FAMILIES_DIGESTS)
def test_families_suite_is_pinned(geometry, seed):
    _, report = run(RunConfig(task="verify", geometry=geometry, suite="families", seed=seed,
                              report="families.json"))
    body = _hexed({"checks": report["checks"], "values": report["values"]})
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == FAMILIES_DIGESTS[geometry, seed]


# ---------------------------------------------------------------------------
# the geometry table
# ---------------------------------------------------------------------------


@pytest.fixture
def bump_row(monkeypatch, bump):
    """The table with one more row, the bump; nothing else is patched."""
    monkeypatch.setitem(GEOMETRIES, "bump", (lambda: bump, (0.3, 2.5)))
    return "bump"


class TestGeometryTable:
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "ambient"], ["verify", "--suite", "rotsym"],
        ["verify", "--suite", "families"], ["residual", "--A2", "1", "--B2", "0.5"],
        ["variation", "--A2", "1", "--B2", "0.5"],
    ])
    def test_one_row_runs_the_ode_and_family_checks(self, bump_row, argv, outdir):
        samples = ["--samples", "100"] if argv[0] == "verify" else []
        argv = argv + samples + ["--geometry", bump_row, "--report", "bump.json"]
        assert main(argv) == 0
        report = json.loads((outdir / "bump.json").read_text())
        assert report["config"]["geometry"] == bump_row
        assert report["checks"] and all(c["passed"] for c in report["checks"])
        assert all(c["tolerance"] == DEFAULT_TOLERANCES[c["name"]] for c in report["checks"]
                   if c["name"] in DEFAULT_TOLERANCES)
        if argv[2] == "ambient":
            # closedness reads 0 on the flat row; the bump's Omega varies
            (closed,) = [c for c in report["checks"] if c["name"] == "closedness"]
            assert closed["evaluated"] > 0 and closed["value"] > 0.0

    @pytest.mark.parametrize("suite", ["graphs", "all"])
    def test_row_without_polynomial_ends_the_graphs_suite_readably(self, bump_row, suite,
                                                                   capsys):
        assert main(["verify", "--geometry", bump_row, "--suite", suite,
                     "--samples", "100"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{bump_row}'" in err
        assert "Traceback" not in err

    def test_geometry_choices_are_the_table_keys(self, bump_row):
        (option,) = [opt for opt in _OPTIONS if opt.flag == "--geometry"]
        assert list(option.choices) == list(GEOMETRIES) == ["flat", "sphere", bump_row]
        assert RunConfig(task="verify", geometry=bump_row).geometry == bump_row

    def test_unknown_geometry_names_the_known_ones(self, capsys):
        assert main(["verify", "--geometry", "hyperbolic"]) == 2
        err = capsys.readouterr().err
        assert "('flat', 'sphere')" in err and "function" not in err
        with pytest.raises(DomainError, match=r"\('flat', 'sphere'\)") as info:
            geometry_by_name("hyperbolic")
        assert "function" not in str(info.value)

    def test_help_lists_a_row_added_in_process(self, bump_row, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert f"--geometry {{flat,sphere,{bump_row}}}" in capsys.readouterr().out
        assert build_parser() is build_parser()

    def test_help_lists_the_geometries(self, capsys):
        # no cache to clear, whatever ran before: the parser follows the table's names
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "--geometry {flat,sphere}" in capsys.readouterr().out

    def test_every_row_builds_its_named_geometry(self, bump_row):
        for name in GEOMETRIES:
            assert geometry_by_name(name).name == name

    @pytest.mark.parametrize("name", ["flat", "sphere"])
    def test_family_domains_lie_in_the_row_range(self, name):
        lo, hi = GEOMETRIES[name][1]
        for _, profile in random_family_profiles(rng_from_seed(3), name, 5):
            assert lo <= profile.domain[0] < profile.domain[1] <= hi

    def test_lagrangian_sections_exactly_on_rows_with_a_matrix(self, bump_row):
        # the matrix of e^{-2u} is the row geometry's own inverse_factor (None on the bump)
        potential = {(2, 1): 0.3 + 0.1j, (1, 1): 0.5}
        for name in GEOMETRIES:
            geom = geometry_by_name(name)
            if geom.inverse_factor is None:
                with pytest.raises(UnsupportedGeometryError, match=name):
                    lagrangian_section(geom, potential)
            else:
                assert abs(slopes(lagrangian_section(geom, potential), 0.4 + 0.7j).lam) < 1e-12
        # the reflection of the sphere, which is no row, carries the transposed matrix
        reflected = conjugate_section(lagrangian_section(geometry_by_name("sphere"), potential))
        assert reflected.geometry.name == "sphere~"
        section = lagrangian_section(reflected.geometry, potential)
        assert abs(slopes(section, 0.4 + 0.7j).lam) < 1e-12
