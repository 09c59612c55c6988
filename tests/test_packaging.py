"""Packaging: the runtime imports match the declared dependencies, importing
the CLI loads no scipy, configparser, argparse, json, numpy.polynomial or cmath,
the only dataclasses are the classes that validate on construction, every
exported name resolves, the package's ``__all__`` is its modules' lists
concatenated, the geometries are named in one table, only ``numerics``
spells the step of the plane's one finite-difference stencil and formats the
numbers of the CSV/OBJ artifacts, no handler catches more than the exceptions it
names, only the pullback oracle calls that stencil, and the one difference rule
has only the users the README lists."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neutralkahler"


def third_party_imports():
    """Top-level names of the modules ``src/neutralkahler`` imports from
    outside the standard library and outside the package itself."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {PACKAGE.name}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is in the standard library "
                                                       "from Python 3.11 on")
def test_dependencies_are_the_third_party_imports():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                for req in project["dependencies"]}
    assert third_party_imports() == declared


def cli_import_loads(package: str) -> list[str]:
    """The modules of ``package`` that a fresh ``import neutralkahler.cli`` loads."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, neutralkahler.cli; "
         f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def test_cli_import_loads_no_scipy():
    assert cli_import_loads("scipy") == []


def test_cli_import_loads_no_configparser():
    # only --config reads a file; runs without it skip the import
    assert cli_import_loads("configparser") == []


def test_cli_import_loads_no_argparse_or_json():
    # only main parses arguments and only run writes a report; each imports its module
    assert cli_import_loads("argparse") == cli_import_loads("json") == []


def test_cli_import_loads_no_numpy_polynomial():
    # CumulativeIntegral's antiderivative table is pinned and its Legendre sum inline
    assert [m for m in cli_import_loads("numpy") if m.startswith("numpy.polynomial")] == []


def test_cli_import_loads_no_cmath():
    assert cli_import_loads("cmath") == []


#: the package's dataclasses: each checks or derives state in ``__post_init__``,
#: and ``RunConfig`` is also mutable. A field-only record is a ``NamedTuple``,
#: which costs a fraction of a dataclass at import
VALIDATING_DATACLASSES = {
    "ambient.TangentPoint",
    "cli.RunConfig",
    "lines3d.OrientedLine",
    "lines3d.TorusFamily",
    "numerics.AnnulusGrid",
    "rotsym.RotSymProfile",
}


def test_dataclasses_are_exactly_the_validating_classes():
    # ``__init__`` is read through the package object: importing it by its stem would
    # run it a second time as a module of its own, ``neutralkahler.__init__``
    found = {}
    for path in PACKAGE.glob("*.py"):
        name = PACKAGE.name if path.stem == "__init__" else f"{PACKAGE.name}.{path.stem}"
        mod = importlib.import_module(name)
        found.update((f"{path.stem}.{name}", cls) for name, cls in vars(mod).items()
                     if isinstance(cls, type) and cls.__module__ == mod.__name__
                     and dataclasses.is_dataclass(cls))
    assert set(found) == VALIDATING_DATACLASSES
    assert [name for name, cls in found.items() if "__post_init__" not in vars(cls)] == []
    assert f"{PACKAGE.name}.__init__" not in sys.modules


#: the modules whose ``__all__`` the package re-exports, in the order of its own
#: ``__all__``
PUBLIC_MODULES = ("ambient", "numerics", "graphs", "rotsym", "lines3d", "sampling")
#: the modules but ``__init__`` that declare an ``__all__``
DECLARING_MODULES = sorted(p.stem for p in PACKAGE.glob("*.py")
                           if p.stem != "__init__" and "\n__all__ = " in p.read_text())


@pytest.mark.parametrize("module", DECLARING_MODULES)
def test_every_all_name_resolves(module):
    mod = importlib.import_module(f"{PACKAGE.name}.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_the_public_modules_are_the_modules_declaring_all():
    assert sorted(PUBLIC_MODULES) == DECLARING_MODULES


def test_package_all_is_the_module_lists_concatenated():
    # each module's __all__ is the one declaration of its public names
    import neutralkahler

    assert neutralkahler.__all__ == [
        name for module in PUBLIC_MODULES
        for name in importlib.import_module(f"{PACKAGE.name}.{module}").__all__]


def test_package_all_names_no_name_twice():
    import neutralkahler

    assert len(set(neutralkahler.__all__)) == len(neutralkahler.__all__)


def test_package_exports_each_name_as_its_module_object():
    import neutralkahler

    others = []
    for module in PUBLIC_MODULES:
        mod = importlib.import_module(f"{PACKAGE.name}.{module}")
        others += [f"{module}.{name}" for name in mod.__all__
                   if getattr(neutralkahler, name, None) is not getattr(mod, name)]
    assert others == []


#: where ``src`` may spell a geometry's name: the table, the ``name=`` of each
#: geometry, and the CLI's rules on the name the user typed (the --C2 torus
#: shorthand, export and the default geometry); code that holds over the round
#: sphere alone reads the geometry's ``inverse_factor``, not its name
GEOMETRY_NAME_PLACES = {
    "ambient.GEOMETRIES",
    "ambient.flat_geometry(name=)",
    "ambient.sphere_geometry(name=)",
    "cli.RunConfig.__post_init__",
}


def geometry_name_places():
    """The places (module, enclosing definitions or assignment, ``(name=)`` for a
    keyword argument ``name``) of the string constants "flat" and "sphere" in ``src``."""
    places = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        elif isinstance(node, ast.Assign) and where.count(".") == 0:
            where += "".join(f".{t.id}" for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.keyword) and node.arg == "name":
            where += "(name=)"
        elif isinstance(node, ast.Constant) and node.value in ("flat", "sphere"):
            places.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return places


def test_geometry_names_only_in_the_table_and_the_round_sphere_rules():
    # a new branch on a built geometry's name belongs on ConformalGeometry, as a field
    assert geometry_name_places() == GEOMETRY_NAME_PLACES


def test_only_numerics_formats_numbers():
    # every CSV/OBJ number is formatted by numerics._write_rows; a second number
    # formatter elsewhere would call repr or write rows of its own
    def formats(path):
        return any(isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "repr"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "writelines")
            for node in ast.walk(ast.parse(path.read_text(), str(path))))

    assert [p.name for p in PACKAGE.glob("*.py") if formats(p)] == ["numerics.py"]


def test_only_numerics_spells_the_plane_step():
    # the pullback differences F through numerics._plane_partials alone; a second
    # stencil of the plane elsewhere would spell its step
    assert [p.name for p in PACKAGE.glob("*.py") if "FD_STEP" in p.read_text()] == [
        "numerics.py"]


def test_handlers_catch_only_named_exceptions():
    # a handler names what it expects: no bare except and no except Exception, so no
    # catch-all can rewrap or hide the error a geometry or a field raises itself
    def broad(handler):
        if handler.type is None:
            return True
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(getattr(t, "id", getattr(t, "attr", None)) in ("Exception", "BaseException")
                   for t in types)

    assert [f"{p.name}:{node.lineno}" for p in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(p.read_text(), str(p)))
            if isinstance(node, ast.ExceptHandler) and broad(node)] == []


def readers_of(name: str) -> list[str]:
    """The definitions (``module.function``, nested ones dotted, ``<lambda>`` for a
    lambda) in ``src`` whose code reads ``name``, once per reading, in source order."""
    readers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
            where = f"{where}.{getattr(node, 'name', '<lambda>')}"
        elif name in (getattr(node, "id", None), getattr(node, "attr", None)):
            readers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return readers


def test_only_the_pullback_reads_the_plane_stencil():
    # a field is its closed-form jet: the one code that differences F is the pullback
    # oracle, so no finite-difference jet can come back through numerics._plane_partials
    assert readers_of("_plane_partials") == ["graphs.pullback_determinant"]


def test_only_the_cli_and_the_sampler_read_the_geometry_table():
    # the table maps a name a run types to a constructor and a draw range; what a
    # geometry is (its e^{-2u} polynomial included) the geometry carries, so no other
    # module looks a geometry up by its name (ambient's entry is the table itself)
    readers = {where.partition(".")[0] for where in readers_of("GEOMETRIES")
               if where != "ambient"}
    assert sorted(readers) == ["cli", "sampling"]


def test_the_difference_rule_has_only_its_listed_users():
    # a radial profile is its closed-form derivatives: the one difference rule serves the
    # plane's stencil, el_residual's stencil (p, then q), the variation sweep in t and the
    # d(Omega), d(Theta) check of the ambient suite (README, "Conventions"), and no
    # radial difference
    assert readers_of("_richardson") == [
        "cli._suite_ambient",
        "graphs._residual_block",
        "graphs._residual_block",
        "graphs.first_variations.variation",
        "numerics._plane_partials",
    ]


def test_every_run_config_field_but_the_task_is_one_options_field():
    from neutralkahler.cli import _OPTIONS, RunConfig

    owners = [opt.field for opt in _OPTIONS]
    assert sorted(owners) == sorted(f.name for f in dataclasses.fields(RunConfig)
                                    if f.name != "task")


#: where ``cli`` may raise ``ConfigError``: the run's rules, the option's parse and
#: checks, and the reading of the config file and the flags; a runner raises none
CONFIG_ERROR_PLACES = {
    "RunConfig.__post_init__",
    "_Option._parse",
    "_Option.check",
    "_load_config_file",
    "config_from_args",
}


def test_config_errors_only_where_a_run_is_configured():
    places = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and getattr(node.exc.func, "id", None) == "ConfigError"):
            places.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse((PACKAGE / "cli.py").read_text()), "")
    assert places == CONFIG_ERROR_PLACES
