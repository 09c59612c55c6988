"""Recorded cases of the benchmark, checked against ``bench/reference.json`` at the
benchmark's own bounds: every grid_quadrature case (the areas, first variations and
both Stokes sides of 16 cases of each kind) and four grid_maps cases (whole ``nklab``
tasks, their reports and the digests of their CSV/OBJ artifacts). A change of a step,
a stencil or a row writer that moves a recorded value fails here before it fails the
benchmark. The benchmark's modules are imported and its reference read; nothing under
``bench/`` is written.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's ``workloads`` module, imported without writing under ``bench/``."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    return workloads


def run_cases(workloads, out_dir, name, cases):
    """Run the recorded ``cases`` of workload ``name``; returns its checker."""
    from checks import Checker
    from spans import make_api

    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[name]
    checker = Checker(reference["workloads"][workload.name])
    api = make_api()
    for case in cases:
        picks = {kind: case for kind in workload.kinds}
        workload.run(workloads.Context(api, checker, out_dir, case), workload.setup(api, picks))
    return checker


def test_grid_quadrature_matches_every_recorded_case(workloads, tmp_path):
    checker = run_cases(workloads, tmp_path, "grid_quadrature", range(workloads.POOL))
    assert checker.attempted == workloads.POOL * 16
    assert checker.failed == 0, checker.messages


def test_grid_maps_matches_recorded_cases(workloads, monkeypatch, tmp_path):
    # every fifth case (all 16 take about 6 s); a pass sets NKLAB_OUTPUT_DIR itself,
    # so it is set here first for monkeypatch to restore
    monkeypatch.setenv("NKLAB_OUTPUT_DIR", str(tmp_path))
    checker = run_cases(workloads, tmp_path / "out", "grid_maps", (0, 5, 10, 15))
    assert checker.attempted == 4 * 5
    assert checker.failed == 0, checker.messages
