"""Every recorded case of the benchmark's grid_quadrature workload, checked against
``bench/reference.json``: the areas, first variations and both Stokes sides of 16
cases of each kind, at the benchmark's own bounds. A change of a step or a stencil
that moves a recorded value fails here before it fails the benchmark. The benchmark's
modules are imported and its reference read; nothing under ``bench/`` is written.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_grid_quadrature_matches_every_recorded_case(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from checks import Checker
    from spans import make_api
    from workloads import POOL, WORKLOADS, Context

    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    workload = WORKLOADS["grid_quadrature"]
    checker = Checker(reference["workloads"][workload.name])
    api = make_api()
    for case in range(POOL):
        picks = {kind: case for kind in workload.kinds}
        workload.run(Context(api, checker, tmp_path, case), workload.setup(api, picks))
    assert checker.attempted == POOL * 16
    assert checker.failed == 0, checker.messages
