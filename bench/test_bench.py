"""Tests of the benchmark itself: span arithmetic, checks, seeds, metric names.

    python3 -m pytest bench
"""

import json
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
from checks import Checker, csv_digest  # noqa: E402
from spans import Interposer, Span, Tracer, make_api, self_times  # noqa: E402
from workloads import WORKLOADS, Context, selection  # noqa: E402

import run as bench_run  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "p", None),
        Span("a", 1.0, 4.0, 0, "p", None),
        Span("a.inner", 2.0, 3.0, 1, "p", None),
        Span("b", 5.0, 9.0, 0, "p", None),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, "p", None),
        Span("a", 1.0, 4.0, 0, "p", None),
        Span("b", 3.0, 6.0, 0, "p", None),
        Span("c", 9.0, 12.0, 0, "p", None),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_trimmed_mean_leaves_out_both_ends():
    values = [100.0] + [1.0] * 8 + [-100.0]
    assert hostspeed.trimmed_mean(values) == pytest.approx(1.0)
    assert hostspeed.trimmed_mean([2.0, 4.0]) == pytest.approx(3.0)


def test_timed_leaves_samples_out_and_scales_by_host_speed():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Timed() as timed:
        sum(i * i for i in range(2_000_000))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(timed.probes) > 2 * hostspeed.EDGE_PROBES  # some taken inside
    assert 0.5 * timed.elapsed_s < timed.raw_s < timed.elapsed_s
    assert timed.scaled_s == pytest.approx(
        timed.raw_s * hostspeed.REFERENCE_PROBE_S / hostspeed.trimmed_mean(timed.probes))
    # a host that runs the probe half as fast halves the scaled time
    fast = timed.scaled_s
    timed.probes = [2 * p for p in timed.probes]
    assert timed.scaled_s == pytest.approx(fast / 2)


def test_tracer_records_parent_pass_and_error():
    tracer = Tracer()

    def leaf(fail):
        if fail:
            raise ValueError("boom")
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: traced_leaf(False) + traced_leaf(False))
    tracer.pass_id = "pass-1"
    assert outer() == 2
    with pytest.raises(ValueError):
        traced_leaf(True)
    spans = tracer.finished()
    assert [s.name for s in spans] == ["outer", "leaf", "leaf", "leaf"]
    assert [s.parent for s in spans] == [-1, 0, 0, -1]
    assert {s.pass_id for s in spans} == {"pass-1"}
    assert [s.error for s in spans] == [None, None, None, "ValueError"]


def test_interposer_rebinds_importers_only_and_restores():
    import neutralkahler.cli as cli
    import neutralkahler.graphs as graphs

    original = graphs.el_residual
    api = make_api(Tracer())
    with Interposer(api):
        assert cli.el_residual is api.el_residual
        assert graphs.el_residual is original  # calls inside graphs stay untraced
    assert cli.el_residual is original


def test_checker_flags_a_perturbed_reference_value():
    checker = Checker({"area": 12.5, "counts": {"lorentz": 7}})
    with checker.operation("reordered sum") as op:
        op.matches("area", 12.5 * (1 + 1e-13))
    with checker.operation("perturbed") as op:
        op.matches("area", 12.5 * (1 + 1e-6))
    with checker.operation("wrong count") as op:
        op.matches("counts", {"lorentz": 6})
    with checker.operation("raises") as op:
        raise RuntimeError("unexpected")
    assert (checker.attempted, checker.failed) == (4, 3)


def test_checker_flags_a_perturbed_csv_number(tmp_path):
    path = tmp_path / "t.csv"
    rows = [f"{r},{0.1 * r},{'lorentz' if r % 2 else 'riemannian'}" for r in range(1, 1200)]
    path.write_text("R,lambda,class\n" + "\n".join(rows) + "\n")
    reference = csv_digest(path)
    path.write_text("R,lambda,class\n" + "\n".join(rows).replace(",0.1,", ",0.1000001,") + "\n")
    checker = Checker({"csv": reference})
    with checker.operation("csv") as op:
        op.matches_digest("csv", csv_digest(path), {})
    assert checker.failed == 1


def _control_case():
    workload = WORKLOADS["grid_quadrature"]
    api = make_api()
    cases = workload.setup(api, selection(workload, 0))
    return workload, api, [c for c in cases if c.role == "control"]


def test_control_that_reads_as_stationary_fails_the_run(tmp_path):
    workload, api, control = _control_case()
    reference = bench_run.load_reference(workload.name)

    checker = Checker(reference)
    workload.run(Context(api, checker, tmp_path, 0), control)
    assert (checker.attempted, checker.failed) == (3, 0)

    zero_oracle = SimpleNamespace(**{**vars(api), "first_variation": lambda *a, **k: 0.0})
    checker = Checker(reference)
    workload.run(Context(zero_oracle, checker, tmp_path, 0), control)
    assert checker.failed == 1
    assert "control max |dA|/A" in checker.messages[0]


def test_perturbed_area_is_off_the_reference(tmp_path):
    workload, api, control = _control_case()
    bigger = [replace(c, grid=api.AnnulusGrid(c.grid.r_min, c.grid.r_max * 1.001, 16, 16))
              for c in control]
    checker = Checker(bench_run.load_reference(workload.name))
    workload.run(Context(api, checker, tmp_path, 0), bigger)
    assert checker.failed >= 1
    assert any("/area" in m for m in checker.messages)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_inputs(name):
    workload = WORKLOADS[name]
    picks = [selection(workload, seed) for seed in range(4)]
    assert all(p.keys() == set(workload.kinds) for p in picks)
    assert len({tuple(sorted(p.items())) for p in picks}) == 4


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_seed_changes_inputs_but_not_metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    picks = []
    for seed in (3, 4):
        proc = _run(["--workload", "point_profile", "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == expected
        info = next(json.loads(line[len("# run "):]) for line in lines if line.startswith("# run "))
        picks.append(info["picks"])
    assert picks[0] != picks[1]


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "grid_maps", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
