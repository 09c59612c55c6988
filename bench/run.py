"""Benchmark of the neutralkahler package: one workload per invocation.

    python3 bench/run.py --workload grid_quadrature --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40      # table of every workload
    python3 bench/run.py --record                                  # rewrite reference.json

One client, one thread, closed loop: each call starts when the previous
one returns. After set-up the run repeats the workload's fixed pass until
``--seconds`` are spent and reports the median pass; between passes it
times ``SETUP_SAMPLES`` full set-ups and reports their median. Pass and
set-up times are scaled to a reference host speed (see hostspeed.py); the
raw ones are printed too. With ``--trace 1``
it alternates untraced passes with traced set-up + pass iterations and
reports per-layer metrics instead (see NOTES.md). The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os

# one BLAS/OpenMP thread; must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("grid_quadrature", "grid_maps", "point_profile")
#: full set-ups (fresh-interpreter import plus building the inputs) per
#: untraced run, spread evenly over it between passes; setup_s is their median
SETUP_SAMPLES = 11

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    "graphs.first_variation.calls", "graphs.first_variation.busy_s",
    "graphs.first_variation.us_per_node",
    "graphs.area.busy_s", "graphs.area.us_per_node",
    "graphs.stokes_check.busy_s", "graphs.stokes_check.us_per_node",
    "graphs.el_residual.calls", "graphs.el_residual.busy_s", "graphs.el_residual.p50_us",
    "graphs.el_residual.skipped_ratio",
    "graphs.slopes.p50_us", "graphs.pullback_determinant.p50_us",
    "graphs.export_classification_csv.busy_s", "graphs.export_classification_csv.bytes",
    "graphs.export_classification_csv.rows",
    "lines3d.export_congruence.busy_s", "lines3d.export_congruence.bytes",
    "lines3d.export_congruence.mb_per_s", "lines3d.export_congruence.segments",
    "cli.main.calls", "cli.main.busy_s", "cli.main.failed",
    "ambient.ambient_frame.calls", "ambient.ambient_frame.p50_us",
    "ambient.ambient_frame.busy_s",
    "ambient.calibration_gap.busy_s", "ambient.ambient_signature.busy_s",
    "ambient.theta_form.busy_s",
    "rotsym.stationary_family.calls", "rotsym.stationary_family.busy_s",
    "rotsym.stationary_family.accept_ratio",
    "rotsym.degenerate_family.busy_s", "rotsym.psi_closed_form.busy_s",
    "rotsym.reduction_of_order.busy_s", "rotsym.ode_residuals.p50_us",
    "lines3d.signature_profile.busy_s",
    "numerics.AnnulusGrid.busy_s", "numerics.AnnulusGrid.nodes",
    "numerics.CumulativeIntegral.calls", "numerics.CumulativeIntegral.busy_s",
    "sampling.draw.busy_s",
    "layer.ambient.self_s", "layer.numerics.self_s", "layer.graphs.self_s",
    "layer.rotsym.self_s", "layer.lines3d.self_s", "layer.sampling.self_s",
    "layer.cli.self_s", "layer.bench.self_s",
    "trace.overhead_ratio",
)

STAT_UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "us_per_node": "us", "p50_us": "us",
    "skipped_ratio": "ratio", "accept_ratio": "ratio", "overhead_ratio": "ratio",
    "bytes": "bytes", "rows": "count", "segments": "count", "nodes": "count",
    "failed": "count", "mb_per_s": "MB/s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="run every recorded case once and rewrite reference.json")
    return p.parse_args(argv)


def git_sha() -> str:
    """Commit of the checkout, or "unknown" outside a git repository."""
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0
    return values[n // 2] if n % 2 else 0.5 * (values[n // 2 - 1] + values[n // 2])


def counters():
    """Work counts computed from each call's input shapes and outputs."""
    from neutralkahler.graphs import stokes_check

    from workloads import gauss_nodes

    boundary = inspect.signature(stokes_check).parameters["n_boundary"].default
    return {
        "graphs.area": lambda a, r: {"nodes": gauss_nodes(a[1])},
        # four area quadratures per first variation (two t-steps, both signs)
        "graphs.first_variation": lambda a, r: {"nodes": 4 * gauss_nodes(a[2])},
        "graphs.stokes_check": lambda a, r: {"nodes": gauss_nodes(a[1]) + 2 * boundary},
        "graphs.export_classification_csv": lambda a, r: {"rows": r, "bytes": os.path.getsize(a[2])},
        "lines3d.export_congruence": lambda a, r: {"segments": r, "bytes": os.path.getsize(a[4])},
        "numerics.AnnulusGrid": lambda a, r: {"nodes": gauss_nodes(r)},
        "cli.main": lambda a, r: {"failed": int(r != 0)},
    }


def layer_metrics(spans, counts: dict, iterations: int, overhead: float) -> dict:
    """Per-layer metrics, per traced iteration (set-up plus pass)."""
    from spans import self_times

    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    layer_self: dict[str, float] = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append(s)
        layer = s.name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    out = {}
    for metric in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        group = by_name.get(name, [])
        durations = [s.end - s.start for s in group]
        busy = sum(durations)
        calls = len(group)
        if stat == "calls":
            value = calls / iterations
        elif stat == "busy_s":
            value = busy / iterations
        elif stat == "p50_us":
            value = median(durations) * 1e6
        elif stat == "us_per_node":
            nodes = counts.get((name, "nodes"), 0)
            value = busy / nodes * 1e6 if nodes else 0.0
        elif stat == "skipped_ratio":
            value = sum(s.error == "SingularResidualError" for s in group) / calls if calls else 0.0
        elif stat == "accept_ratio":
            value = sum(s.error is None for s in group) / calls if calls else 0.0
        elif stat == "mb_per_s":
            value = counts.get((name, "bytes"), 0) / 1e6 / busy if busy else 0.0
        elif stat == "self_s":
            value = layer_self.get(name.split(".")[1], 0.0) / iterations
        elif stat == "overhead_ratio":
            value = overhead
        else:
            value = counts.get((name, stat), 0) / iterations
        out[metric] = {"value": value, "unit": STAT_UNITS[stat]}
    return out


def child_import_seconds(modules: str) -> float:
    """Seconds to import ``modules`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def import_seconds() -> tuple[float, float]:
    """The package's import (numpy and scipy included) in a fresh
    interpreter: in reference seconds, and raw.

    The probe of hostspeed.py does not track import times, so the scale
    comes from an import of the package's dependencies alone, just before."""
    from hostspeed import REFERENCE_IMPORT, REFERENCE_IMPORT_S

    reference = child_import_seconds(REFERENCE_IMPORT)
    raw = child_import_seconds("neutralkahler.cli")
    return raw * REFERENCE_IMPORT_S / reference, raw


def load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from checks import Checker
    from hostspeed import Timed
    from spans import Interposer, Tracer, make_api
    from workloads import WORKLOADS, Context, selection

    workload = WORKLOADS[name]
    picks = selection(workload, seed)
    checker = Checker(load_reference(name))
    out_dir = OUT / f"artifacts-{name}"
    api = make_api()
    ctx = Context(api, checker, out_dir, seed)

    # times are in reference seconds (see hostspeed.py); in a traced pass
    # the host-speed samples land in the spans and add about 1 % to them
    def timed_setup():
        with Timed() as timed:
            built = workload.setup(api, picks)
        return built, timed

    def timed_pass(c, inp):
        with Timed() as timed:
            workload.run(c, inp)
        return timed

    def setup_sample(built):
        scaled, raw = import_seconds()
        return scaled + built.scaled_s, raw + built.raw_s

    inputs, built = timed_setup()
    start = time.perf_counter()
    walls = []
    if not trace:
        setups = [setup_sample(built)]
        while True:
            walls.append(timed_pass(ctx, inputs))
            # set-up samples due so far, so that they spread over the whole run
            due = 1 + int(SETUP_SAMPLES * (time.perf_counter() - start) / seconds)
            while len(setups) < min(due, SETUP_SAMPLES):
                setups.append(setup_sample(timed_setup()[1]))
            if time.perf_counter() - start + median(w.elapsed_s for w in walls) > seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(timed_setup()[1]))
        metrics = {
            "wall_s": median(w.scaled_s for w in walls),
            "setup_s": median(s for s, _ in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END}
        info = {"passes": len(walls), "picks": picks,
                "raw_wall_s": median(w.raw_s for w in walls),
                "raw_setup_s": median(r for _, r in setups),
                "walls": [round(w.scaled_s, 4) for w in walls],
                "raw_walls": [round(w.raw_s, 4) for w in walls],
                "setups": [round(s, 4) for s, _ in setups]}
        return checker, metrics, info, []

    tracer = Tracer()
    traced_api = make_api(tracer, counters())
    traced_ctx = Context(traced_api, checker, out_dir, seed)
    traced_walls = []
    while True:
        t0 = time.perf_counter()
        walls.append(timed_pass(ctx, inputs).scaled_s)
        k = len(walls)
        with Interposer(traced_api):
            tracer.pass_id = f"setup-{k}"
            with tracer.span("bench.setup"):
                traced_inputs = workload.setup(traced_api, picks)
            tracer.pass_id = f"pass-{k}"
            with tracer.span("bench.pass"):
                traced_walls.append(timed_pass(traced_ctx, traced_inputs).scaled_s)
        iteration = time.perf_counter() - t0
        if time.perf_counter() - start + iteration > seconds:
            break
    spans = tracer.finished()
    overhead = median(traced_walls) / median(walls) - 1.0
    metrics = layer_metrics(spans, tracer.counters, len(traced_walls), overhead)
    write_spans(name, seed, spans)
    info = {"passes": len(walls), "traced_iterations": len(traced_walls), "picks": picks,
            "spans": len(spans)}
    return checker, metrics, info, spans


def write_spans(name: str, seed: int, spans) -> None:
    """All spans of a traced run, one JSON array per line after an env header, gzipped."""
    OUT.mkdir(parents=True, exist_ok=True)
    with gzip.open(OUT / f"spans-{name}.jsonl.gz", "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "env": environment(),
                             "fields": ["name", "start", "end", "parent", "pass", "error"]}) + "\n")
        for s in spans:
            fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def print_self_times(spans) -> None:
    """The spans with the most self time, summed by name."""
    from spans import self_times

    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + own
    whole = sum(totals.values()) or 1.0
    for name, own in sorted(totals.items(), key=lambda kv: -kv[1])[:8]:
        print(f"# self {name:40s} {own:10.4f} s {100 * own / whole:5.1f} %")


def record(names) -> int:
    """Run every recorded case once and write reference.json."""
    from checks import Checker
    from spans import make_api
    from workloads import POOL, WORKLOADS, Context

    api = make_api()
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {"workloads": {}}
    failed = 0
    for name in names:
        workload = WORKLOADS[name]
        checker = Checker(None, record=True)
        for case in range(POOL):
            picks = {kind: case for kind in workload.kinds}
            ctx = Context(api, checker, OUT / f"artifacts-{name}", case)
            workload.run(ctx, workload.setup(api, picks))
            print(f"# recorded {name} case {case}: {checker.failed} failed so far", flush=True)
        for message in checker.messages:
            print(f"# FAIL {message}", file=sys.stderr)
        failed += checker.failed
        reference["workloads"][name] = checker.recorded
        shutil.rmtree(OUT / f"artifacts-{name}", ignore_errors=True)
    reference["recorded_at"] = git_sha()
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


def run_all(args) -> int:
    """Run each workload in its own process and print one table."""
    rows, code = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            code = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ratio = result["failed"] / result["attempted"]
        rows.append((name, "failed_ratio", ratio, "ratio"))
        rows += [(name, m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
    for row in rows:
        print(f"{row[0]:16s} {row[1]:44s} {row[2]:14.6g} {row[3]}")
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "neutralkahler" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        return record(names)
    if args.workload == "all":
        return run_all(args)

    checker, metrics, info, spans = run_workload(args.workload, args.seed, args.seconds,
                                                 bool(args.trace))
    for message in checker.messages:
        print(f"# FAIL {message}", file=sys.stderr)
    print("# env " + json.dumps(environment()))
    print("# run " + json.dumps(info))
    print(f"# failed_ratio {checker.failed / max(checker.attempted, 1):.6g} ratio "
          f"({checker.failed} of {checker.attempted} operations)")
    for metric, v in metrics.items():
        print(f"# {metric} {v['value']:.6g} {v['unit']}")
    if spans:
        print_self_times(spans)
    shutil.rmtree(OUT / f"artifacts-{args.workload}", ignore_errors=True)
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
