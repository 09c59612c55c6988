"""Output checks: pinned tolerances, recorded reference values, failure counts.

Every checked unit of work is one *operation*. An operation fails when a
check inside it exceeds its pinned tolerance, when an output is off the
recorded reference, or when it raises an exception nobody expected.

Reference values were recorded at the commit that added the benchmark
(``run.py --record``). Floats are compared at ``REL_BOUND`` relative
(plus a tiny absolute floor), so a change that only reorders a sum still
passes; counts and classifications must match exactly.
"""

from __future__ import annotations

import csv
import math
import traceback
from typing import Optional

#: relative bound for recorded floats (areas, parsed CSV numbers, ...)
REL_BOUND = 1e-9
#: absolute floor of that comparison, for values that are zero up to roundoff
ABS_FLOOR = 1e-12
#: one CSV row in this many is kept whole in a digest
DIGEST_STRIDE = 509


def close(expected: float, got: float, rel: float = REL_BOUND, abs_floor: float = ABS_FLOOR) -> bool:
    if isinstance(expected, float) and math.isnan(expected):
        return isinstance(got, float) and math.isnan(got)
    return abs(got - expected) <= rel * (abs(expected) + abs(got)) + abs_floor


class Checker:
    """Counts operations and failures; compares or records reference values."""

    def __init__(self, reference: Optional[dict], record: bool = False):
        self.reference = reference if reference is not None else {}
        self.record = record
        self.recorded: dict = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def operation(self, name: str) -> "Operation":
        return Operation(self, name)

    def _fail(self, name: str, why: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(f"{name}: {why}")


class Operation:
    """One checked unit of work; use as a context manager."""

    def __init__(self, checker: Checker, name: str):
        self.checker, self.name = checker, name
        self.ok = True

    def __enter__(self) -> "Operation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and not issubclass(exc_type, Exception):
            return False
        if exc_type is not None:
            last = traceback.extract_tb(tb)[-1]
            self.fail(f"unexpected {exc_type.__name__}: {exc} ({last.filename}:{last.lineno})")
        self.checker.attempted += 1
        if not self.ok:
            self.checker.failed += 1
        return True

    def fail(self, why: str) -> None:
        self.ok = False
        self.checker._fail(self.name, why)

    def within(self, label: str, value: float, tolerance: float) -> None:
        """``value <= tolerance`` (a pinned tolerance check)."""
        if not value <= tolerance:
            self.fail(f"{label} = {value:.3e} above tolerance {tolerance:.3e}")

    def at_least(self, label: str, value: float, floor: float) -> None:
        if not value >= floor:
            self.fail(f"{label} = {value:.3e} below {floor:.3e}")

    def equal(self, label: str, expected, got) -> None:
        if expected != got:
            self.fail(f"{label}: expected {expected!r}, got {got!r}")

    def _expected(self, key: str, value):
        """The recorded value for ``key``; records ``value`` in record mode."""
        checker = self.checker
        if checker.record:
            checker.recorded[key] = value
            return None
        if key not in checker.reference:
            self.fail(f"no reference value for {key}")
            return None
        return checker.reference[key]

    def matches(self, key: str, value, rel: float = REL_BOUND, abs_floor: float = ABS_FLOOR) -> None:
        """Compare with the recorded reference (or record it)."""
        expected = self._expected(key, value)
        if expected is not None and not _same(expected, value, rel, abs_floor):
            self.fail(f"{key}: reference {expected!r}, got {value!r}")

    def matches_digest(self, key: str, digest: dict, absolute_bounds: dict) -> None:
        """Compare a table digest with the recorded one (or record it)."""
        expected = self._expected(key, digest)
        if expected is not None:
            for problem in digests_match(expected, digest, absolute_bounds):
                self.fail(f"{key}: {problem}")


def _same(expected, got, rel: float, abs_floor: float) -> bool:
    if isinstance(expected, dict):
        return (
            isinstance(got, dict)
            and expected.keys() == got.keys()
            and all(_same(expected[k], got[k], rel, abs_floor) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(got, list)
            and len(expected) == len(got)
            and all(_same(e, g, rel, abs_floor) for e, g in zip(expected, got))
        )
    if isinstance(expected, float) or isinstance(got, float):
        return close(float(expected), float(got), rel, abs_floor)
    return expected == got


def csv_digest(path, absolute: tuple[str, ...] = ()) -> dict:
    """Digest of a CSV file with a header row (see ``table_digest``)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return table_digest(header, rows, absolute)


def obj_digest(path) -> tuple[dict, int]:
    """Digest of the vertex table of an OBJ file, and its face count."""
    vertices, faces = [], 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                vertices.append(line.split()[1:])
            elif line.startswith("f "):
                faces += 1
    return table_digest(["x", "y", "z"], vertices), faces


def table_digest(header: list[str], rows: list[list[str]], absolute: tuple[str, ...] = ()) -> dict:
    """Row count, per-column sums and every ``DIGEST_STRIDE``-th row.

    Numeric columns keep ``sum|x|`` over finite values and the count of
    NaNs; text columns keep per-value counts. Columns named in
    ``absolute`` are noise-level values (finite-difference residuals) and
    are reduced to their NaN count and maximum.
    """
    columns = {}
    for j, name in enumerate(header):
        raw = [r[j] for r in rows]
        try:
            vals = [float(v) for v in raw]
        except ValueError:
            counts: dict[str, int] = {}
            for v in raw:
                counts[v] = counts.get(v, 0) + 1
            columns[name] = {"counts": dict(sorted(counts.items()))}
            continue
        finite = [v for v in vals if math.isfinite(v)]
        nans = len(vals) - len(finite)
        if name in absolute:
            columns[name] = {"nan": nans, "max": max(finite, default=0.0)}
        else:
            columns[name] = {
                "nan": nans,
                "sum_abs": math.fsum(abs(v) for v in finite),
                "sample": [vals[i] for i in range(0, len(vals), DIGEST_STRIDE)],
            }
    return {"rows": len(rows), "columns": columns}


def digests_match(expected: dict, got: dict, absolute_bounds: dict) -> list[str]:
    """Differences between two CSV digests; empty when they agree.

    Columns in ``absolute_bounds`` compare their maximum at that absolute
    bound; every other float compares at ``REL_BOUND``.
    """
    problems = []
    if expected["rows"] != got["rows"]:
        problems.append(f"rows {expected['rows']} != {got['rows']}")
    if expected["columns"].keys() != got["columns"].keys():
        return problems + ["column names differ"]
    for name, exp in expected["columns"].items():
        col = got["columns"][name]
        if name in absolute_bounds:
            ok = exp["nan"] == col["nan"] and abs(exp["max"] - col["max"]) <= absolute_bounds[name]
        else:
            ok = _same(exp, col, REL_BOUND, ABS_FLOOR)
        if not ok:
            problems.append(f"column {name} differs")
    return problems
