"""In-memory span tracing at the package's module boundaries.

A span records one call into a layer: its name, start, end, the index of
the span that was open when it began (its parent), the pass it belongs to
and the name of the exception it raised, if any. Spans stay in memory
until the run ends.

Tracing never edits the package. ``Interposer`` rebinds a traced name in
every *other* package module that imported it (``cli.el_residual``,
``graphs.ambient_frame``, ...), and the benchmark calls the package only
through the table ``make_api`` returns. Calls inside one module, such as
``first_variation`` -> ``area`` -> ``slopes`` within ``graphs``, therefore
stay unrecorded: a span sits at every crossing between modules and at
every call the benchmark makes, and nowhere else.
"""

from __future__ import annotations

import importlib
import sys
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

#: Traced package names: (module, attribute, span name). The sampling
#: constructors all report as one ``sampling.draw`` layer.
TRACED = (
    ("ambient", "ambient_frame", "ambient.ambient_frame"),
    ("ambient", "calibration_gap", "ambient.calibration_gap"),
    ("ambient", "ambient_signature", "ambient.ambient_signature"),
    ("ambient", "theta_form", "ambient.theta_form"),
    ("numerics", "AnnulusGrid", "numerics.AnnulusGrid"),
    ("numerics", "CumulativeIntegral", "numerics.CumulativeIntegral"),
    ("graphs", "slopes", "graphs.slopes"),
    ("graphs", "pullback_determinant", "graphs.pullback_determinant"),
    ("graphs", "area", "graphs.area"),
    ("graphs", "first_variation", "graphs.first_variation"),
    ("graphs", "stokes_check", "graphs.stokes_check"),
    ("graphs", "el_residual", "graphs.el_residual"),
    ("graphs", "export_classification_csv", "graphs.export_classification_csv"),
    ("rotsym", "stationary_family", "rotsym.stationary_family"),
    ("rotsym", "degenerate_family", "rotsym.degenerate_family"),
    ("rotsym", "psi_closed_form", "rotsym.psi_closed_form"),
    ("rotsym", "reduction_of_order", "rotsym.reduction_of_order"),
    ("rotsym", "ode_residuals", "rotsym.ode_residuals"),
    ("lines3d", "signature_profile", "lines3d.signature_profile"),
    ("lines3d", "export_congruence", "lines3d.export_congruence"),
    ("sampling", "random_tangent_coords", "sampling.draw"),
    ("sampling", "random_plane", "sampling.draw"),
    ("sampling", "j_invariant_plane", "sampling.draw"),
    ("sampling", "random_polynomial_section", "sampling.draw"),
    ("sampling", "random_holomorphic_section", "sampling.draw"),
    ("sampling", "random_lagrangian_section", "sampling.draw"),
    ("sampling", "off_family_profile", "sampling.draw"),
    ("cli", "main", "cli.main"),
)

#: Names the benchmark calls but does not trace.
UNTRACED = (
    ("ambient", "TangentPoint"),
    ("errors", "NeutralKahlerError"),
    ("errors", "SingularResidualError"),
    ("graphs", "bump_basis"),
    ("rotsym", "FamilyParams"),
    ("rotsym", "comfortable_range"),
    ("rotsym", "ode_coefficients"),
    ("lines3d", "TorusFamily"),
    ("lines3d", "torus_section"),
    ("numerics", "RadialFunction"),
    ("sampling", "geometry_by_name"),
    ("sampling", "rng_from_seed"),
)

PACKAGE = "neutralkahler"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    pass_id: str
    error: Optional[str]  # exception class name, None when the call returned


class Tracer:
    """Collects spans; ``wrap`` turns a callable into a traced one."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counters: dict[tuple[str, str], float] = {}
        self.pass_id = ""
        self._open: list[int] = []

    def count(self, name: str, key: str, value: float) -> None:
        self.counters[(name, key)] = self.counters.get((name, key), 0.0) + value

    def wrap(
        self,
        name: str,
        fn: Callable,
        counter: Optional[Callable[[tuple, object], dict]] = None,
    ) -> Callable:
        spans, opened = self.spans, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = opened[-1] if opened else -1
            opened.append(idx)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                opened.pop()
                spans[idx] = Span(name, start, end, parent, self.pass_id, error)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.count(name, key, value)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str) -> "_Block":
        """Context manager for a span around a block of benchmark code."""
        return _Block(self, name)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


class _Block:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append(None)
        self.parent = t._open[-1] if t._open else -1
        t._open.append(self.idx)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        t = self.tracer
        t._open.pop()
        error = exc_type.__name__ if exc_type is not None else None
        t.spans[self.idx] = Span(self.name, self.start, end, self.parent, t.pass_id, error)
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def _modules():
    return [m for n, m in sorted(sys.modules.items()) if n.startswith(PACKAGE + ".")]


def make_api(tracer: Optional[Tracer] = None, counters: Optional[dict] = None) -> SimpleNamespace:
    """The package functions the benchmark calls, traced when ``tracer`` is given."""
    api = {}
    for module, attr, span_name in TRACED:
        fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
        if tracer is not None:
            fn = tracer.wrap(span_name, fn, (counters or {}).get(span_name))
        api[attr] = fn
    for module, attr in UNTRACED:
        api[attr] = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
    return SimpleNamespace(**api)


class Interposer:
    """Rebinds traced names in the package modules that import them.

    Use as a context manager; the original bindings come back on exit.
    """

    def __init__(self, api: SimpleNamespace):
        self.api = api
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, _ in TRACED:
            home = importlib.import_module(f"{PACKAGE}.{module}")
            original = getattr(home, attr)
            for mod in _modules():
                if mod is not home and mod.__dict__.get(attr) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, getattr(self.api, attr))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False
