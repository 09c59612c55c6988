"""The field-only records are ``typing.NamedTuple``s with a fixed contract:
their field names, order and defaults, construction by position or by
keyword, the ``Name(field=value, ...)`` repr and read-only fields."""

import numpy as np
import pytest

from neutralkahler.ambient import J4_MATRIX, AmbientFrame, ConformalGeometry, ThetaForm
from neutralkahler.cli import _Option
from neutralkahler.graphs import GraphSection, InducedMetric, SlopeData
from neutralkahler.numerics import ComplexField, RadialFunction
from neutralkahler.rotsym import FamilyParams, OdeCoefficients

#: each record with its fields in order and the defaults of the trailing ones
RECORDS = [
    (ConformalGeometry, ("name", "u", "du", "u_of_R", "inverse_factor"),
     {"u_of_R": None, "inverse_factor": None}),
    (AmbientFrame, ("G4", "O4"), {}),
    (ThetaForm, ("components",), {}),
    (GraphSection, ("F", "geometry"), {}),
    (SlopeData, ("sigma", "rho"), {}),
    (InducedMetric, ("matrix", "determinant", "classification"), {}),
    (ComplexField, ("evaluator", "jet"), {}),
    (RadialFunction, ("f", "df", "d2f"), {"d2f": None}),
    (FamilyParams, ("a1", "b1", "a2", "b2"), {"a1": 0.0, "b1": 0.0, "a2": 1.0, "b2": 0.0}),
    (OdeCoefficients, ("p1", "q1", "L1", "p2", "q2", "L2"), {}),
    (_Option, ("flag", "parse", "tasks", "choices", "rule", "help", "repeat", "field", "default"),
     {"parse": str, "tasks": None, "choices": None, "rule": None, "help": None, "repeat": None,
      "field": "", "default": None}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def values_for(fields):
    """A distinct value per field, with a readable repr."""
    return tuple(f"<{name}>" for name in fields)


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_and_defaults(self, cls, fields, defaults):
        assert issubclass(cls, tuple)
        assert cls._fields == fields
        assert cls._field_defaults == defaults

    def test_position_and_keyword_agree(self, cls, fields, defaults):
        values = values_for(fields)
        by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
        assert by_position == by_keyword
        assert tuple(getattr(by_keyword, name) for name in fields) == values

    def test_omitted_fields_take_their_defaults(self, cls, fields, defaults):
        required = [name for name in fields if name not in defaults]
        record = cls(*values_for(required))
        assert {name: getattr(record, name) for name in defaults} == defaults

    def test_repr_names_every_field(self, cls, fields, defaults):
        values = values_for(fields)
        expected = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({expected})"

    def test_fields_are_read_only(self, cls, fields, defaults):
        record = cls(*values_for(fields))
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_examples_of_defaults_and_methods():
    assert repr(FamilyParams()) == "FamilyParams(a1=0.0, b1=0.0, a2=1.0, b2=0.0)"
    f = ComplexField(np.exp, lambda xi: (np.exp(xi), np.exp(xi), 0.0))
    assert f(0.0) == 1.0 and f.jet(0.0) == (1.0, 1.0, 0.0)
    assert RadialFunction.constant(2.0).deriv(1.0, 2) == 0.0
    assert ConformalGeometry("plane", lambda xi: 0.0, lambda xi: 0j).u_of_R is None
    frame = AmbientFrame(np.eye(4), np.zeros((4, 4)))
    assert frame.J4 is AmbientFrame.J4 is J4_MATRIX
    assert frame.metric(np.ones(4), np.ones(4)) == 4.0
    assert ThetaForm(np.arange(4.0))(np.ones(4)) == 6.0
    assert SlopeData(1.0 + 0j, 2.0 + 3.0j).det_factor == 8.0
    assert _Option("--half-length").dest == "half-length"
    grid = _Option("--grid", field="grid")._replace(default=(32, 32))
    assert grid.keys == {"grid"} and grid.default == (32, 32)
