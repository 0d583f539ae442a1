"""The behaviour every gfl record shares (``gfl._record``): construction by
position and by keyword with defaults, frozen attributes, the
``Name(field=value, ...)`` repr, ``vars`` holding exactly the fields, and
equality and hashing by fields for value records, by identity for the
records that hold arrays or dicts."""

import numpy as np
import pytest

from gfl.bounds import BoundParams, PointwiseBound, SseBound
from gfl.lil import LilEnvelope
from gfl.losses import NoiseModel, QuantileLoss, SquareLoss
from gfl.signal import PiecewiseConstantSignal, SignalGeometry
from gfl.simulate import ExperimentSpec
from gfl.solver import FusedLassoProblem, FusedLassoSolution

Y = np.array([0.0, 1.0, 1.0, 3.0])
SIGNAL = PiecewiseConstantSignal([0.0, 1.0], [2, 2])
GEOMETRY = SIGNAL.geometry()
GEOMETRY_FIELDS = "n K change_points segment_lengths k_of d eta m_left m_right V m_min"
SPEC_FIELDS = (
    "experiment signal noise loss lambda_rule lambda_value delta replications seed"
    " monitor growth_L n_sweep d_grid lambda_grid improved"
)
SPEC_ARGS = (
    "pointwise", SIGNAL, NoiseModel("gaussian", 1.0), SquareLoss(), "sqrt_n_over_k",
    None, 0.05, 3, 1, "interior", None, (), (), (), False,
)

# (record, its fields in constructor order, the required fields' values,
# the defaults of the others, whether it compares by its fields)
CASES = [
    (BoundParams, "sigma delta lam growth_L", (1.0, 0.1, 2.0), {"growth_L": None}, True),
    (LilEnvelope, "sigma delta", (1.0, 0.1), {}, True),
    (SquareLoss, "kind", (), {"kind": "square"}, True),
    (QuantileLoss, "tau kind", (0.3,), {"kind": "quantile"}, True),
    (NoiseModel, "kind scale center_tau", ("laplace", 2.0), {"center_tau": None}, True),
    (PiecewiseConstantSignal, "values lengths", ((0.0, 1.0), (2, 2)), {}, True),
    (ExperimentSpec, SPEC_FIELDS, SPEC_ARGS, {}, True),
    (PointwiseBound, "value applicable", (Y, Y > 0), {}, False),
    (SseBound, "bound terms precondition_failures", (1.5, {"a": 1.0}),
     {"precondition_failures": ()}, False),
    (SignalGeometry, GEOMETRY_FIELDS,
     tuple(getattr(GEOMETRY, f) for f in GEOMETRY_FIELDS.split()), {}, False),
    (FusedLassoProblem, "y lam loss", (Y, 1.0, SquareLoss()), {}, False),
    (FusedLassoSolution, "theta_hat kkt_residual", (Y, 0.0), {}, False),
]
IDS = [case[0].__name__ for case in CASES]


def _same(a, b) -> bool:
    return a is b or (not isinstance(a, np.ndarray) and a == b)


def _fields_are(record, fields, values) -> bool:
    return list(vars(record)) == fields and all(
        _same(getattr(record, f), v) for f, v in zip(fields, values)
    )


@pytest.mark.parametrize("cls, fields, args, defaults, by_value", CASES, ids=IDS)
def test_construction_by_position_and_keyword(cls, fields, args, defaults, by_value):
    fields = fields.split()
    values = [*args, *defaults.values()]
    assert len(values) == len(fields)
    keywords = dict(zip(fields, args))
    for record in (cls(*args), cls(**keywords), cls(*values), cls(**dict(zip(fields, values)))):
        assert _fields_are(record, fields, values)


@pytest.mark.parametrize("cls, fields, args, defaults, by_value", CASES, ids=IDS)
def test_fields_are_frozen(cls, fields, args, defaults, by_value):
    record = cls(*args)
    for name in (*fields.split(), "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields_are(record, fields.split(), [*args, *defaults.values()])


@pytest.mark.parametrize("cls, fields, args, defaults, by_value", CASES, ids=IDS)
def test_repr_names_each_field(cls, fields, args, defaults, by_value):
    record = cls(*args)
    body = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields.split())
    assert repr(record) == f"{cls.__name__}({body})"


def test_repr_keeps_the_dataclass_form():
    assert repr(NoiseModel("gaussian", 1.0)) == (
        "NoiseModel(kind='gaussian', scale=1.0, center_tau=None)"
    )
    assert repr(QuantileLoss(0.5)) == "QuantileLoss(tau=0.5, kind='quantile')"
    assert repr(FusedLassoSolution(np.array([1.0]), 0.0)) == (
        "FusedLassoSolution(theta_hat=array([1.]), kkt_residual=0.0)"
    )


@pytest.mark.parametrize("cls, fields, args, defaults, by_value", CASES, ids=IDS)
def test_equality_and_hash(cls, fields, args, defaults, by_value):
    a, b = cls(*args), cls(*args)
    assert a == a and hash(a) == hash(a)
    assert (a == b) is by_value and (a != b) is not by_value
    if by_value:
        assert hash(a) == hash(b)
    assert a != object()


def test_value_records_differ_by_any_field():
    assert NoiseModel("gaussian", 1.0) != NoiseModel("gaussian", 2.0)
    assert NoiseModel("uniform", 1.0, 0.5) != NoiseModel("uniform", 1.0)
    assert QuantileLoss(0.3) != QuantileLoss(0.7)
    assert BoundParams(1.0, 0.1, 2.0) != BoundParams(1.0, 0.1, 2.0, growth_L=1.0)
    # another type with equal fields is not equal
    assert LilEnvelope(1.0, 0.1) != BoundParams(1.0, 0.1, 2.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: QuantileLoss(),
        lambda: QuantileLoss(0.3, "quantile", 1),
        lambda: QuantileLoss(0.3, tau=0.4),
        lambda: QuantileLoss(0.3, level=0.4),
        lambda: FusedLassoProblem(Y, 1.0),
        lambda: FusedLassoSolution(Y, 0.0, 1.0),
    ],
    ids=["missing", "too-many", "twice", "unknown", "explicit-missing", "explicit-too-many"],
)
def test_bad_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()
