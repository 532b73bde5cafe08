"""The value classes are named tuples: what callers may rely on.

Equality and hashing are those of the plain tuple of the fields, fields
cannot be assigned, the repr names every field, and the defaults are
the documented ones.  Tuple behaviour comes with the form: iteration,
unpacking, and equality with a plain tuple (or another value class) of
the same fields.
"""

import math
import pickle
from fractions import Fraction

import pytest

from lambda_osc.classical import (ClassicalState, OrbitParams, PeriodProbe,
                                  Trajectory)
from lambda_osc.params import DeformationParam, PhysicalParams, classify
from lambda_osc.spectrum import EnergyLevel, SpectrumTable, energies
from lambda_osc.sturm_liouville import RefinementLevel, SLDiscretization
from lambda_osc.verification import CheckResult, _record

# (class, fields in order, defaults by field, a full set of field values)
CLASSES = [
    (PhysicalParams, ("m", "alpha", "hbar", "lam"),
     {"m": 1, "alpha": 1, "hbar": 1, "lam": 0},
     (Fraction(2), 3.0, 5, Fraction(-1, 7))),
    (DeformationParam, ("lam", "half_width", "cutoff", "n_max"),
     {"half_width": None, "cutoff": None, "n_max": None},
     (Fraction(3, 10), None, Fraction(10, 3), 3)),
    (EnergyLevel, ("m", "e", "bound"), {}, (2, Fraction(8, 5), True)),
    (SpectrumTable, ("lam", "levels"), {"levels": ()},
     (0.3, (EnergyLevel(0, 0.5, True),))),
    (ClassicalState, ("x", "v", "t"), {"t": 0.0}, (1.0, -0.5, 2.0)),
    (OrbitParams, ("amplitude", "omega", "phase"), {"phase": 0.0},
     (1.0, 0.8, 0.25)),
    (Trajectory, ("t", "x", "v", "e"), {}, ([0.0], [1.0], [0.0], [0.5])),
    (PeriodProbe, ("period", "crossings", "max_rel_energy_drift"), {},
     (7.7, 99, 1e-9)),
    (SLDiscretization, ("lam", "n", "half_width", "u", "diag", "offdiag"),
     {}, (0.1, 64, 5.0, "u", "diag", "offdiag")),
    (RefinementLevel, ("n", "raw", "extrapolated", "error_estimate"), {},
     (512, "raw", "extrapolated", None)),
    (CheckResult, ("check", "parameters", "metric", "threshold", "passed"),
     {}, ("c", {"lambda": 0.3}, 0.0, 1e-8, True)),
]
IDS = [cls.__name__ for cls, *_ in CLASSES]


@pytest.mark.parametrize("cls, fields, defaults, values", CLASSES, ids=IDS)
class TestValueClass:
    def test_fields_and_defaults(self, cls, fields, defaults, values):
        assert cls._fields == fields
        required = [f for f in fields if f not in defaults]
        given = dict(zip(fields, values))
        made = cls(**{f: given[f] for f in required})
        assert made == tuple(defaults.get(f, given[f]) for f in fields)
        with pytest.raises(TypeError):
            cls(*values, None)  # one field too many

    def test_keyword_and_positional_construction_agree(
            self, cls, fields, defaults, values):
        assert cls(*values) == cls(**dict(zip(fields, values)))

    def test_repr_names_every_field(self, cls, fields, defaults, values):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({body})"

    def test_equality_and_hashing(self, cls, fields, defaults, values):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        changed = cls(*values[:-1], "other")
        assert a != changed
        try:
            hash(values)
        except TypeError:  # a list or dict field: unhashable, as the tuple
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(values)
            assert len({a, b}) == 1

    def test_fields_cannot_be_assigned(self, cls, fields, defaults, values):
        v = cls(*values)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(v, f, 0)
            with pytest.raises(AttributeError):
                delattr(v, f)
        with pytest.raises(AttributeError):
            v.extra = 0  # no __dict__: the class keeps __slots__ = ()
        assert tuple(v) == values

    def test_tuple_behaviour(self, cls, fields, defaults, values):
        v = cls(*values)
        assert isinstance(v, tuple) and len(v) == len(fields)
        assert tuple(v) == values and v == values
        assert [getattr(v, f) for f in fields] == list(v)
        *_, last = v
        assert last is values[-1]
        assert v._asdict() == dict(zip(fields, values))

    def test_pickles(self, cls, fields, defaults, values):
        # probes and records cross process boundaries in verify's workers
        back = pickle.loads(pickle.dumps(cls(*values)))
        assert type(back) is cls and back == values


def test_equal_fields_of_two_classes_compare_equal():
    # the price of the tuple form: equality does not look at the class
    assert ClassicalState(1.0, 0.5, 0.0) == OrbitParams(1.0, 0.5, 0.0)


class TestPhysicalParamsValidation:
    @pytest.mark.parametrize("field", ["m", "alpha", "hbar"])
    @pytest.mark.parametrize("bad", [0, -1, Fraction(-1, 2), math.nan])
    def test_nonpositive_scale_is_refused(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            PhysicalParams(**{field: bad})

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_nonfinite_coupling_is_refused(self, lam):
        with pytest.raises(ValueError, match="coupling must be finite"):
            PhysicalParams(lam=lam)

    def test_first_bad_field_is_named(self):
        with pytest.raises(ValueError, match="m must be positive, got 0"):
            PhysicalParams(m=0, alpha=0)

    def test_replace_validates(self):
        p = PhysicalParams(lam=Fraction(1, 3))
        assert p._replace(hbar=2) == (1, 1, 2, Fraction(1, 3))
        with pytest.raises(ValueError, match="alpha must be positive"):
            p._replace(alpha=-1)
        with pytest.raises(ValueError, match="coupling must be finite"):
            PhysicalParams._make((1, 1, 1, math.inf))


class TestBuiltValues:
    def test_classify_returns_the_documented_fields(self):
        assert classify(0) == (0, None, None, None)
        assert classify(Fraction(3, 10)) == (Fraction(3, 10), None,
                                             Fraction(10, 3), 3)
        assert classify(-0.25) == (-0.25, 2.0, None, None)

    def test_energies_table_holds_levels(self):
        table = energies(Fraction(1, 2), 2)
        assert table == (Fraction(1, 2), (
            (0, Fraction(1, 2), True), (1, Fraction(5, 4), True),
            (2, Fraction(3, 2), False)))
        assert table.energies == [Fraction(1, 2), Fraction(5, 4),
                                  Fraction(3, 2)]


class TestCheckResult:
    def test_to_dict_keys_in_order(self):
        r = _record("gram_offdiagonal", {"lambda": -0.3}, 1e-12, 1e-8)
        d = r.to_dict()
        assert list(d) == ["check", "parameters", "metric", "threshold",
                           "pass"]
        assert d == {"check": "gram_offdiagonal",
                     "parameters": {"lambda": -0.3}, "metric": 1e-12,
                     "threshold": 1e-8, "pass": True}

    def test_to_dict_is_a_new_dict(self):
        r = _record("c", {}, 2.0, 1.0)
        d = r.to_dict()
        d["pass"] = None
        assert r.passed is False and r.to_dict()["pass"] is False

    def test_record_casts_metric_threshold_and_pass(self):
        r = _record("c", {}, Fraction(1, 2), 1)
        assert r == ("c", {}, 0.5, 1.0, True)
        assert type(r.metric) is float and type(r.passed) is bool

    def test_every_field_is_required(self):
        # _record builds every record; a default dict would be shared
        with pytest.raises(TypeError):
            CheckResult("c")
