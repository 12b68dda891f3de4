"""The one integer rule: every integer the package takes is checked by errors.check_int.

Each caller refuses a float, a bool and a value outside its bounds with the
same two texts, and no other module states the rule. Likewise every real
number is checked by errors.check_number before its range.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import alert_sift
from alert_sift.errors import ValidationError, check_int, check_number
from alert_sift.evaluation import (
    ConfusionMatrix, cross_validate, evaluate_forest, kfold_split, workload_savings
)
from alert_sift.features import ScalingCaps, chi2_select
from alert_sift.forest import ForestParams, check_threshold, forest_from_dict, train_forest
from alert_sift.ingest import parse_alert_record
from alert_sift.sampling import SampleParams
from alert_sift.synth import SynthSpec

from conftest import make_line

_ALERT = parse_alert_record(make_line())
_X, _Y = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]]), [0, 1, 0, 1]


def _model(feature=0, tp=1, fp=0, threshold=0.5) -> dict:
    """A two-feature stump model with one field set by the caller."""
    return {
        "version": "1", "params": {}, "profile": None, "feature_names": ["a", "b"],
        "trees": [{"feature": feature, "threshold": threshold, "left": {"tp": tp, "fp": fp},
                   "right": {"tp": 1, "fp": 3}}],
    }


# (name in the error, least, greatest, a call that hands the value to one caller)
_CALLERS = {
    "RawAlert src_port": ("src_port", 0, 65535, lambda v: _ALERT._replace(src_port=v)),
    "RawAlert http_status": ("http_status", 100, 599, lambda v: _ALERT._replace(http_status=v)),
    "RawAlert rule_sid": ("rule_sid", 0, None, lambda v: _ALERT._replace(rule_sid=v)),
    **{
        f"ForestParams {name}": (name, lo, None, lambda v, name=name: ForestParams(**{name: v}))
        for name, lo in (("n_estimators", 1), ("max_depth", 1), ("min_samples_split", 1),
                         ("seed", None))
    },
    **{
        f"SampleParams {name}": (name, 1, None, lambda v, name=name: SampleParams(**{name: v}))
        for name in ("stride", "per_rule_cap")
    },
    **{
        f"ScalingCaps {name}": (name, 1, 2**63 - 1,
                                lambda v, name=name: ScalingCaps(**{name: v}))
        for name in ("pkts_cap", "bytes_cap", "payload_cap", "sid_max")
    },
    **{
        f"SynthSpec {name}": (name, lo, None, lambda v, name=name: SynthSpec(**{name: v}))
        for name, lo in (("n_tp", 0), ("n_fp", 0), ("n_rules", 1), ("duplication_factor", 1),
                         ("seed", None))
    },
    "model split feature": ("model split feature", 0, 1,
                            lambda v: forest_from_dict(_model(feature=v))),
    "model leaf tp": ("model leaf tp", 0, None, lambda v: forest_from_dict(_model(tp=v))),
    "model leaf fp": ("model leaf fp", 0, None, lambda v: forest_from_dict(_model(fp=v))),
    **{
        f"ConfusionMatrix {name}": (name, 0, None,
                                    lambda v, name=name: ConfusionMatrix(**{name: v}))
        for name in ("tp_as_tp", "tp_as_fp", "fp_as_fp", "fp_as_tp")
    },
    "chi2_select k": ("k", 1, None, lambda v: chi2_select(_X, _Y, v)),
    "kfold_split n": ("n", None, None, lambda v: kfold_split(v, 2, 0)),
    "kfold_split k": ("k", 2, None, lambda v: kfold_split(10, v, 0)),
    "kfold_split seed": ("seed", None, None, lambda v: kfold_split(10, 2, v)),
    "workload_savings count": ("filtered_fp_count", 0, None, lambda v: workload_savings(v)),
}


def _cases():
    for caller, (name, lo, hi, call) in _CALLERS.items():
        for value in (1.5, True):
            yield pytest.param(call, value, f"{name} must be an integer, got {value!r}",
                               id=f"{caller}={value!r}")
        if lo is not None:  # one step past a bound: above the greatest where there is one
            value, bound = (lo - 1, f">= {lo}") if hi is None else (hi + 1, f"in {lo}..{hi}")
            yield pytest.param(call, value, f"{name} out of range: {value} (expected {bound})",
                               id=f"{caller}={value!r}")


@pytest.mark.parametrize("call, value, error", _cases())
def test_every_integer_the_package_takes_is_refused_by_the_one_rule(call, value, error):
    # chi2_select(X, y, 2.5) once ended in a bare TypeError and (X, y, True) kept one feature,
    # kfold_split(10, 2.5, 0) cut two folds, ConfusionMatrix(tp_as_tp=1.5) was accepted
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value) == error


def test_check_int_texts_and_bounds():
    for value in (0, 5, 2**70, -(2**70)):
        check_int("x", value)  # no bounds: the type alone
    check_int("x", 1, 1, 1)
    for value, lo, hi, error in (
        (0, 1, None, "x out of range: 0 (expected >= 1)"),
        (2, 0, 1, "x out of range: 2 (expected in 0..1)"),
        (-1, 0, 1, "x out of range: -1 (expected in 0..1)"),
        ("3", 0, None, "x must be an integer, got '3'"),
        (False, None, None, "x must be an integer, got False"),
        (np.int64(3), None, None, f"x must be an integer, got {np.int64(3)!r}"),
    ):
        with pytest.raises(ValidationError) as info:
            check_int("x", value, lo, hi)
        assert str(info.value) == error


def test_only_errors_states_the_integer_rule():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in Path(alert_sift.__file__).parent.glob("*.py")}
    for text in ("must be an integer", "out of range:", "must be a number"):
        assert [name for name, source in sources.items() if text in source] == ["errors.py"]
    assert [name for name, source in sources.items() if "_is_int" in source] == []


_FOREST = train_forest(_X, _Y, ForestParams(n_estimators=2))

# (name in the error, a call that hands the value to one caller)
_NUMBER_CALLERS = {
    "SynthSpec signal_strength": ("signal_strength", lambda v: SynthSpec(signal_strength=v)),
    "check_threshold": ("threshold", check_threshold),
    "evaluate_forest threshold": ("threshold", lambda v: evaluate_forest(_FOREST, _X, _Y, v)),
    "cross_validate threshold": ("threshold", lambda v: cross_validate(_X, _Y, threshold=v)),
    "workload_savings minutes": ("minutes_per_alert", lambda v: workload_savings(3, v)),
    "model split threshold": ("model split threshold",
                              lambda v: forest_from_dict(_model(threshold=v))),
}


@pytest.mark.parametrize("value", ["0.5", None, True, [0.5]])
@pytest.mark.parametrize("caller", sorted(_NUMBER_CALLERS))
def test_every_number_the_package_takes_is_refused_by_the_one_rule(caller, value):
    # check_threshold("0.5") and workload_savings(3, "4") once ended in a bare TypeError,
    # and workload_savings(3, True) counted the bool as one minute
    name, call = _NUMBER_CALLERS[caller]
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a number, got {value!r}"


def test_check_number_takes_any_real_number_and_leaves_the_range_to_its_caller():
    for value in (0, -3, 0.25, float("nan"), float("inf"), np.float64(0.5), np.int64(2), 2**70):
        check_number("x", value)
    for value in (False, "1", 1j, None):
        with pytest.raises(ValidationError) as info:
            check_number("x", value)
        assert str(info.value) == f"x must be a number, got {value!r}"
