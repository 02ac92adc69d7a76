"""The one Report type: its pass rule, its JSON emitter, and the
attributes the benchmark's tracer reads from verifier results."""

import json
from fractions import Fraction

from skewrank import Report
from skewrank import decomposition as dec


def test_tracer_reads_checked_mode_and_components_and_no_condition_never_passes(ctx):
    # perfbench/tracer.py counts elements from exactly these attributes
    c = ctx(3, 4)
    component = dec.rank_spectrum_check(c, 1, c.one(), 4, "L", allowed={2, 4})
    assert (component.checked, component.mode) == (80, "exhaustive")
    survey = dec.oracle_survey(c)
    assert (survey.checked, survey.mode) == (80, "exhaustive")
    remark = dec.remark_C_check(ctx(11, 16), 3)
    assert [(k.checked, k.mode) for k in remark.components] == [(40, "exhaustive"), (80, "exhaustive")]
    assert component.passed and survey.passed and remark.passed
    assert not Report(conditions={}, checked=0, mode="exhaustive").passed
    assert Report(conditions={}).to_json_dict() == {"pass": False}


def test_pass_rule_needs_every_condition_and_nonempty_lists():
    good, bad = Report(conditions={"ok": True}), Report(conditions={"ok": False})
    assert good.passed and not bad.passed
    assert not Report(conditions={"ok": True, "other": False}).passed
    assert Report(conditions={"runs": [good, good], "nested": good}).passed
    assert not Report(conditions={"runs": [good, bad]}).passed
    assert not Report(conditions={"runs": []}).passed  # an empty list checked nothing
    assert Report(conditions={"ok": True, "other": False, "runs": []}).failed == ["other", "runs"]


def test_emitter_orders_int_keys_and_keeps_string_key_order():
    nested = Report(conditions={"ok": True}, label="x")
    report = Report(
        conditions={"nested": nested},
        spectrum={10: 1, 2: 3},
        histograms={3: {12: 1, 4: 2}, 1: {}},
        instance={"p": 3, "n": 4, "a": 2},
        diagonal=(Fraction(1), Fraction(-3, 2)),
        parts=[nested],
    )
    doc = report.to_json_dict()
    assert list(doc) == ["spectrum", "histograms", "instance", "diagonal", "parts", "pass"]
    assert list(doc["spectrum"]) == ["2", "10"]
    assert doc["histograms"] == {"1": {}, "3": {"4": 2, "12": 1}}
    assert list(doc["histograms"]["3"]) == ["4", "12"]
    assert list(doc["instance"]) == ["p", "n", "a"]
    assert doc["diagonal"] == ["1", "-3/2"]
    assert doc["parts"] == [{"label": "x", "pass": True}]
    assert doc["pass"] is True
    json.dumps(doc)  # every value is plain JSON
