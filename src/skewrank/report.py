"""The one report type that every check returns."""

from __future__ import annotations

from numbers import Integral, Rational


class Report:
    """Certificate of one check: named facts and the conditions they meet.

    Every keyword field is an attribute and a key of the JSON report, in
    the order given.  `conditions` names what the check stands on; each
    value is a bool, a nested Report or a list of Reports (which holds
    when it is nonempty and every one passes).  The report passes when
    it has at least one condition and all of them hold, so a report that
    names nothing never passes.
    """

    def __init__(self, *, conditions: dict[str, object], **fields) -> None:
        self.__dict__.update(fields)
        self.conditions = conditions

    @property
    def failed(self) -> list[str]:
        """Names of the conditions that do not hold, in the order given."""
        return [name for name, value in self.conditions.items() if not _holds(value)]

    @property
    def passed(self) -> bool:
        return bool(self.conditions) and not self.failed

    def to_json_dict(self) -> dict:
        out = {key: _json(value) for key, value in vars(self).items() if key != "conditions"}
        out["pass"] = self.passed
        return out


def _holds(value) -> bool:
    if isinstance(value, Report):
        return value.passed
    if isinstance(value, list):
        return bool(value) and all(map(_holds, value))
    return bool(value)


def _json(value):
    """JSON form of a field: int-keyed dicts in increasing key order with
    string keys, string-keyed dicts in insertion order, tuples as lists,
    Fractions as strings, nested Reports as their own JSON.  A Fraction
    is known by its numbers ABC, so fractions is loaded only by the
    Section-6 layer that makes them."""
    if isinstance(value, Report):
        return value.to_json_dict()
    if isinstance(value, dict):
        items = value.items()
        if all(isinstance(key, int) for key in value):
            items = sorted(items)
        return {str(key): _json(item) for key, item in items}
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    if isinstance(value, Rational) and not isinstance(value, Integral):  # a Fraction
        return str(value)
    return value
