"""The VerificationRecord: one check outcome, the unit of every report.

``to_json_dict`` gives a record's fields as a dict in a stable key order:
the CSV rows read it.  ``json_line`` writes the JSON line of that dict,
the bytes ``json.dumps(rec.to_json_dict(), separators=(",", ":"))``
makes, straight from the fields with no dict in between: the JSONL path
of every command.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

# One encoder for the values json_line does not write itself: json.dumps
# with separators builds a new one per call.
_JSON = json.JSONEncoder(separators=(",", ":"))
# json writes an int, and no bool, as int.__repr__ does.
_int = int.__repr__
# The keys of to_json_dict that come from fields, not from ``extra``.
_FIELD_KEYS = frozenset(("check", "k", "s", "index", "p", "lhs", "rhs", "pass",
                         "skipped", "reason"))


class VerificationRecord(NamedTuple):
    """Outcome of a single check.

    ``passed`` is true iff lhs equals rhs (both rendered as decimal or
    num/den strings).  Skipped records carry no lhs/rhs and explain
    themselves in ``reason``.  ``extra`` holds check-specific key/value
    pairs (sample counts, seeds, ...) in a fixed order.

    An immutable value (a named tuple): records with equal fields compare
    and hash equal.
    """

    check: str
    p: int | None = None
    k: int | None = None
    s: int | None = None
    index: str | None = None
    lhs: str | None = None
    rhs: str | None = None
    passed: bool = False
    skipped: bool = False
    reason: str | None = None
    extra: tuple[tuple[str, object], ...] = ()

    def to_json_dict(self) -> dict:
        """Serializable dict with a stable key order."""
        # one unpack: a named tuple's field reads are slower than locals
        check, p, k, s, index, lhs, rhs, passed, skipped, reason, extra = self
        out: dict = {"check": check}
        if k is not None:
            out["k"] = k
        if s is not None:
            out["s"] = s
        if index is not None:
            out["index"] = index
        if p is not None:
            out["p"] = p
        if lhs is not None:
            out["lhs"] = lhs
        if rhs is not None:
            out["rhs"] = rhs
        out["pass"] = passed
        out["skipped"] = skipped
        if reason is not None:
            out["reason"] = reason
        for key, value in extra:
            out[key] = value
        return out


def skipped_record(check: str, reason: str, *, p=None, k=None, s=None, index=None,
                   extra=()) -> VerificationRecord:
    return VerificationRecord(
        check=check, p=p, k=k, s=s, index=index,
        passed=True, skipped=True, reason=reason, extra=tuple(extra),
    )


def comparison_record(check: str, lhs: str, rhs: str, *, p=None, k=None, s=None,
                      index=None, reason=None, extra=()) -> VerificationRecord:
    return VerificationRecord(
        check=check, p=p, k=k, s=s, index=index,
        lhs=lhs, rhs=rhs, passed=(lhs == rhs), skipped=False,
        reason=reason, extra=tuple(extra),
    )


def _json_value(value) -> str:
    """An extra's value as the shared encoder writes it.  A bool is an
    int, so the bools are tested first."""
    if value.__class__ is str:
        return _json_str(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if value.__class__ is int:
        return _int(value)
    return _JSON.encode(value)


def json_line(rec: VerificationRecord) -> str:
    """``json.dumps(rec.to_json_dict(), separators=(",", ":"))`` and a
    newline, written from the fields in the dict's key order."""
    check, p, k, s, index, lhs, rhs, passed, skipped, reason, extra = rec
    try:
        # _json_str and _int raise TypeError off their types; the rest
        # would be written wrongly, so it is sent to the dict here: a bool
        # in an int field, a flag that is not a bool, and an extra key
        # that repeats, names a field or is not a str
        if (passed.__class__ is not bool or skipped.__class__ is not bool
                or p.__class__ is bool or k.__class__ is bool or s.__class__ is bool):
            raise TypeError
        if extra:
            keys = {key for key, _ in extra if key.__class__ is str}
            if len(keys) < len(extra) or not keys.isdisjoint(_FIELD_KEYS):
                raise TypeError
        line = '{"check":' + _json_str(check)
        if k is not None:
            line += ',"k":' + _int(k)
        if s is not None:
            line += ',"s":' + _int(s)
        if index is not None:
            line += ',"index":' + _json_str(index)
        if p is not None:
            line += ',"p":' + _int(p)
        if lhs is not None:
            line += ',"lhs":' + _json_str(lhs)
        if rhs is not None:
            line += ',"rhs":' + _json_str(rhs)
        line += ',"pass":true' if passed else ',"pass":false'
        line += ',"skipped":true' if skipped else ',"skipped":false'
        if reason is not None:
            line += ',"reason":' + _json_str(reason)
        for key, value in extra:
            line += "," + _json_str(key) + ":" + _json_value(value)
    except TypeError:
        return _JSON.encode(rec.to_json_dict()) + "\n"
    return line + "}\n"
