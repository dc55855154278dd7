"""The VerificationRecord: one check outcome, the unit of every report.

``to_json_dict`` gives a record's fields as a dict in a stable key order,
the one serialization of a record: ``cli`` writes its JSON line
(``json.dumps`` of the dict) and its CSV row from it, and counts it from
it.  ``verify``'s sweeps build no record: ``json_head`` writes a line's
fixed head, its check, k, s and index, which a ``verify`` plan holds for
each of its tasks (``verify.plan_tasks``), and ``json_lines_at`` writes a
sweep's lines of one prime from those heads and the tasks' sides, the
bytes ``json.dumps`` writes of their records' dicts.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

# json writes an int, and no bool, as int.__repr__ does.
_int = int.__repr__
# The tails of a line of a comparison record with no reason or extra.
_PASSED = ',"pass":true,"skipped":false}\n'
_FAILED = ',"pass":false,"skipped":false}\n'


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


def json_head(check: str, k: int | None = None, s: int | None = None,
              index: str | None = None) -> str:
    """The head of a record's JSON line, unclosed: '{"check":' and the
    check, then k, s and index where they are not None, in the key order
    of ``to_json_dict``.  ``encode_basestring_ascii`` and ``int.__repr__``
    raise TypeError on a value of another type."""
    head = '{"check":' + _json_str(check)
    if k is not None:
        head += ',"k":' + _int(k)
    if s is not None:
        head += ',"s":' + _int(s)
    if index is not None:
        head += ',"index":' + _json_str(index)
    return head


def json_lines_at(p: int, heads, reasons, sides) -> tuple[list[str], int]:
    """The JSON lines of one prime's records and how many of them failed,
    written from each record's head (``json_head``), its reason and its
    sides: a pair (lhs, rhs) gives the line of a comparison record, which
    passes where lhs == rhs, and None that of a skipped record with the
    reason.  These are the bytes of ``json.dumps(rec.to_json_dict(),
    separators=(",", ":"))`` and a newline for each of those records.  A
    side that is not a str raises TypeError, where ``json.dumps`` would
    write another JSON type."""
    at = ',"p":' + _int(p)
    lines, failed = [], 0
    for head, reason, pair in zip(heads, reasons, sides):
        if pair is None:
            lines.append(head + at + ',"pass":true,"skipped":true,"reason":'
                         + _json_str(reason) + "}\n")
            continue
        lhs, rhs = pair
        if lhs == rhs:
            tail = _PASSED
        else:
            failed += 1
            tail = _FAILED
        lines.append(head + at + ',"lhs":' + _json_str(lhs) + ',"rhs":' + _json_str(rhs) + tail)
    return lines, failed
