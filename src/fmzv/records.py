"""The VerificationRecord: one check outcome, the unit of every report."""

from __future__ import annotations

from typing import NamedTuple


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
