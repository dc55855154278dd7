"""Correctness of workload outputs: reference hashes and an oracle sample.

A record counts as failed when

* its ``pass`` is false;
* its command exited with another code than EXPECTED_EXIT;
* its command's output bytes hash differently from the stored reference; or
* the independent oracle sample disagrees with it.

The reference (``reference.json``) holds the sha256 and the record count of
every command of every workload variant, as the code at the seed commit
wrote them; ``make_reference.py`` rebuilds it.  The oracle re-derives a
seeded sample of small records with ``tests/oracles.py`` and with the few
direct formulas below, none of which share code with ``src/fmzv``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

from workloads import EXPECTED_EXIT

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Records re-derived per command output, and the most brute-force terms
# (chains enumerated) a sampled record may cost.
ORACLE_SAMPLE = 8
ORACLE_BUDGET = 20000
# frac_bernoulli recurses once per index below n.
ORACLE_MAX_P = 200


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def reference_for(reference: dict, workload: str, variant: int) -> list[dict]:
    """The expected command line, sha256 and record count of each command."""
    return reference["workloads"][workload][variant]


def load_oracles():
    """Import ``tests/oracles.py`` of the checkout as a standalone module."""
    path = os.path.abspath(os.path.join("tests", "oracles.py"))
    spec = importlib.util.spec_from_file_location("fmzv_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str | None = None):
        self.attempted += attempted
        self.failed += failed
        if problem and len(self.problems) < 20:
            self.problems.append(problem)


class Checker:
    """Counts failed records of command outputs against their reference."""

    def __init__(self, oracles, seed: int):
        self.oracles = oracles
        self.seed = seed
        self._oracle_cache: dict[str, list[int]] = {}

    def check(self, tally: Tally, label: str, exit_code: int, stdout: bytes, expected: dict):
        """Count the records of one command output against its reference entry."""
        total = expected["records"]
        if exit_code != EXPECTED_EXIT:
            tally.add(total, total, f"{label}: exit code {exit_code}")
            return
        digest = sha256(stdout)
        if digest != expected["sha256"]:
            tally.add(total, total, f"{label}: output sha256 {digest} differs from reference")
            return
        if digest not in self._oracle_cache:
            self._oracle_cache[digest] = self._bad_lines(expected["command"], stdout)
        bad = self._oracle_cache[digest]
        tally.add(total, len(bad), f"{label}: {len(bad)} records failed (lines {bad[:5]})"
                  if bad else None)

    def _bad_lines(self, command: str, stdout: bytes) -> list[int]:
        """Line numbers of records that fail or disagree with the oracle."""
        records = [json.loads(line) for line in stdout.splitlines()]
        bad = {i for i, rec in enumerate(records) if rec.get("pass") is not True}
        eligible = [i for i, rec in enumerate(records)
                    if i not in bad and oracle_cost(rec, self.oracles) <= ORACLE_BUDGET]
        rng = random.Random(f"{self.seed}:{command}")
        for i in rng.sample(eligible, min(ORACLE_SAMPLE, len(eligible))):
            if not oracle_agrees(records[i], self.oracles):
                bad.add(i)
        return sorted(bad)


# ---------------------------------------------------------------------------
# the oracle sample

_INELIGIBLE = ORACLE_BUDGET + 1
PRIME_CHECKS = ("ao", "lm", "lemma", "heightsum", "antipode", "reversal", "zsweep")


def _guard(rec: dict) -> int:
    if rec["check"] in ("antipode", "reversal"):
        return sum(_parts(rec)) + 1
    return rec["k"] + 1


def _parts(rec: dict) -> tuple[int, ...]:
    return tuple(int(x) for x in rec["index"].split(",")) if rec["index"] else ()


@lru_cache(maxsize=None)
def _compositions(o, k, s, first_min):
    return tuple(o.compositions_filtered(k, s, first_min=first_min))


def _star_cost(p, r):
    return comb(p - 2 + r, r)


def _strict_cost(p, r):
    return comb(p - 1, r) if r < p else 0


def oracle_cost(rec: dict, o) -> int:
    """Brute-force chains the oracle enumerates for ``rec``; over budget if none applies."""
    check = rec["check"]
    if check in PRIME_CHECKS:
        if rec["skipped"]:
            return 0
        p = rec["p"]
        if p > ORACLE_MAX_P:
            return _INELIGIBLE
    if check in ("ao", "lm", "lemma", "heightsum"):
        first_min = 1 if check == "heightsum" else 2
        comps = _compositions(o, rec["k"], rec["s"], first_min)
        return sum(_star_cost(p, len(c)) + _strict_cost(p, len(c)) for c in comps)
    if check == "antipode":
        r = len(_parts(rec))
        return sum(_strict_cost(p, i) + _star_cost(p, r - i) for i in range(r + 1))
    if check == "reversal":
        return 2 * _strict_cost(p, len(_parts(rec)))
    if check == "zsweep":
        return p
    if check == "phi0":
        n = rec["n"]
        comps = _compositions(o, rec["k"], rec["s"], 2)
        return sum(comb(n + len(c) - 2, len(c) - 1) for c in comps)
    if check == "gauss":
        return rec["m"]
    return _INELIGIBLE  # anl, hypcong: covered by the reference hash only


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _star_family(k, s, p, first_min, o):
    return sum(o.brute_mhs_star(c, p) for c in _compositions(o, k, s, first_min)) % p


def _alt_strict_family(k, s, p, o):
    return sum((-1) ** len(c) * o.brute_mhs_strict(c, p)
               for c in _compositions(o, k, s, 2)) % p


def _shared_rhs(k, s, p, o):
    """2 * C(k-1, 2s-1) * (1 - 2^(1-k)) * B_(p-k) / k, reduced mod p."""
    value = (2 * comb(k - 1, 2 * s - 1) * (1 - Fraction(1, 2 ** (k - 1)))
             * o.frac_bernoulli(p - k) / k)
    return o.frac_mod(value, p)


def _expected_sides(rec: dict, o):
    """(lhs, rhs) the record must carry, derived by the oracle."""
    check = rec["check"]
    if check in ("ao", "lm", "lemma", "heightsum"):
        k, s, p = rec["k"], rec["s"], rec["p"]
        if check == "ao":
            return _star_family(k, s, p, 2, o), _shared_rhs(k, s, p, o)
        if check == "lm":
            return _alt_strict_family(k, s, p, o), _shared_rhs(k, s, p, o)
        if check == "lemma":
            sign = 1 if (k - 1) % 2 == 0 else -1
            return _star_family(k, s, p, 2, o), sign * _alt_strict_family(k, s, p, o) % p
        return _star_family(k, s, p, 1, o), 0
    if check == "antipode":
        parts, p = _parts(rec), rec["p"]
        total = sum((-1) ** i * o.brute_mhs_strict(parts[:i][::-1], p)
                    * o.brute_mhs_star(parts[i:], p) for i in range(len(parts) + 1))
        return total % p, 0
    if check == "reversal":
        parts, p = _parts(rec), rec["p"]
        sign = 1 if sum(parts) % 2 == 0 else -1
        return o.brute_mhs_strict(parts[::-1], p), sign * o.brute_mhs_strict(parts, p) % p
    if check == "phi0":
        value = sum((o.brute_li_star_coeff(c, rec["n"])
                     for c in _compositions(o, rec["k"], rec["s"], 2)),
                    Fraction(0))
        return _frac_str(value), _frac_str(value)
    if check == "gauss":
        m, b, c = rec["m"], Fraction(rec["b"]), Fraction(rec["c"])
        lhs = sum((_rising(-m, j) * _rising(b, j) / (_rising(c, j) * _rising(1, j))
                   for j in range(m + 1)), Fraction(0))
        return _frac_str(lhs), _frac_str(_rising(c - b, m) / _rising(c, m))
    raise ValueError(f"no oracle for {check!r}")


def _rising(a, n) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def _zsweep_agrees(rec: dict, o) -> bool:
    k, p = rec["k"], rec["p"]
    residue = o.frac_mod(o.frac_bernoulli(p - k) / k, p)
    alt = sum((-1) ** (l - 1) * pow(l, p - 1 - k, p) for l in range(1, p)) % p
    factor = 2 * (1 - pow(2, p - k, p)) % p  # 2 * (1 - 2^(1-k))
    if rec["lhs"] != str(residue) or rec["zero"] != (residue == 0):
        return False
    if factor == 0:
        return rec["cross"] == "degenerate" and rec["rhs"] == ""
    derived = alt * pow(factor, p - 2, p) % p
    return (rec["rhs"] == str(derived)
            and rec["cross"] == ("ok" if derived == residue else "fail"))


def oracle_agrees(rec: dict, o) -> bool:
    """Whether an independent re-derivation reproduces the record."""
    check = rec["check"]
    if check in PRIME_CHECKS:
        guard = _guard(rec)
        if rec["skipped"] or rec["p"] <= guard:
            return rec["skipped"] and rec["p"] <= guard and rec["reason"] == f"p <= {guard}"
    if check == "gauss":
        degenerate = any(Fraction(rec["c"]) + j == 0 for j in range(rec["m"]))
        if rec["skipped"] or degenerate:
            return rec["skipped"] and degenerate
    if check == "zsweep":
        return _zsweep_agrees(rec, o)
    lhs, rhs = _expected_sides(rec, o)
    return rec["lhs"] == str(lhs) and rec["rhs"] == str(rhs)
