"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Run from the root of a checkout.  They check that the trace wrappers leave
the records byte-identical, that the speed probe leaves the CLI's output
alone, that a corrupted output is counted as failed, that the oracle agrees
with real records, and that BENCHMARK.json, the reference and the workloads
agree with each other.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
from checks import Checker, Tally
from tracing import PER_LAYER, Package, Tracer, layer_metrics
from workloads import WORKLOADS, child_env, run_cli, scaled_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Small commands that between them reach every wrapped function.
SMALL_COMMANDS = [
    ["verify", "ao,lm,lemma,heightsum", "--kmax", "6", "--primes", "5..31", "--jobs", "1"],
    ["verify", "antipode,reversal", "--wmax", "5", "--primes", "7..31", "--jobs", "1"],
    ["zsweep", "--k", "3", "--primes", "5..150"],
    ["symbolic", "phi0", "--nmax", "3", "--kmax", "6"],
    ["symbolic", "hypcong", "--prime", "13", "--seed", "3"],
    ["symbolic", "gauss", "--mmax", "6", "--pairs", "6", "--seed", "5"],
    ["symbolic", "anl", "--nmax", "4"],
]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture(scope="module")
def package():
    return Package(os.path.join(ROOT, "src"))


@pytest.fixture(scope="module")
def oracles():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return checks.load_oracles()
    finally:
        os.chdir(cwd)


def test_wrappers_leave_records_byte_identical(package):
    mods = package.modules
    originals = (mods["verify"].family_sum_star, mods["indices"].Index.__dict__["parse"],
                 mods["modfield"].PrimeCtx.__dict__["memo"], mods["symbolic"].gf_coeff_series)
    tracer = Tracer(mods)
    with tracer.install():
        assert mods["verify"].family_sum_star is not originals[0]
        traced = [package.run_cli(argv, tracer) for argv in SMALL_COMMANDS]
    assert (mods["verify"].family_sum_star, mods["indices"].Index.__dict__["parse"],
            mods["modfield"].PrimeCtx.__dict__["memo"],
            mods["symbolic"].gf_coeff_series) == originals
    plain = [package.run_cli(argv) for argv in SMALL_COMMANDS]
    for argv, (t_code, t_out, _, t_ctx), (p_code, p_out, _, p_ctx) in zip(
            SMALL_COMMANDS, traced, plain):
        assert (t_code, t_out, t_ctx) == (p_code, p_out, p_ctx), argv
        assert t_code == 0 and t_out

    agg = tracer.aggregate()
    for name in ("cli.main", "harmonic.family", "harmonic.family_build", "harmonic.mhs",
                 "bernoulli.table", "bernoulli.altsum", "bernoulli.zeta_residue",
                 "modfield.factorials", "indices.enum", "indices.parse", "verify.evaluate",
                 "verify.sort_key", "records.build", "records.serialize", "polys.fp",
                 "polys.rat", "symbolic.gf_series", "symbolic.polylog", "symbolic.hypcong",
                 "symbolic.gauss"):
        assert agg[name]["count"] > 0, name
    for entry in agg.values():
        assert 0 <= entry["self_s"] <= entry["total_s"] + 1e-9
    main_s = agg["cli.main"]["total_s"]
    assert sum(e["self_s"] for e in agg.values()) == pytest.approx(main_s)
    metrics = layer_metrics(agg, tracer, records=1, bytes_out=1, ctx_built=1)
    assert set(metrics) | {"cli.pool_speedup", "trace.overhead_s"} == set(PER_LAYER)
    assert 0.9 < metrics["trace.coverage"] <= 1.0


def _real_output(argv):
    result = run_cli(argv, child_env())
    assert result.exit_code == 0
    return result.stdout


def test_speed_probe_leaves_output_alone():
    argv = SMALL_COMMANDS[1]
    plain = run_cli(argv, child_env())
    probed = run_cli(argv, child_env(), probe=True)
    assert (probed.exit_code, probed.stdout) == (plain.exit_code, plain.stdout)
    assert plain.probe == [] and len(probed.probe) >= 2
    assert 0 < sum(probed.probe) < probed.wall_s
    assert scaled_seconds(probed) > 0


def _expected(stdout, argv):
    return {"command": " ".join(argv), "sha256": checks.sha256(stdout),
            "records": stdout.count(b"\n")}


GAUSS = ["symbolic", "gauss", "--mmax", "12", "--pairs", "40", "--seed", "42"]


def test_reference_output_passes(oracles):
    stdout = _real_output(GAUSS)
    (expected,) = [e for e in checks.reference_for(checks.load_reference(), "symbolic", 0)
                   if e["command"] == " ".join(GAUSS)]
    tally = Tally()
    Checker(oracles, 0).check(tally, "gauss", 0, stdout, expected)
    assert (tally.attempted, tally.failed) == (520, 0)


def test_corrupted_output_counts_as_failed(oracles):
    stdout = _real_output(GAUSS)
    expected = _expected(stdout, GAUSS)
    lines = stdout.splitlines(keepends=True)
    checker = Checker(oracles, 0)

    # One changed byte: the hash differs, so every record of the run fails.
    flipped = stdout.replace(b'"lhs":"1/', b'"lhs":"2/', 1)
    assert flipped != stdout
    tally = Tally()
    checker.check(tally, "flipped", 0, flipped, expected)
    assert (tally.attempted, tally.failed) == (520, 520)

    # A wrong exit code fails the run.
    tally = Tally()
    checker.check(tally, "exit", 1, stdout, expected)
    assert tally.failed == 520

    # A reference that took in a failing record still counts that record.
    rec = json.loads(lines[3])
    rec["pass"] = False
    bad = b"".join(lines[:3]) + json.dumps(rec, separators=(",", ":")).encode() + b"\n" \
        + b"".join(lines[4:])
    tally = Tally()
    checker.check(tally, "pass-false", 0, bad, _expected(bad, GAUSS))
    assert tally.failed == 1

    # Values that agree with each other but not with the oracle: every
    # sampled record fails.
    wrong = []
    for line in lines:
        rec = json.loads(line)
        if not rec["skipped"]:
            rec["lhs"] = rec["rhs"] = "7/3"
            wrong.append(json.dumps(rec, separators=(",", ":")).encode() + b"\n")
    wrong = b"".join(wrong)
    tally = Tally()
    Checker(oracles, 0).check(tally, "oracle", 0, wrong, _expected(wrong, GAUSS))
    assert tally.failed == checks.ORACLE_SAMPLE


def test_oracle_agrees_with_real_records(package, oracles):
    checked = 0
    for argv in SMALL_COMMANDS:
        _, stdout, _, _ = package.run_cli(argv)
        for line in stdout.splitlines():
            rec = json.loads(line)
            if checks.oracle_cost(rec, oracles) > checks.ORACLE_BUDGET:
                continue
            assert checks.oracle_agrees(rec, oracles), rec
            checked += 1
            if not rec["skipped"] and "lhs" in rec and rec["lhs"].isdigit():
                tampered = dict(rec, lhs=str(int(rec["lhs"]) + 1))
                assert not checks.oracle_agrees(tampered, oracles), tampered
    assert checked > 300


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in PER_LAYER.items()]


def test_reference_covers_every_variant():
    reference = checks.load_reference()
    for name, workload in WORKLOADS.items():
        variants = reference["workloads"][name]
        assert len(variants) == workload.variants
        for variant, entries in enumerate(variants):
            assert [e["command"] for e in entries] == [
                " ".join(argv) for argv in workload.commands(variant)]
        # Every variant writes its own records, so none is a mere repeat.
        assert len({tuple(e["sha256"] for e in entries) for entries in variants}) == len(variants)


def test_run_refuses_without_the_program():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "family",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
