import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import fmzv
import fmzv.verify
from fmzv import cli
from fmzv.cli import main
from fmzv.modfield import primes_in_range
from fmzv.records import VerificationRecord, json_line
from fmzv.verify import block_rows, check_tasks, evaluate_tasks_for_prime, plan_tasks


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_golden(capsys):
    code, out, _ = run_cli(["compute", "--index", "2,1", "--prime", "5"], capsys)
    assert code == 0 and "value=1" in out
    code, out, _ = run_cli(["compute", "--index", "2,1", "--prime", "5", "--star"], capsys)
    assert code == 0 and "value=1" in out
    code, out, _ = run_cli(["compute", "--index", "1", "--prime", "5"], capsys)
    assert code == 0 and "value=0" in out
    code, out, _ = run_cli(["compute", "--index", "1,2", "--prime", "5"], capsys)
    assert code == 0 and "value=4" in out


def test_compute_usage_errors(capsys):
    assert run_cli(["compute", "--index", "2,,1", "--prime", "5"], capsys)[0] == 2
    assert run_cli(["compute", "--index", "2,1", "--prime", "9"], capsys)[0] == 2
    assert run_cli(["compute", "--index", "2,1", "--prime", "2"], capsys)[0] == 2
    assert run_cli(["compute", "--index", "4,1", "--prime", "5"], capsys)[0] == 2
    assert run_cli(["compute", "--prime", "5"], capsys)[0] == 2  # argparse error


def test_verify_jsonl_all_pass(capsys):
    code, out, err = run_cli(
        ["verify", "ao,lm,lemma", "--kmax", "4", "--primes", "7..31", "--jobs", "1"],
        capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines and all(rec["pass"] for rec in lines)
    assert all(rec["check"] in ("ao", "lm", "lemma") for rec in lines)
    # prime-major emission order
    ps = [rec["p"] for rec in lines]
    assert ps == sorted(ps)
    assert "0 failed" in err


def test_verify_skip_records(capsys):
    code, out, _ = run_cli(
        ["verify", "ao", "--kmax", "8", "--primes", "5..7", "--jobs", "1"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert any(rec["skipped"] for rec in lines)
    skipped = [rec for rec in lines if rec["skipped"]]
    assert all("lhs" not in rec for rec in skipped)


def test_verify_unknown_check(capsys):
    assert run_cli(["verify", "nope", "--primes", "7..11"], capsys)[0] == 2
    assert run_cli(["verify", "ao", "--primes", "11..7"], capsys)[0] == 2
    assert run_cli(["verify", "ao", "--primes", "7..11", "--resume"], capsys)[0] == 2


def test_verify_deterministic_and_parallel(tmp_path, capsys):
    args = ["verify", "ao,lemma,antipode", "--kmax", "5", "--wmax", "4",
            "--primes", "5..37"]
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    out4 = tmp_path / "c.jsonl"
    assert run_cli(args + ["--jobs", "1", "--out", str(out1)], capsys)[0] == 0
    assert run_cli(args + ["--jobs", "1", "--out", str(out2)], capsys)[0] == 0
    assert run_cli(args + ["--jobs", "4", "--out", str(out4)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out4.read_bytes()


def test_verify_csv_format(tmp_path, capsys):
    out = tmp_path / "v.csv"
    code, _, _ = run_cli(
        ["verify", "ao", "--kmax", "3", "--primes", "5..13",
         "--format", "csv", "--jobs", "1", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,k,s,index,p,lhs,rhs,pass,skipped,reason"
    assert any(line.startswith("ao,3,1,,7,3,3,true,false,") for line in lines)


def test_verify_resume_idempotent_and_extends(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    base = ["verify", "ao,lm", "--kmax", "4", "--jobs", "1", "--out", str(out)]
    assert run_cli(base + ["--primes", "5..19"], capsys)[0] == 0
    first = out.read_bytes()
    # replay: nothing appended
    assert run_cli(base + ["--primes", "5..19", "--resume"], capsys)[0] == 0
    assert out.read_bytes() == first
    # extend: equals a one-shot run over the whole range
    assert run_cli(base + ["--primes", "5..37", "--resume"], capsys)[0] == 0
    extended = out.read_bytes()
    oneshot = tmp_path / "oneshot.jsonl"
    assert run_cli(["verify", "ao,lm", "--kmax", "4", "--jobs", "1",
                    "--out", str(oneshot), "--primes", "5..37"], capsys)[0] == 0
    assert extended == oneshot.read_bytes()


def test_zsweep_rows_and_summary(capsys):
    code, out, err = run_cli(["zsweep", "--k", "3", "--primes", "3..60"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["p"] == 3 and lines[0]["skipped"]
    live = [rec for rec in lines if not rec["skipped"]]
    assert live and all(rec["pass"] for rec in live)
    assert all(rec["zero"] is False for rec in live)
    assert "0 zero residues" in err and "0 cross-check failures" in err


def test_zsweep_even_k_flags_zeros(capsys):
    code, out, _ = run_cli(["zsweep", "--k", "4", "--primes", "11..31"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines and all(rec["zero"] for rec in lines)
    assert all(rec["lhs"] == "0" for rec in lines)


def test_zsweep_resume(tmp_path, capsys):
    out = tmp_path / "z.jsonl"
    assert run_cli(["zsweep", "--k", "3", "--primes", "5..30",
                    "--out", str(out)], capsys)[0] == 0
    assert run_cli(["zsweep", "--k", "3", "--primes", "5..60",
                    "--out", str(out), "--resume"], capsys)[0] == 0
    oneshot = tmp_path / "z_oneshot.jsonl"
    assert run_cli(["zsweep", "--k", "3", "--primes", "5..60",
                    "--out", str(oneshot)], capsys)[0] == 0
    assert out.read_bytes() == oneshot.read_bytes()
    assert run_cli(["zsweep", "--k", "1", "--primes", "5..7"], capsys)[0] == 2


def test_symbolic_suites_quick(capsys):
    assert run_cli(["symbolic", "gauss", "--mmax", "4", "--pairs", "6",
                    "--seed", "42"], capsys)[0] == 0
    assert run_cli(["symbolic", "anl", "--nmax", "4"], capsys)[0] == 0
    assert run_cli(["symbolic", "phi0", "--nmax", "2", "--kmax", "4"], capsys)[0] == 0
    code, out, err = run_cli(
        ["symbolic", "hypcong", "--prime", "11", "--samples", "5", "--seed", "7"],
        capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 9 and all(rec["pass"] for rec in lines)
    assert run_cli(["symbolic", "hypcong", "--samples", "5"], capsys)[0] == 2
    assert run_cli(["symbolic", "nope"], capsys)[0] == 2


def test_symbolic_seed_determinism(capsys):
    code, out1, _ = run_cli(["symbolic", "gauss", "--mmax", "3", "--pairs", "5",
                             "--seed", "9"], capsys)
    assert code == 0
    _, out2, _ = run_cli(["symbolic", "gauss", "--mmax", "3", "--pairs", "5",
                          "--seed", "9"], capsys)
    assert out1 == out2
    _, out3, _ = run_cli(["symbolic", "gauss", "--mmax", "3", "--pairs", "5",
                          "--seed", "10"], capsys)
    assert out1 != out3


def test_exit_code_on_failure(tmp_path, capsys, monkeypatch):
    # force one failing record through the driver to pin the exit contract
    import fmzv.cli as cli_mod

    def fake_worker(shard):
        primes, _plan, fmt = shard
        return [cli_mod._render([VerificationRecord(check="ao", p=p, k=2, s=1, lhs="1",
                                                    rhs="2", passed=False)],
                                fmt, cli_mod.VERIFY_COLUMNS) for p in primes]

    monkeypatch.setattr(cli_mod, "_verify_worker", fake_worker)
    code, out, _ = run_cli(["verify", "ao", "--kmax", "2", "--primes", "5..5",
                            "--jobs", "1"], capsys)
    assert code == 1
    rec = json.loads(out.splitlines()[0])
    assert rec["pass"] is False


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fmzv", "compute", "--index", "2,1", "--prime", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "value=1" in proc.stdout


# In order, through one process's parser: a --seed given by one call must
# not become the default of the next, and neither a usage error nor --help
# may leave state behind.
PARSER_REUSE = [
    ["symbolic", "gauss", "--mmax", "3", "--pairs", "4"],
    ["symbolic", "gauss", "--mmax", "3", "--pairs", "4", "--seed", "5"],
    ["symbolic", "gauss", "--mmax", "3", "--pairs", "x"],
    ["verify", "ao,lm", "--help"],
    ["symbolic", "gauss", "--mmax", "3", "--pairs", "4"],
    ["symbolic", "gauss", "--mmax", "3", "--pairs", "4", "--seed", "42"],
    ["symbolic", "hypcong", "--prime", "13", "--seed", "5"],
    ["symbolic", "hypcong", "--prime", "13"],
]


def test_reused_parser_matches_fresh_runs(capsys, monkeypatch):
    import fmzv.cli as cli_mod

    monkeypatch.setenv("COLUMNS", "80")  # --help wraps alike in both runs
    src = os.path.dirname(os.path.dirname(fmzv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = []
    for argv in PARSER_REUSE:
        runs.append(run_cli(argv, capsys))
        fresh = subprocess.run([sys.executable, "-m", "fmzv", *argv],
                               capture_output=True, text=True, env=env)
        assert runs[-1] == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code for code, _, _ in runs] == [0, 0, 2, 0, 0, 0, 0, 0]
    # gauss defaults to seed 42 before and after the call that gave 5, and
    # hypcong's seed 5 is not the next hypcong call's
    assert runs[0] == runs[4] == runs[5] and runs[0][1] != runs[1][1]
    assert runs[6][1] != runs[7][1]
    assert "usage:" in runs[3][1]
    reused = vars(cli_mod._parser().parse_args(PARSER_REUSE[0]))
    assert reused == vars(cli_mod.build_parser().parse_args(PARSER_REUSE[0]))
    assert reused["seed"] is None


# Each writes well over the 64 KiB a pipe holds (90 to 160 KiB in all), so
# it cannot finish before its reader goes away.
CLOSED_STDOUT_COMMANDS = [
    ["verify", "ao,lm", "--kmax", "8", "--primes", "5..300", "--jobs", "1"],
    ["verify", "ao,lm", "--kmax", "8", "--primes", "5..300", "--jobs", "2"],
    ["zsweep", "--k", "3", "--primes", "5..8000"],
    ["symbolic", "gauss", "--mmax", "2", "--pairs", "300"],
]


@pytest.mark.parametrize("argv", CLOSED_STDOUT_COMMANDS)
def test_closed_stdout_is_a_quiet_stop(argv):
    # `fmzv ... | head -1`: the reader takes one line and closes its end.
    # The run stops with 128 + SIGPIPE, no traceback, no "Exception
    # ignored" at exit and no summary line.
    src = os.path.dirname(os.path.dirname(fmzv.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "fmzv",
         *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert json.loads(first)["check"] in ("ao", "zsweep", "gauss")
    assert (proc.returncode, err.decode()) == (141, "")


def test_compute_empty_index(capsys):
    code, out, _ = run_cli(["compute", "--index", "", "--prime", "7"], capsys)
    assert code == 0 and "value=1" in out


def test_verify_rejects_bad_jobs(capsys):
    base = ["verify", "ao", "--kmax", "3", "--primes", "5..13"]
    for jobs in ("0", "-3"):
        code, out, err = run_cli(base + ["--jobs", jobs], capsys)
        assert code == 2 and out == "" and "error:" in err, jobs


def test_verify_csv_resume(tmp_path, capsys):
    out = tmp_path / "v.csv"
    base = ["verify", "ao", "--kmax", "3", "--jobs", "1", "--format", "csv",
            "--out", str(out)]
    assert run_cli(base + ["--primes", "5..13"], capsys)[0] == 0
    assert run_cli(base + ["--primes", "5..23", "--resume"], capsys)[0] == 0
    oneshot = tmp_path / "o.csv"
    assert run_cli(["verify", "ao", "--kmax", "3", "--jobs", "1", "--format", "csv",
                    "--out", str(oneshot), "--primes", "5..23"], capsys)[0] == 0
    assert out.read_bytes() == oneshot.read_bytes()


RESUMABLE = [
    (["verify", "ao,lm,heightsum", "--kmax", "4", "--jobs", "1"], "jsonl"),
    (["verify", "ao,lm,heightsum", "--kmax", "4", "--jobs", "1"], "csv"),
    (["zsweep", "--k", "3"], "jsonl"),
    (["zsweep", "--k", "3"], "csv"),
]


def _edit_record(data, fmt, edit):
    """``data`` with the first record that ``edit`` (a record's fields, as
    text and booleans, to the fields to change) changes rewritten so."""
    lines = data.split(b"\n")
    columns = lines[0].decode().split(",") if fmt == "csv" else None
    for i in range(fmt == "csv", len(lines)):
        if fmt == "jsonl":
            rec = json.loads(lines[i])
        else:
            rec = dict(zip(columns, next(csv.reader([lines[i].decode()]))))
            rec.update((key, value == "true") for key, value in rec.items()
                       if value in ("true", "false"))
        fields = edit(rec)
        if fields:
            rec.update(fields)
            if fmt == "jsonl":
                lines[i] = json.dumps(rec, separators=(",", ":")).encode()
            else:
                lines[i] = ",".join(str(rec[c]).lower() if isinstance(rec[c], bool) else rec[c]
                                    for c in columns).encode()
            return b"\n".join(lines)
    raise AssertionError("no record to edit")


def _fail_first_record(data, fmt):
    """``data`` with its first record failed: a right side that is not the
    left one, and pass false, so that the record still agrees with itself."""
    return _edit_record(data, fmt, lambda rec: {"rhs": rec["rhs"] + "9", "pass": False})


@pytest.mark.parametrize("argv, fmt", RESUMABLE)
def test_resume_summary_counts_the_kept_records(tmp_path, capsys, argv, fmt):
    # the summary line and the exit code describe the whole file: a
    # resumed run reports what a one-shot run reports, and a failed record
    # that the resume keeps fails the run
    base = argv + ["--format", fmt, "--primes", "5..29"]
    out = tmp_path / f"run.{fmt}"
    code, _, oneshot_err = run_cli(base + ["--out", str(out)], capsys)
    assert code == 0
    whole = out.read_bytes()
    half = whole[:whole.index(b"\n", len(whole) // 2) + 1]
    out.write_bytes(half)
    code, _, err = run_cli(base + ["--out", str(out), "--resume"], capsys)
    assert (code, err) == (0, oneshot_err) and out.read_bytes() == whole
    out.write_bytes(_fail_first_record(half, fmt))
    code, _, err = run_cli(base + ["--out", str(out), "--resume"], capsys)
    assert code == 1 and out.read_bytes() == _fail_first_record(whole, fmt)
    assert err == (oneshot_err.replace(", 0 failed", ", 1 failed")
                   .replace(", 0 cross-check", ", 1 cross-check"))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("k", [4, 9])
def test_resume_counts_kept_zero_and_degenerate_rows(tmp_path, capsys, k, fmt):
    # the zero residues and degenerate cross-checks of the rows a resume
    # keeps are read back and counted like new ones, wherever the file was
    # cut
    base = ["zsweep", "--k", str(k), "--format", fmt, "--primes", "3..31"]
    out = tmp_path / f"run.{fmt}"
    code, _, oneshot_err = run_cli(base + ["--out", str(out)], capsys)
    assert code == 0 and ", 1 degenerate" in oneshot_err
    whole = out.read_bytes()
    ends = [i + 1 for i, byte in enumerate(whole) if byte == ord("\n")]
    for end in ends:
        out.write_bytes(whole[:end])
        code, _, err = run_cli(base + ["--out", str(out), "--resume"], capsys)
        assert (code, err) == (0, oneshot_err) and out.read_bytes() == whole, end


@pytest.mark.parametrize("argv, fmt", RESUMABLE)
def test_resume_keeps_skipped_records(tmp_path, capsys, argv, fmt):
    # primes from 2 give skipped records: their empty CSV fields and the
    # fields JSON leaves out are read back and counted like any other
    base = argv + ["--format", fmt, "--primes", "2..29"]
    out = tmp_path / f"run.{fmt}"
    code, _, oneshot_err = run_cli(base + ["--out", str(out)], capsys)
    assert code == 0 and ", 0 skipped" not in oneshot_err
    whole = out.read_bytes()
    for kept in (whole, whole[:whole.index(b"\n", len(whole) // 2) + 1]):
        out.write_bytes(kept)
        code, _, err = run_cli(base + ["--out", str(out), "--resume"], capsys)
        assert (code, err) == (0, oneshot_err) and out.read_bytes() == whole


@pytest.mark.parametrize("argv, fmt", RESUMABLE)
def test_resume_after_torn_tail(tmp_path, capsys, argv, fmt):
    # a run cut anywhere in its last lines resumes to the bytes of a run
    # that was never interrupted: the torn line and the unfinished prime
    # are cut off and written again
    base = argv + ["--format", fmt]
    oneshot = tmp_path / f"oneshot.{fmt}"
    assert run_cli(base + ["--primes", "5..29", "--out", str(oneshot)], capsys)[0] == 0
    partial = tmp_path / f"partial.{fmt}"
    assert run_cli(base + ["--primes", "5..13", "--out", str(partial)], capsys)[0] == 0
    data = partial.read_bytes()
    tail = data.rindex(b"\n", 0, data.rindex(b"\n", 0, len(data) - 1))
    for cut in (len(data) - 5, len(data) - 1, tail + 1, tail + 7, 3, 0):
        out = tmp_path / f"cut{cut}.{fmt}"
        out.write_bytes(data[:cut])
        assert run_cli(base + ["--primes", "5..29", "--out", str(out),
                               "--resume"], capsys)[0] == 0, cut
        assert out.read_bytes() == oneshot.read_bytes(), cut


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_resume_torn_inside_the_second_block(tmp_path, capsys, fmt):
    # a family sweep computes its primes block by block; a file cut inside
    # its second block, on a line end or inside a line, resumes to the
    # bytes of a run that was never cut
    primes = primes_in_range(5, 400)
    blocks = cli._blocks(primes, len(primes), cli.BLOCK_BITS)
    assert len(blocks) >= 3
    base = ["verify", "ao,heightsum", "--kmax", "3", "--primes", "5..400",
            "--jobs", "1", "--format", fmt]
    oneshot = tmp_path / f"oneshot.{fmt}"
    assert run_cli(base + ["--out", str(oneshot)], capsys)[0] == 0
    whole = oneshot.read_bytes()
    lines = whole.splitlines(keepends=True)
    head = 1 if fmt == "csv" else 0
    per_prime = (len(lines) - head) // len(primes)
    # two records into the middle prime of the second block
    kept = head + (len(blocks[0]) + len(blocks[1]) // 2) * per_prime + 2
    done = len(b"".join(lines[:kept]))
    for cut in (done, done + 4):
        out = tmp_path / f"cut{cut}.{fmt}"
        out.write_bytes(whole[:cut])
        assert run_cli(base + ["--out", str(out), "--resume"], capsys)[0] == 0, cut
        assert out.read_bytes() == whole, cut


BLOCK_CUTS = [((5, 151), 1, 192), ((5, 400), 1, 192), ((5, 200), 4, 192),
              ((2000, 2300), 1, 192), ((2, 120), 2, 192), ((5, 2500), 1, 2048),
              ((16000, 18000), 1, 2048), ((5, 17000), 1, 2048), ((100, 110), 1, 16)]


@pytest.mark.parametrize("bounds, jobs, bits", BLOCK_CUTS)
def test_blocks_are_cut_evenly_by_bits(bounds, jobs, bits):
    # n runs, n the larger of the runs of ceil(len / jobs) primes and of
    # `bits` bits that could hold them; each run within log2 of its largest
    # prime of total / n, so that no short tail pays a whole pass (5..151
    # was cut into 5..149, 188 bits, and 151 alone)
    primes = primes_in_range(*bounds)
    size = -(-len(primes) // jobs)
    total = sum(map(math.log2, primes))
    n = max(-(-len(primes) // size), math.ceil(total / bits))
    assert jobs <= n < len(primes)
    blocks = cli._blocks(primes, size, bits)
    assert [p for block in blocks for p in block] == primes
    assert len(blocks) == n and all(blocks)
    for block in blocks:
        assert abs(sum(map(math.log2, block)) - total / n) <= math.log2(block[-1]), block


def test_blocks_of_one_and_of_none():
    primes = primes_in_range(2, 30)
    assert cli._blocks(primes, 1, 192) == [(p,) for p in primes]
    assert cli._blocks([5, 7, 1009, 1013], 1, 16) == [(5,), (7,), (1009,), (1013,)]
    assert cli._blocks([], 1, 192) == []


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_zsweep_resume_torn_inside_the_second_block(tmp_path, capsys, fmt):
    # the hunt computes its rows block by block but writes them prime by
    # prime; a file cut inside its second block, on a line end or inside a
    # line, resumes to the bytes of a run that was never cut
    primes = primes_in_range(5, 5000)
    blocks = cli._blocks(primes, len(primes), cli.ZETA_BLOCK_BITS)
    assert len(blocks) >= 3
    base = ["zsweep", "--k", "3", "--primes", "5..5000", "--format", fmt]
    oneshot = tmp_path / f"oneshot.{fmt}"
    assert run_cli(base + ["--out", str(oneshot)], capsys)[0] == 0
    whole = oneshot.read_bytes()
    lines = whole.splitlines(keepends=True)
    head = 1 if fmt == "csv" else 0
    assert len(lines) == head + len(primes)
    # the middle prime of the second block
    done = len(b"".join(lines[:head + len(blocks[0]) + len(blocks[1]) // 2]))
    for cut in (done, done + 4):
        out = tmp_path / f"cut{cut}.{fmt}"
        out.write_bytes(whole[:cut])
        assert run_cli(base + ["--out", str(out), "--resume"], capsys)[0] == 0, cut
        assert out.read_bytes() == whole, cut


def test_resume_refuses_another_runs_file(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    base = ["verify", "ao,lm", "--jobs", "1", "--out", str(out), "--primes", "5..19"]
    assert run_cli(base + ["--kmax", "3"], capsys)[0] == 0
    before = out.read_bytes()
    for kmax in ("2", "4"):  # fewer and more records per prime than the file has
        code, _, err = run_cli(base + ["--kmax", kmax, "--resume"], capsys)
        assert code == 2 and "error:" in err, kmax
        assert out.read_bytes() == before
    merged = before.replace(b"}\n", b"}", 1)  # two records on one line
    out.write_bytes(merged)
    assert run_cli(base + ["--kmax", "3", "--resume"], capsys)[0] == 2
    assert out.read_bytes() == merged


def test_verify_empty_grid_is_a_usage_error(capsys):
    for argv in (["verify", "ao", "--kmax", "1", "--primes", "5..13"],
                 ["verify", "ao", "--kmax", "4", "--smax", "0", "--primes", "5..13"]):
        code, out, err = run_cli(argv + ["--jobs", "1"], capsys)
        assert code == 2 and out == "", argv
        assert "error: no tasks for ao with --kmax" in err, argv
    assert "--smax 0" in err


def test_check_named_twice_is_a_usage_error(capsys):
    # it would write every record of that check twice
    for checks in ("ao,ao", "antipode,ao,antipode"):
        code, out, err = run_cli(["verify", checks, "--kmax", "3", "--primes", "5..7",
                                  "--jobs", "1"], capsys)
        assert code == 2 and out == "", checks
        assert "error: a check is named twice" in err, checks


def test_prime_range_without_a_prime_is_a_usage_error(tmp_path, capsys):
    for argv in (["verify", "ao", "--kmax", "4", "--primes", "24..28", "--jobs", "1"],
                 ["zsweep", "--k", "3", "--primes", "24..28"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and "error: no prime in '24..28'" in err, argv
    # a resumed run whose primes are all done is not an empty range: it
    # writes nothing and reports the four primes it keeps
    done = tmp_path / "z.jsonl"
    argv = ["zsweep", "--k", "3", "--primes", "5..13", "--out", str(done)]
    assert run_cli(argv, capsys)[0] == 0
    before = done.read_bytes()
    code, _, err = run_cli(argv + ["--resume"], capsys)
    assert code == 0 and "4 primes" in err
    assert done.read_bytes() == before


@pytest.mark.parametrize("text", ["5..", "..7", "abc", "5..x", "5...7"])
def test_malformed_prime_range_is_named(capsys, text):
    for argv in (["verify", "ao", "--kmax", "3", "--jobs", "1"], ["zsweep", "--k", "3"]):
        code, out, err = run_cli(argv + ["--primes", text], capsys)
        assert (code, out, err) == (2, "", f"error: bad prime range {text!r}\n"), argv


UNOPENABLE_OUT = [
    # (argv, --out is a missing directory's file rather than a directory)
    (["verify", "ao", "--kmax", "3", "--primes", "5..13", "--jobs", "1"], True),
    (["verify", "ao", "--kmax", "3", "--primes", "5..13", "--jobs", "1"], False),
    (["verify", "ao", "--kmax", "3", "--primes", "5..13", "--jobs", "1", "--resume"], False),
    (["zsweep", "--k", "3", "--primes", "5..13"], True),
    (["zsweep", "--k", "3", "--primes", "5..13"], False),
    (["zsweep", "--k", "3", "--primes", "5..13", "--resume"], False),
    (["symbolic", "anl"], True),
    (["symbolic", "hypcong", "--prime", "13"], False),
]


@pytest.mark.parametrize("argv, missing", UNOPENABLE_OUT)
def test_unopenable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, missing):
    # the file is opened, or scanned for --resume, before any record is
    # computed, and an OSError is a usage error rather than a traceback
    import fmzv.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was opened")

    for name in ("_verify_worker", "zeta_sweep_rows", "run_anl_suite", "run_hypcong_suite"):
        monkeypatch.setattr(cli_mod, name, no_work)
    out_path = tmp_path / "no" / "such" / "x.jsonl" if missing else tmp_path
    code, out, err = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 2 and out == "", argv
    assert err.startswith("error: ") and str(out_path) in err and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


BAD_SYMBOLIC = [
    ["anl", "--nmax", "0"],
    ["anl", "--nmax", "-2"],
    ["phi0", "--nmax", "0"],
    ["phi0", "--nmax", "3", "--kmax", "0"],
    ["hypcong", "--prime", "13", "--samples", "0"],
    ["hypcong", "--prime", "13", "--samples", "-1"],
    ["gauss", "--pairs", "0"],
    ["gauss", "--mmax", "-1"],
]


@pytest.mark.parametrize("argv", BAD_SYMBOLIC)
def test_symbolic_rejects_bad_input(capsys, argv):
    # no default stands in for a bad value, and no suite runs to a
    # traceback or to zero records
    code, out, err = run_cli(["symbolic", *argv], capsys)
    assert code == 2 and out == "", argv
    assert err.startswith("error: ") and err.count("\n") == 1, err


# Every sizing flag of `symbolic`, with a value each suite that reads it
# takes, and the flags each suite reads; a suite given any other is refused.
SUITE_VALUES = {"nmax": "3", "kmax": "4", "mmax": "3", "pairs": "2", "prime": "13",
                "samples": "2", "seed": "5"}
SUITE_READS = {"gauss": {"mmax", "pairs", "seed"}, "anl": {"nmax"},
               "phi0": {"nmax", "kmax"}, "hypcong": {"prime", "samples", "seed"}}
UNREAD_SUITE_FLAGS = [(suite, flag) for suite, reads in SUITE_READS.items()
                      for flag in SUITE_VALUES if flag not in reads]


def _refuse_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for name in ("_verify_worker", "run_gauss_suite", "run_anl_suite", "run_phi0_suite",
                 "run_hypcong_suite"):
        monkeypatch.setattr(cli, name, no_work)


@pytest.mark.parametrize("suite, flag", UNREAD_SUITE_FLAGS)
def test_symbolic_refuses_a_flag_its_suite_does_not_read(tmp_path, capsys, monkeypatch,
                                                         suite, flag):
    # the flag would be dropped without a word; it is refused before --out
    # is opened and before the suite runs
    assert len(UNREAD_SUITE_FLAGS) == 19
    _refuse_work(monkeypatch)
    base = ["--prime", "13"] if suite == "hypcong" else []
    path = tmp_path / "x.jsonl"
    code, out, err = run_cli(["symbolic", suite, *base, f"--{flag}", SUITE_VALUES[flag],
                              "--out", str(path)], capsys)
    assert code == 2 and out == "", (suite, flag)
    assert err.startswith("error: ") and err.count("\n") == 1 and f"--{flag}" in err, err
    assert not path.exists()


UNREAD_VERIFY_FLAGS = [
    ("antipode", ["--kmax", "8"], "--kmax"),
    ("antipode", ["--kmax", "1", "--smax", "0"], "--kmax"),
    ("antipode,reversal", ["--smax", "1"], "--smax"),
    ("ao,lm", ["--wmax", "6"], "--wmax"),
    ("heightsum", ["--wmax", "3"], "--wmax"),
]


@pytest.mark.parametrize("checks, flags, named", UNREAD_VERIFY_FLAGS)
def test_verify_refuses_a_flag_no_check_reads(tmp_path, capsys, monkeypatch, checks, flags,
                                              named):
    # a flag that one named check reads is read: test_summary_lines runs
    # ao,antipode with --kmax and --wmax
    _refuse_work(monkeypatch)
    path = tmp_path / "x.jsonl"
    code, out, err = run_cli(["verify", checks, *flags, "--primes", "5..13", "--jobs", "1",
                              "--out", str(path)], capsys)
    assert code == 2 and out == "", (checks, flags)
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
    assert not path.exists()


def test_the_parser_holds_no_sizing_default():
    # an unset sizing flag is None, so the library's signature holds its
    # only default (``check_tasks``, ``run_*_suite``)
    parser = cli.build_parser()
    args = vars(parser.parse_args(["symbolic", "gauss"]))
    assert {flag: args[flag] for flag in SUITE_VALUES} == dict.fromkeys(SUITE_VALUES)
    args = vars(parser.parse_args(["verify", "ao", "--primes", "5..7"]))
    assert (args["kmax"], args["smax"], args["wmax"]) == (None, None, None)


def test_summary_lines(tmp_path, capsys):
    cases = [
        (["verify", "ao,antipode", "--kmax", "4", "--wmax", "3", "--primes", "5..11",
          "--jobs", "1"], "verify: 33 records, 0 failed, 2 skipped"),
        (["zsweep", "--k", "4", "--primes", "3..13"],
         "zsweep k=4: 5 primes, 3 zero residues, 0 cross-check failures, "
         "1 degenerate, 2 skipped"),
        (["zsweep", "--k", "11", "--primes", "29..37"],
         "zsweep k=11: 3 primes, 0 zero residues, 0 cross-check failures, "
         "1 degenerate, 0 skipped"),
        (["symbolic", "anl", "--nmax", "3"], "symbolic anl: 6 records, 0 failed"),
    ]
    for argv, line in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == line + "\n", argv
        # --out writes the same bytes as stdout
        path = tmp_path / "out.jsonl"
        code, _, out_err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out_err) == (0, err) and path.read_text() == out, argv


ZSWEEP_K11 = {
    "jsonl": (
        '{"check":"zsweep","k":11,"p":29,"lhs":"14","rhs":"14","pass":true,'
        '"skipped":false,"zero":false,"cross":"ok"}\n'
        '{"check":"zsweep","k":11,"p":31,"lhs":"4","rhs":"","pass":true,'
        '"skipped":false,"reason":"2^(k-1) = 1 mod p: alternating route cannot divide",'
        '"zero":false,"cross":"degenerate"}\n'
        '{"check":"zsweep","k":11,"p":37,"lhs":"28","rhs":"28","pass":true,'
        '"skipped":false,"zero":false,"cross":"ok"}\n'),
    "csv": (
        "check,k,p,lhs,rhs,pass,skipped,reason,zero,cross\n"
        "zsweep,11,29,14,14,true,false,,false,ok\n"
        "zsweep,11,31,4,,true,false,2^(k-1) = 1 mod p: alternating route cannot divide,"
        "false,degenerate\n"
        "zsweep,11,37,28,28,true,false,,false,ok\n"),
}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_zsweep_golden_bytes_with_a_degenerate_row(capsys, fmt):
    # 2^10 = 1 mod 31: the alternating route cannot divide, so rhs is ""
    code, out, _ = run_cli(["zsweep", "--k", "11", "--primes", "29..37",
                            "--format", fmt], capsys)
    assert code == 0 and out == ZSWEEP_K11[fmt]


# sha256 of the stdout of `zsweep --k K --primes 5..700` in each format
ZSWEEP_SHA256 = {
    (3, "jsonl"): "cd54200f1265c4b4a1da7834b48120b420b4a0426a9175bd00fe0b05ef416eb7",
    (3, "csv"): "6ae7feedc998bd15eb88348e935a7471154a49981892565a35703cdcf3402fe0",
    (4, "jsonl"): "c2ed6abe644584400cb44b8f6f377dd49b712dee7ef498b4e90d2eefea3bbc79",
    (4, "csv"): "b06bf5d23897ff15863f7fb6836850f68042d95f9478aff4215ef61e651fff63",
    (5, "jsonl"): "2062fe69c7585d4a7ed3e1b81937e6ed8397de2e2726fd54e36b4769451ec18d",
    (5, "csv"): "8d8ceb498ef9f85fa594dda8f84656bc1ea1a568b7fbc1628463fe6c511b3e19",
    (11, "jsonl"): "d921be528ede88bd4f2b0dd105d6bcaf8a24921d3b047bf5c95677f792e6461d",
    (11, "csv"): "a57a93113677a86e73675373758440a20808a06d84fb38732aa7f7d7b27aeff1",
    (13, "jsonl"): "88c665d05e7e9d42934a57c15f767d7ae77e6e5922b1cd23544aa6a31c5abc63",
    (13, "csv"): "e0164e27253ffb611c2b87093242ca7aec0a85925f0ff4026fab9a3994af2df9",
}


@pytest.mark.parametrize("k, fmt", ZSWEEP_SHA256)
def test_zsweep_golden_sha256(capsys, k, fmt):
    code, out, _ = run_cli(["zsweep", "--k", str(k), "--primes", "5..700",
                            "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ZSWEEP_SHA256[k, fmt]


# sha256 of the stdout of zsweep at a large --k in each format, written when
# each prime read its residue from the power-sum sieve and its own
# alternating sum: the blocked passes take each step l^k mod the block's
# modulus, so a large k costs a few products a step
ZSWEEP_LARGE_K_SHA256 = {
    ("101", "2..1500", "jsonl"): "d1d8c70ddc9f4cc9484995d8e32afbb64be6e49e749e7252a390a45b2af298de",
    ("101", "2..1500", "csv"): "5aed475878ff1be67cc1eeef1e31ca3476a68bb116281e151e7b260f700a20da",
    ("1001", "1000..1400", "jsonl"): "2ababec6ff7560946c60a98ae6c84507ca9fa16271752769d71a4ff91588009b",
    ("1001", "1000..1400", "csv"): "6bf79dd96debfa6eed8fc22d4d5c9f7c5a1efc579c949f16f02f3dfa06cf9f3b",
}


@pytest.mark.parametrize("k, primes, fmt", ZSWEEP_LARGE_K_SHA256)
def test_zsweep_large_k_golden_sha256(capsys, k, primes, fmt):
    code, out, _ = run_cli(["zsweep", "--k", k, "--primes", primes, "--format", fmt],
                           capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ZSWEEP_LARGE_K_SHA256[k, primes, fmt]


# sha256 of the stdout of `verify ao,lm,lemma,heightsum --kmax 12 --primes
# 5..200 --jobs 1` in each format: every family check of the DP engine
VERIFY_FAMILY_SHA256 = {
    "jsonl": "fb0a28841c799f57d089ae2de99821e11bf780ec751a96494e661a55ba361ab2",
    "csv": "5fcbfc886730fab14fb0cc3a8f349c26f8062590b7f6e3c11a6463053660c397",
}


@pytest.mark.parametrize("fmt", VERIFY_FAMILY_SHA256)
def test_verify_family_golden_sha256(capsys, fmt):
    code, out, err = run_cli(["verify", "ao,lm,lemma,heightsum", "--kmax", "12",
                              "--primes", "5..200", "--jobs", "1", "--format", fmt],
                             capsys)
    assert code == 0 and err == "verify: 6864 records, 0 failed, 364 skipped\n"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FAMILY_SHA256[fmt]


# sha256 of the stdout of `verify antipode,reversal --wmax 6 --primes 11..61
# --jobs 1` in each format: the index-level checks, whose CSV quotes an
# index with more than one part ("2,1") in 1596 of its 1765 lines
VERIFY_INDEX_SHA256 = {
    "jsonl": "13b1ac0045e6749a9109e1d8d4261d6295a6031a16d102449d1790ecef666e12",
    "csv": "02d1c1747a6f731dcda6d8a700f6cc7624fa6c13c09c291588f2d86afa103d4a",
}


@pytest.mark.parametrize("fmt", VERIFY_INDEX_SHA256)
def test_verify_index_golden_sha256(capsys, fmt):
    code, out, err = run_cli(["verify", "antipode,reversal", "--wmax", "6",
                              "--primes", "11..61", "--jobs", "1", "--format", fmt],
                             capsys)
    assert code == 0 and err == "verify: 1764 records, 0 failed, 0 skipped\n"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_INDEX_SHA256[fmt]


# (prime, samples, seed) -> skipped_samples of l = 1, 2, ..., p - 2; every
# l evaluates all three congruences at `samples` points
HYPCONG_SKIPS = {
    (13, 20, 3): "3/0/3 0/1/1 5/0/5 5/4/8 5/2/5 4/6/6 4/4/4 2/4/4 7/7/7 1/2/2 1/1/1",
    (31, 10, 7): "2/0/2 0/0/0 0/0/0 0/0/0 1/1/1 0/0/0 3/2/3 3/2/3 2/2/2 3/2/3 "
                 "0/0/0 3/3/3 5/5/5 4/4/4 9/3/9 1/1/1 1/1/1 1/2/2 1/1/1 2/2/2 "
                 "2/2/2 0/0/0 4/4/4 1/1/1 2/2/2 3/3/3 1/1/1 0/0/0 0/0/0",
}


@pytest.mark.parametrize("prime, samples, seed", HYPCONG_SKIPS)
def test_hypcong_golden_bytes(capsys, prime, samples, seed):
    code, out, err = run_cli(["symbolic", "hypcong", "--prime", str(prime),
                              "--samples", str(samples), "--seed", str(seed)], capsys)
    skips = HYPCONG_SKIPS[prime, samples, seed].split()
    assert len(skips) == prime - 2
    want = "".join(
        f'{{"check":"hypcong","p":{prime},"pass":true,"skipped":false,"l":{l},'
        f'"seed":{seed},"samples":{samples},'
        f'"evaluated":"{samples}/{samples}/{samples}","skipped_samples":"{skip}"}}\n'
        for l, skip in enumerate(skips, start=1))
    assert code == 0 and out == want
    assert err == f"symbolic hypcong: {prime - 2} records, 0 failed\n"



# sha256 of the stdout of `symbolic hypcong` with these flags
HYPCONG_SHA256 = {
    ("--prime", "61", "--seed", "7"):
        "353fac46309494c8444de71437bcfe288ec00d990bbf2c789fd7e8f87c683568",
    ("--prime", "61", "--seed", "9"):
        "03a7b00a6348e99a0bfbf99f034adf7ee5902b8adaefb502b6ff3aa4eb687357",
    ("--prime", "101", "--samples", "5"):
        "6631969dadc783b2463b752e41b130b016d18eed7efd14f9ab222623a45a6e7f",
}


@pytest.mark.parametrize("flags", HYPCONG_SHA256)
def test_hypcong_golden_sha256(capsys, flags):
    code, out, err = run_cli(["symbolic", "hypcong", *flags], capsys)
    prime = int(flags[1])
    assert code == 0 and err == f"symbolic hypcong: {prime - 2} records, 0 failed\n"
    assert hashlib.sha256(out.encode()).hexdigest() == HYPCONG_SHA256[flags]


def test_phi0_golden_sha256(capsys):
    # the phi0 suite of the benchmark, byte for byte
    code, out, err = run_cli(["symbolic", "phi0", "--nmax", "8", "--kmax", "10"], capsys)
    assert code == 0 and err == "symbolic phi0: 200 records, 0 failed\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e38745ca826aa09894b8a89a4fba214dec9a60d87b051a9dfc239223b661a99b")


def test_anl_golden_sha256(capsys):
    # the anl suite of the benchmark, byte for byte: the hash was written
    # when the product form was reduced by a subresultant PRS, so it checks
    # that Euclid's gcd gives the same reduced weights
    code, out, err = run_cli(["symbolic", "anl", "--nmax", "8"], capsys)
    assert code == 0 and err == "symbolic anl: 36 records, 0 failed\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "38c3f4287760d29c9610c9c5c5ca382413d765b2c18f0e586dc45f8e3d0414d0")


class _NoDict(Exception):
    pass


def _no_dict(self):
    raise _NoDict(self)


# Commands whose JSONL bytes are pinned above: the family and index checks
# (skipped records and the index field), zsweep (skipped, degenerate and
# zero rows) and a symbolic suite (int and str extras).
JSONL_PINS = {
    "verify-family": (["verify", "ao,lm,lemma,heightsum", "--kmax", "12", "--primes",
                       "5..200", "--jobs", "1"], VERIFY_FAMILY_SHA256["jsonl"]),
    "verify-index": (["verify", "antipode,reversal", "--wmax", "6", "--primes", "11..61",
                      "--jobs", "1"], VERIFY_INDEX_SHA256["jsonl"]),
    "zsweep": (["zsweep", "--k", "11", "--primes", "5..700"], ZSWEEP_SHA256[11, "jsonl"]),
    "symbolic": (["symbolic", "hypcong", "--prime", "61", "--seed", "7"],
                 HYPCONG_SHA256["--prime", "61", "--seed", "7"]),
}


@pytest.mark.parametrize("name", JSONL_PINS)
def test_jsonl_lines_are_written_without_the_record_dict(capsys, monkeypatch, name):
    # every JSONL line comes from the record's fields (records.json_line),
    # or for verify from its task's head in the plan and its sides: with
    # to_json_dict made to raise, each command writes its pinned bytes
    monkeypatch.setattr(VerificationRecord, "to_json_dict", _no_dict)
    argv, digest = JSONL_PINS[name]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# All six checks from p = 2: skipped records at the small primes, family
# keys (k, s) and index texts of up to five parts, in blocks of primes.
ALL_CHECKS = ["antipode", "ao", "heightsum", "lemma", "lm", "reversal"]
ALL_PLAN = plan_tasks(sorted(task for check in ALL_CHECKS
                             for task in check_tasks(check, k_max=7, w_max=5)))
ALL_BLOCKS = cli._blocks(primes_in_range(2, 60), 6, cli.BLOCK_BITS)


def _block_records(block, plan):
    return [evaluate_tasks_for_prime(row.p, plan, row) for row in block_rows(block, plan)]


def test_rendered_jsonl_is_the_json_line_of_each_record():
    # the verify shard writes each prime's lines from the plan's heads,
    # with no record built: the bytes of json_line of the prime's records,
    # counted as _count counts them
    assert len(ALL_BLOCKS) > 2 and any("," in head for head in ALL_PLAN.heads)
    seen = set()
    for block in ALL_BLOCKS:
        batches = list(cli._verify_worker((block, ALL_PLAN, "jsonl")))
        records = _block_records(block, ALL_PLAN)
        assert len(batches) == len(records) == len(block)
        for (lines, counts), recs in zip(batches, records):
            assert lines == [json_line(rec) for rec in recs]
            want = cli._new_tally()
            cli._count(want, recs)
            assert counts == {key: want[key] for key in ("records", "failed", "skipped")}
            seen.update((rec.skipped, rec.index is None) for rec in recs)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_rendered_csv_rows_are_written_from_the_record_dict():
    # the verify shard's CSV rows are the rows csv writes of each record's
    # dict, true/false as in JSON and None as an empty field
    for block in ALL_BLOCKS:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for recs in _block_records(block, ALL_PLAN):
            for rec in recs:
                writer.writerow([json.dumps(v) if isinstance(v, bool) else v
                                 for v in map(rec.to_json_dict().get, cli.VERIFY_COLUMNS)])
        lines = [line for lines, _ in cli._verify_worker((block, ALL_PLAN, "csv"))
                 for line in lines]
        assert "".join(lines) == out.getvalue()
        assert len(lines) == len(block) * len(ALL_PLAN.tasks)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_failing_side_is_written_as_a_failure(capsys, monkeypatch, fmt):
    # a check whose sides disagree writes "pass":false on every live line,
    # the bytes of its records, and the run exits 1
    check = fmzv.verify.CHECKS["ao"]
    monkeypatch.setitem(fmzv.verify.CHECKS, "ao",
                        check._replace(sides=lambda k, s, row: ("1", "2")))
    argv = ["verify", "ao", "--kmax", "4", "--primes", "2..13", "--jobs", "1", "--format", fmt]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and "24 records, 14 failed, 10 skipped" in err, err
    if fmt == "jsonl":
        plan = plan_tasks(check_tasks("ao", k_max=4))
        want = [json_line(rec) for recs in _block_records(primes_in_range(2, 13), plan)
                for rec in recs]
        assert out.splitlines(keepends=True) == want
        lines = [json.loads(line) for line in want]
    else:
        lines = [cli._csv_record(cli.VERIFY_COLUMNS, row)
                 for row in list(csv.reader(io.StringIO(out)))[1:]]
    assert [rec["pass"] for rec in lines if not rec["skipped"]] == [False] * 14
    assert all(rec["lhs"] == "1" and rec["rhs"] == "2" for rec in lines if not rec["skipped"])


def test_a_side_that_is_not_text_raises(monkeypatch):
    # the shard writes lhs and rhs through encode_basestring_ascii, which
    # refuses a value that is not a str rather than write bad JSON
    check = fmzv.verify.CHECKS["ao"]
    monkeypatch.setitem(fmzv.verify.CHECKS, "ao",
                        check._replace(sides=lambda k, s, row: (1, "1")))
    plan = plan_tasks(check_tasks("ao", k_max=4))
    with pytest.raises(TypeError):
        list(cli._verify_worker(((11, 13), plan, "jsonl")))


def test_csv_rows_are_written_from_the_record_dict(capsys, monkeypatch):
    monkeypatch.setattr(VerificationRecord, "to_json_dict", _no_dict)
    with pytest.raises(_NoDict):
        main(["verify", "ao", "--kmax", "3", "--primes", "5..13", "--jobs", "1",
              "--format", "csv"])
    with pytest.raises(_NoDict):
        main(["zsweep", "--k", "3", "--primes", "5..13", "--format", "csv"])


MISMATCHED_RESUMES = [
    # (first run, resumed run): another check; another --kmax (with the
    # same number of records per prime, then with more); another --k; a
    # bottom prime moved down (the file lacks the run's first primes) or
    # up (the file holds primes the run does not write); and a file that
    # holds more primes than the run
    (["verify", "ao", "--kmax", "3", "--jobs", "1", "--primes", "5..13"],
     ["verify", "lm", "--kmax", "3", "--jobs", "1", "--primes", "5..19"]),
    (["verify", "ao,lm", "--kmax", "3", "--jobs", "1", "--primes", "5..13"],
     ["verify", "ao,lm", "--kmax", "4", "--jobs", "1", "--primes", "5..19"]),
    (["verify", "ao,lm", "--kmax", "4", "--jobs", "1", "--primes", "5..13"],
     ["verify", "ao,lm", "--kmax", "5", "--smax", "1", "--jobs", "1",
      "--primes", "5..19"]),
    (["zsweep", "--k", "3", "--primes", "5..13"],
     ["zsweep", "--k", "5", "--primes", "5..19"]),
    (["verify", "ao", "--kmax", "3", "--jobs", "1", "--primes", "11..13"],
     ["verify", "ao", "--kmax", "3", "--jobs", "1", "--primes", "5..19"]),
    (["zsweep", "--k", "3", "--primes", "5..13"],
     ["zsweep", "--k", "3", "--primes", "11..31"]),
    (["verify", "ao", "--kmax", "3", "--jobs", "1", "--primes", "5..31"],
     ["verify", "ao", "--kmax", "3", "--jobs", "1", "--primes", "5..11"]),
    (["zsweep", "--k", "3", "--primes", "5..31"],
     ["zsweep", "--k", "3", "--primes", "5..11"]),
]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("first, resumed", MISMATCHED_RESUMES)
def test_resume_refuses_a_mismatched_run(tmp_path, capsys, first, resumed, fmt):
    out = tmp_path / f"run.{fmt}"
    assert run_cli(first + ["--format", fmt, "--out", str(out)], capsys)[0] == 0
    before = out.read_bytes()
    code, stdout, err = run_cli(resumed + ["--format", fmt, "--out", str(out),
                                           "--resume"], capsys)
    assert code == 2 and stdout == "" and "is not this run's" in err
    assert out.read_bytes() == before


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("first, resumed", MISMATCHED_RESUMES[-2:])
def test_resume_past_the_top_names_the_runs_top_prime(tmp_path, capsys, first, resumed, fmt):
    # a file that holds primes past this run's is refused at its first line
    # past the run, whose error names the run's top prime, 11, not the file's
    out = tmp_path / f"run.{fmt}"
    assert run_cli(first + ["--format", fmt, "--out", str(out)], capsys)[0] == 0
    code, _, err = run_cli(resumed + ["--format", fmt, "--out", str(out), "--resume"], capsys)
    assert code == 2 and "it ends at prime 11\n" in err


FOREIGN_CSV = [
    b"check,k,p\nzsweep,3,5\n",
    b"check,k,p,rhs,lhs,pass,skipped,reason,zero,cross\n"
    b"zsweep,3,5,1,1,true,false,,false,ok\n",
]


@pytest.mark.parametrize("foreign", FOREIGN_CSV)
def test_resume_refuses_a_csv_header_of_another_layout(tmp_path, capsys, foreign):
    # rows appended under a header that names other columns would be read
    # back wrong, though each row's check, k and p fit the run
    out = tmp_path / "z.csv"
    out.write_bytes(foreign)
    code, stdout, err = run_cli(["zsweep", "--k", "3", "--primes", "5..13", "--format",
                                 "csv", "--out", str(out), "--resume"], capsys)
    assert (code, stdout) == (2, "") and "CSV header" in err and "is not this run's" in err
    assert out.read_bytes() == foreign


@pytest.mark.parametrize("line", [b"3", b"[1]", b'"p"', b"null"])
def test_resume_refuses_a_json_line_that_is_not_an_object(tmp_path, capsys, line):
    out = tmp_path / "z.jsonl"
    base = ["zsweep", "--k", "3", "--out", str(out)]
    assert run_cli(base + ["--primes", "5..13"], capsys)[0] == 0
    first, rest = out.read_bytes().split(b"\n", 1)
    bad = first + b"\n" + line + b"\n" + rest  # before the tail, not torn
    out.write_bytes(bad)
    code, stdout, err = run_cli(base + ["--primes", "5..29", "--resume"], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: {out}: unreadable record {line!r}\n"
    assert out.read_bytes() == bad


STUB_RECORDS = {
    "jsonl": b'{"check":"zsweep","k":3,"p":5}\n',
    "csv": b"check,k,p,lhs,rhs,pass,skipped,reason,zero,cross\nzsweep,3,5\n",
}


@pytest.mark.parametrize("fmt", STUB_RECORDS)
def test_resume_refuses_a_stub_record(tmp_path, capsys, fmt):
    # a line that names prime 5's record but holds no outcome is not that
    # record: a CSV row of fewer fields than the header, a JSON object
    # without pass and skipped
    out = tmp_path / f"z.{fmt}"
    out.write_bytes(STUB_RECORDS[fmt])
    code, stdout, err = run_cli(["zsweep", "--k", "3", "--primes", "5..11", "--format",
                                 fmt, "--out", str(out), "--resume"], capsys)
    stub = STUB_RECORDS[fmt].splitlines()[-1]
    assert (code, stdout) == (2, "")
    assert err == f"error: {out}: unreadable record {stub!r}\n"
    assert out.read_bytes() == STUB_RECORDS[fmt]


ZSWEEP_HEADER = b"check,k,p,lhs,rhs,pass,skipped,reason,zero,cross\n"
NOT_A_BOOLEAN = {
    "csv-pass": ("csv", ZSWEEP_HEADER + b"zsweep,3,5,2,2,yes,false,,false,ok\n"),
    "csv-zero": ("csv", ZSWEEP_HEADER + b"zsweep,3,5,2,2,true,false,,yes,ok\n"),
    "jsonl-zero-null": ("jsonl", b'{"check":"zsweep","k":3,"p":5,"lhs":"2","rhs":"2",'
                                 b'"pass":true,"skipped":false,"zero":null,"cross":"ok"}\n'),
    "jsonl-zero-text": ("jsonl", b'{"check":"zsweep","k":3,"p":5,"lhs":"2","rhs":"2",'
                                 b'"pass":true,"skipped":false,"zero":"x","cross":"ok"}\n'),
}


@pytest.mark.parametrize("case", NOT_A_BOOLEAN)
def test_resume_refuses_a_flag_that_is_not_a_boolean(tmp_path, capsys, case):
    # pass, skipped and (where given) zero are counted in the summary, so
    # each must read true or false
    fmt, bad = NOT_A_BOOLEAN[case]
    out = tmp_path / f"z.{fmt}"
    out.write_bytes(bad)
    code, stdout, err = run_cli(["zsweep", "--k", "3", "--primes", "5..11", "--format",
                                 fmt, "--out", str(out), "--resume"], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: {out}: unreadable record {bad.splitlines()[-1][:60]!r}\n"
    assert out.read_bytes() == bad


SELF_DISAGREEING = {
    # the sweep, and the edit of its first record that the edit changes:
    # an edited lhs, a flipped pass, a flipped zero, a skipped record that
    # failed, and a degenerate row given a right side
    "lhs": (["verify", "ao,lm", "--kmax", "4", "--primes", "5..29", "--jobs", "1"],
            lambda rec: {"lhs": rec["lhs"] + "1"}),
    "pass": (["verify", "ao,lm", "--kmax", "4", "--primes", "5..29", "--jobs", "1"],
             lambda rec: {"pass": not rec["pass"]}),
    "zero": (["zsweep", "--k", "3", "--primes", "5..29"],
             lambda rec: {"zero": not rec["zero"]}),
    "skipped": (["verify", "ao,lm", "--kmax", "4", "--primes", "2..29", "--jobs", "1"],
                lambda rec: {"pass": False}),
    "degenerate": (["zsweep", "--k", "9", "--primes", "3..31"],
                   lambda rec: {"rhs": rec["lhs"]} if rec.get("cross") == "degenerate" else {}),
}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("case", SELF_DISAGREEING)
def test_resume_refuses_a_record_that_disagrees_with_itself(tmp_path, capsys, case, fmt):
    # a kept record is counted as it reads, so its pass and zero must
    # follow from its sides: a file with one that does not is refused,
    # naming its line, and left as it was, torn tail included
    argv, edit = SELF_DISAGREEING[case]
    out = tmp_path / f"run.{fmt}"
    base = argv + ["--format", fmt, "--out", str(out)]
    assert run_cli(base, capsys)[0] == 0
    whole = out.read_bytes()
    bad = _edit_record(whole, fmt, edit)[:-5]
    lineno = next(i for i, (a, b) in enumerate(zip(whole.split(b"\n"), bad.split(b"\n")), 1)
                  if a != b)
    out.write_bytes(bad)
    code, stdout, err = run_cli(base + ["--resume"], capsys)
    assert (code, stdout) == (2, "")
    assert err == (f"error: {out}: line {lineno} disagrees with itself: its pass or zero "
                   f"does not follow from its lhs and rhs\n")
    assert out.read_bytes() == bad


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_jobs_are_checked_before_the_resume_scan(tmp_path, capsys, fmt):
    # the scan cuts a torn tail, so a usage error must come before it
    out = tmp_path / f"v.{fmt}"
    argv = ["verify", "ao", "--kmax", "3", "--primes", "5..13", "--format", fmt,
            "--out", str(out)]
    assert run_cli(argv + ["--jobs", "1"], capsys)[0] == 0
    torn = out.read_bytes()[:-5]
    out.write_bytes(torn)
    code, stdout, err = run_cli(argv + ["--resume", "--jobs", "0"], capsys)
    assert (code, stdout, err) == (2, "", "error: --jobs must be >= 1, got 0\n")
    assert out.read_bytes() == torn


def test_cli_imports_only_the_standard_library(tmp_path):
    # fmzv has no runtime dependency: a CLI run in a fresh interpreter
    # imports nothing beyond the standard library and fmzv itself.
    # multiprocessing is imported only where `verify` starts a pool, so a
    # zsweep runs without it; a pool then writes the bytes of --jobs 1
    # (multiprocessing registers __main__ again as __mp_main__).  Nor does
    # a run import dataclasses or inspect, which cost start-up time, and
    # only `symbolic` loads the exact-arithmetic layer
    src = os.path.dirname(os.path.dirname(fmzv.__file__))
    outs = [tmp_path / f"jobs{jobs}.jsonl" for jobs in (1, 2)]
    verify = ["verify", "ao,lm", "--kmax", "6", "--primes", "5..61"]
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from fmzv.cli import main\n"
            "assert main(['zsweep', '--k', '3', '--primes', '5..200']) == 0\n"
            "assert 'multiprocessing' not in sys.modules\n"
            f"assert main({verify + ['--jobs', '1', '--out', str(outs[0])]!r}) == 0\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "slow = {'dataclasses', 'inspect'} & (set(sys.modules) - before)\n"
            "assert not slow, sorted(slow)\n"
            f"assert main({verify + ['--jobs', '2', '--out', str(outs[1])]!r}) == 0\n"
            "assert 'multiprocessing' in sys.modules\n"
            "exact = {'fmzv.symbolic', 'fmzv.polys', 'fractions', 'decimal'}\n"
            "assert not exact & set(sys.modules), sorted(exact & set(sys.modules))\n"
            "assert main(['symbolic', 'anl', '--nmax', '2']) == 0\n"
            "assert 'fmzv.symbolic' in sys.modules\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "extra = new - set(sys.stdlib_module_names) - {'fmzv', '__mp_main__'}\n"
            "assert not extra, sorted(extra)\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # one record per prime in 5..200, then anl's records to n = 2
    assert proc.stdout.count("\n") == 44 + 3
    jobs1 = outs[0].read_bytes()
    assert jobs1.count(b"\n") > 100 and outs[1].read_bytes() == jobs1


def _fake_pool(monkeypatch) -> list:
    """Replace the process pool with one that starts no process and runs
    its shards in order; each pool appends (max_workers, shards) to the
    list returned."""
    import concurrent.futures

    seen = []

    class ProcessPoolExecutor:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

        def map(self, func, shards):
            shards = list(shards)
            seen.append((self.max_workers, len(shards)))
            return map(func, shards)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ProcessPoolExecutor)
    return seen


@pytest.mark.parametrize("argv", [
    ["verify", "ao,lm,lemma,heightsum", "--kmax", "10", "--primes", "5..151"],
    ["verify", "antipode,reversal", "--wmax", "3", "--primes", "5..151"],
])
def test_verify_pool_is_capped_at_its_shards(argv, capsys, monkeypatch):
    # --jobs 500 on the 34 primes of 5..151 asks for no more workers than
    # there are shards
    code, want, _ = run_cli(argv + ["--jobs", "1"], capsys)
    assert code == 0
    seen = _fake_pool(monkeypatch)
    code, out, _ = run_cli(argv + ["--jobs", "500"], capsys)
    assert code == 0 and out == want
    [(max_workers, shards)] = seen
    assert max_workers <= shards == 34


def test_jobs_default_to_the_core_count(capsys, monkeypatch):
    # with no --jobs, verify starts one worker per core it may run on and
    # cuts the primes as that --jobs does (5..400 into four blocks for four
    # cores); pinned to one of four cores it starts no pool, and where the
    # platform gives no affinity it counts the machine's cores, running in
    # one process where that count is unknown; the bytes are CI's pin
    argv = ["verify", "ao,lm", "--kmax", "12", "--primes", "5..400"]
    seen = _fake_pool(monkeypatch)
    for affinity, cores, pools in (({0, 1, 2, 3}, 4, [(4, 4)]), ({0}, 4, []),
                                   (None, 4, [(4, 4)]), (None, None, [])):
        seen.clear()
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=affinity: cpus,
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        code, out, _ = run_cli(argv, capsys)
        assert (code, seen) == (0, pools), (affinity, cores)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fb50208151b4bace7fd28eed0b256612ed7c1029fc89e634c48a703ef74af4fd")


KILLER = '''\
import os
import signal

from fmzv import cli

pool_worker = cli._pool_worker


def kill_at_31(shard):
    # the worker that draws the shard of 31 dies as an out-of-memory kill would
    if 31 in shard[0]:
        os.kill(os.getpid(), signal.SIGKILL)
    return pool_worker(shard)
'''


def test_verify_stops_when_a_pool_worker_is_lost(tmp_path, capsys):
    # a worker killed on one shard breaks the pool of two: the run stops
    # within the timeout, never hangs, with exit 3 and one stderr line that
    # names the last whole prime; the file holds whole primes only, and
    # --resume then writes the bytes of an uninterrupted run
    (tmp_path / "killer.py").write_text(KILLER)
    out = tmp_path / "v.jsonl"
    argv = ["verify", "antipode", "--wmax", "3", "--primes", "5..61", "--out", str(out)]
    code = ("import sys\n"
            "import killer\n"
            "from fmzv import cli\n"
            "cli._pool_worker = killer.kill_at_31\n"
            f"sys.exit(cli.main({argv + ['--jobs', '2']!r}))\n")
    src = os.path.dirname(os.path.dirname(fmzv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tmp_path)]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == cli.EXIT_WORKER_LOST == 3, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: a worker process was lost; the records are whole "), line
    lines = out.read_text().splitlines()
    per_prime = 7  # the indices of weight <= 3
    assert len(lines) % per_prime == 0
    primes = [json.loads(rec)["p"] for rec in lines]
    if primes:
        assert f"up to p = {primes[-1]}," in line and primes[-1] < 31
        assert primes == [p for p in primes_in_range(5, primes[-1]) for _ in range(per_prime)]
    else:
        assert "below p = 5," in line
    assert run_cli(argv + ["--jobs", "2", "--resume"], capsys)[0] == 0
    whole = tmp_path / "whole.jsonl"
    assert run_cli(["verify", "antipode", "--wmax", "3", "--primes", "5..61", "--jobs", "1",
                    "--out", str(whole)], capsys)[0] == 0
    assert out.read_bytes() == whole.read_bytes()
