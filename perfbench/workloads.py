"""The benchmark's workloads and the child-process runner that drives them.

Every workload is a closed loop with one client: the command lines of one
iteration run back to back through the real ``fmzv`` CLI, each one spawned
only after the previous one exited.  The benchmark seed picks one of a few
variants of each workload; the CLI only ever sees the generated argv.

* ``family``, ``index`` and ``zeta`` shift their prime window by a seeded
  offset.  Each offset drops one more of the bottom primes, so every variant
  has its own prime set, and all stop short of the next prime above the
  window, so the costly top primes are the same for every seed and the work
  stays steady.
* ``symbolic`` feeds the seed into the two seeded suites (gauss, hypcong).

Seed 0 is the default: it runs the canonical command lines unshifted, with
the CLI's own default suite seeds (42 for gauss, 7 for hypcong).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

# Exit code of every workload command: all records pass.
EXPECTED_EXIT = 0
# A child that runs longer than this is killed and its run counts as failed.
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str  # the subcommand whose ``--help`` run measures set-up
    variants: int
    # variant -> the fmzv argv of each command of one iteration, in order
    commands: Callable[[int], list[list[str]]]


# Window offsets of the prime-sweep workloads, one per variant.  151 -> 157
# and 2500 -> 2503 are the prime gaps above the windows; below them, the
# offsets drop the bottom primes 5; 5, 7 (family), 11; 11, 13 (index) and 5
# (zeta).
FAMILY_OFFSETS = (0, 1, 3)
INDEX_OFFSETS = (0, 1, 3)
ZETA_OFFSETS = (0, 1)


def _family(v):
    d = FAMILY_OFFSETS[v]
    return [["verify", "ao,lm,lemma,heightsum", "--kmax", "10",
             "--primes", f"{5 + d}..{151 + d}", "--jobs", "1"]]


def _index(v):
    d = INDEX_OFFSETS[v]
    return [["verify", "antipode,reversal", "--wmax", "8",
             "--primes", f"{11 + d}..{151 + d}", "--jobs", "1"]]


def _zeta(v):
    d = ZETA_OFFSETS[v]
    return [["zsweep", "--k", "3", "--primes", f"{5 + d}..{2500 + d}"]]


def _symbolic(d):
    return [["symbolic", "phi0", "--nmax", "8", "--kmax", "10"],
            ["symbolic", "hypcong", "--prime", "61", "--seed", str(7 + d)],
            ["symbolic", "gauss", "--mmax", "12", "--pairs", "40", "--seed", str(42 + d)],
            ["symbolic", "anl", "--nmax", "8"]]


WORKLOADS = {w.name: w for w in (
    Workload("family",
             "family-sum engine: ~2^k index enumeration per (k, s), many memo "
             "hits, one small Bernoulli table per prime read many times, few records",
             "verify", len(FAMILY_OFFSETS), _family),
    Workload("index",
             "per-index mhs_strict/mhs_star with no memo reuse and no Bernoulli "
             "work; 4x the records of family, so sorting, parsing and emission weigh most",
             "verify", len(INDEX_OFFSETS), _index),
    Workload("zeta",
             "zsweep to p=2500: one O(p^2) Bernoulli table per prime read once, "
             "factorials and the alternating sum; no harmonic work; highest memory",
             "zsweep", len(ZETA_OFFSETS), _zeta),
    Workload("symbolic",
             "the four exact suites (phi0, hypcong, gauss, anl): the only load on "
             "polys and symbolic, Fraction and F_p[z] arithmetic",
             "symbolic", 8, _symbolic),
)}

DEFAULT_SEED = 0


def variant_for_seed(workload: Workload, seed: int) -> int:
    return seed % workload.variants


def child_env() -> dict:
    """Environment of a CLI child: the package comes from ``src`` of the checkout.

    fmzv calls no BLAS routine, but numpy's OpenBLAS starts a thread per core
    at import; on a small shared host those threads compete with the measured
    process and made the set-up time swing, so they are held to one.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("FMZV_JOBS", None)
    return env


@dataclass
class ChildResult:
    argv: list[str]
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_mb: float
    # durations of the speed probe's calibration passes (empty without probe)
    probe: list[float]


# The calibration pass's duration that counts as the reference speed: about
# its trimmed mean on the 2-core Xeon host of baseline.json, so that scaled
# times there read close to wall times.
REFERENCE_PASS_S = 450e-6
# Share of the probe samples cut off at each end before averaging.
PROBE_TRIM = 0.1
SPEEDPROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "speedprobe.py")


def trimmed_mean(values: list[float], trim: float = PROBE_TRIM) -> float:
    values = sorted(values)
    cut = int(len(values) * trim)
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


def scaled_seconds(result: ChildResult) -> float:
    """The child's wall time at the reference speed.

    The calibration passes are taken out of the wall time, and the rest is
    scaled by REFERENCE_PASS_S over the trimmed mean of the pass durations:
    a core running at two thirds of the reference speed makes both the
    command and the pass take 1.5 times as long.
    """
    if not result.probe:
        raise RuntimeError(f"fmzv {' '.join(result.argv)}: no speed probe samples")
    own = result.wall_s - sum(result.probe)
    return own * REFERENCE_PASS_S / trimmed_mean(result.probe)


def run_cli(argv: list[str], env: dict, probe: bool = False) -> ChildResult:
    """Run ``python -m fmzv argv`` and time it from spawn to exit.

    The child is reaped with ``wait4`` so its own peak resident memory comes
    with it.  A watchdog kills a child that outlives CHILD_TIMEOUT_S.  With
    ``probe`` the CLI runs under ``speedprobe.py``, whose samples come back
    through a pipe.
    """
    probe_fds = os.pipe() if probe else None
    start = time.perf_counter()
    try:
        if probe:
            head = [sys.executable, SPEEDPROBE, str(probe_fds[1])]
        else:
            head = [sys.executable, "-m", "fmzv"]
        proc = subprocess.Popen([*head, *argv], env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                pass_fds=probe_fds[1:] if probe else ())
    finally:
        if probe:
            os.close(probe_fds[1])
    lock = threading.Lock()
    exited = False

    def kill():
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
    watchdog.start()
    err_chunks: list[bytes] = []
    err_reader = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    err_reader.start()
    probe_chunks: list[bytes] = []
    if probe:
        probe_file = os.fdopen(probe_fds[0], "rb")
        probe_reader = threading.Thread(target=lambda: probe_chunks.append(probe_file.read()))
        probe_reader.start()
    try:
        out = proc.stdout.read()
        # Wait without reaping, so the watchdog can never hit a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            exited = True
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        with lock:
            exited = True
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        err_reader.join()
        proc.stdout.close()
        proc.stderr.close()
        if probe:
            probe_reader.join()
            probe_file.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    samples = [float(line) for line in b"".join(probe_chunks).split()]
    return ChildResult(argv, proc.returncode, out, b"".join(err_chunks), wall,
                       usage.ru_maxrss / 1024.0, samples)
