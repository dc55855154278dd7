"""Run the fmzv CLI as ``python -m fmzv`` would, with a host-speed probe.

    python3 perfbench/speedprobe.py FD ARGV...

The cores of a shared host run at a speed that changes from second to
second with what the other tenants do, so the same command can take 30 %
longer on one run than on the next.  To take that out of the timings, a
SIGALRM handler runs one pass of ``calibration`` every TICK_S of real time,
inside the CLI's own process and so on the same core at the same moments,
and records how long the pass took.  The pass is fixed pure-Python work
whose data fit in the L1 cache, so its duration follows the core's speed and
not the program's working set.  At exit the durations, in seconds, go to the
inherited file descriptor FD, one per line.  ``workloads.scaled_seconds``
turns them into the speed correction.

The pass costs about 2 % of the run.  The probe cannot see changes that slow
every bytecode of the process alike (another thread holding the GIL, a trace
function); the timed commands run single-threaded with ``--jobs 1``.
"""

import atexit
import os
import runpy
import signal
import sys
import time

TICK_S = 0.02

_P = 61
_ROWS = [[pow(m, -k, _P) for m in range(1, _P)] for k in range(1, 7)]
_KEYS = [(i, i * 7 % 13) for i in range(64)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def calibration() -> int:
    """A fixed pass of modular suffix sums and tuple-keyed dict reads."""
    state = [0] * 6 + [1]
    for _ in range(4):
        for m in range(1, _P):
            for j in range(6):
                state[j] = (state[j] + _ROWS[j][m - 1] * state[j + 1]) % _P
    total = 0
    for _ in range(8):
        for key in _KEYS:
            total += _TABLE[key] + len(str(total & 1023))
    return state[0] + total


def main() -> None:
    fd = int(sys.argv[1])
    samples: list[float] = []
    clock = time.perf_counter

    def tick(signum, frame):
        start = clock()
        calibration()
        samples.append(clock() - start)

    def report():
        signal.setitimer(signal.ITIMER_REAL, 0)
        with os.fdopen(fd, "w") as out:
            out.write("".join(f"{s!r}\n" for s in samples))

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    atexit.register(report)
    # What ``python -m fmzv`` would see: the working directory first on the
    # path, and the CLI arguments after the program name.
    sys.path[0] = os.getcwd()
    del sys.argv[:2]
    sys.argv.insert(0, "fmzv")
    runpy.run_module("fmzv", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
