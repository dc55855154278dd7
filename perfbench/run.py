"""Run one fmzv benchmark workload and print its metrics.

    python3 perfbench/run.py --workload family --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The package is used from ``src`` as it
stands; there is nothing to build.

``--trace 0`` measures the end-to-end metrics with tracing off: each command
of the workload runs as a child process of the real CLI, one after the
other, in a closed loop for ``--seconds``.  Each child runs under
``speedprobe.py``, and its time is reported at the reference speed: its wall
time, less the probe's own passes, scaled by how much slower or faster than
the reference the probe found the core during that child's run (see
``workloads.scaled_seconds``).  On a shared host this takes most of the
other tenants' load out of the figures; the raw wall times are printed too.

* ``wall_s``: spawn of each command to its exit at the reference speed,
  summed over the commands of an iteration, median over the iterations.
* ``setup_s``: the same for the workload's subcommand run with ``--help``
  (interpreter, imports, argument parsing), median over all its runs.  A few
  of these runs go before every iteration, so the samples cover the whole
  run as the ``wall_s`` samples do.
* ``peak_rss_mb``: the largest child peak resident memory of an iteration,
  from ``wait4``, median over the iterations.

``--trace 1`` gives the per-layer metrics of ``tracing.PER_LAYER`` instead.
It runs the same commands in this process through ``fmzv.cli.main``,
alternating untraced and traced passes for ``--seconds``, and reports the
median of each metric over the traced passes.  ``cli.pool_speedup`` is the
median ratio of the wall time of the ``index`` command at ``--jobs 1`` over
``--jobs 2``, measured from outside on the ``index`` workload only (0 on the
others).  The spans of the last traced pass are written to
``perfbench/out/trace-<workload>.json``.

Every output is checked (see ``checks.py``).  The last line of stdout is one
JSON object: ``correct``, ``attempted`` and ``failed`` count records, and
``metrics`` maps each metric name to its value and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time

import checks
from checks import Checker, Tally
from tracing import PER_LAYER, Package, Tracer, layer_metrics, median_metrics
from workloads import (REFERENCE_PASS_S, WORKLOADS, child_env, run_cli, scaled_seconds,
                       trimmed_mean, variant_for_seed)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# --help runs before every timed iteration, and --jobs 1 / --jobs 2 pairs
# behind cli.pool_speedup.
SETUP_RUNS_PER_ITERATION = 5
POOL_PAIRS = 3
HERE = os.path.dirname(os.path.abspath(__file__))


def timed_run(workload, commands, expected, seconds, checker, tally):
    env = child_env()
    help_argv = [workload.subcommand, "--help"]
    run_cli(help_argv, env, probe=True)  # writes the bytecode caches; not timed
    setup, walls, rss, iterations = [], [], [], []
    raw_setup, raw_walls, probe = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(SETUP_RUNS_PER_ITERATION):
            result = run_cli(help_argv, env, probe=True)
            if result.exit_code != 0:
                raise RuntimeError(f"{' '.join(help_argv)} exited with {result.exit_code}: "
                                   f"{result.stderr.decode(errors='replace')}")
            setup.append(scaled_seconds(result))
            raw_setup.append(result.wall_s)
        iteration = [run_cli(argv, env, probe=True) for argv in commands]
        probe.extend(s for r in iteration for s in r.probe)
        walls.append(sum(scaled_seconds(r) for r in iteration))
        raw_walls.append(sum(r.wall_s for r in iteration))
        rss.append(max(r.peak_rss_mb for r in iteration))
        iterations.append(iteration)
        if time.perf_counter() >= deadline:
            break

    for iteration in iterations:
        for result, exp in zip(iteration, expected):
            checker.check(tally, " ".join(result.argv), result.exit_code, result.stdout, exp)
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(rss)}
    notes = [f"wall_s samples: {len(walls)}, from {min(walls):.4f} to {max(walls):.4f} s",
             f"setup_s samples: {len(setup)}, from {min(setup):.4f} to {max(setup):.4f} s",
             f"raw wall time: median {statistics.median(raw_walls):.4f} s, "
             f"from {min(raw_walls):.4f} to {max(raw_walls):.4f} s",
             f"raw setup time: median {statistics.median(raw_setup):.4f} s",
             f"speed probe pass: trimmed mean {trimmed_mean(probe) * 1e6:.1f} us "
             f"over {len(probe)} samples (reference {REFERENCE_PASS_S * 1e6:.0f} us)"]
    return metrics, notes


def pool_speedup(commands, expected, checker, tally):
    """Median over POOL_PAIRS of the index command's wall time at --jobs 1 over
    --jobs 2, from outside; the order within a pair alternates."""
    (argv,), (exp,) = commands, expected
    jobs_at = argv.index("--jobs") + 1
    env = child_env()
    ratios = []
    for pair in range(POOL_PAIRS):
        wall = {}
        for jobs in ("1", "2") if pair % 2 == 0 else ("2", "1"):
            result = run_cli(argv[:jobs_at] + [jobs] + argv[jobs_at + 1:], env)
            checker.check(tally, " ".join(result.argv), result.exit_code, result.stdout, exp)
            wall[jobs] = result.wall_s
        ratios.append(wall["1"] / wall["2"])
    return statistics.median(ratios)


def _in_process_pass(package, commands, tracer=None):
    """Run the commands once through fmzv.cli.main: (seconds, outputs, contexts built)."""
    seconds = ctx_built = 0
    outs = []
    with tracer.install() if tracer else contextlib.nullcontext():
        for argv in commands:
            code, out, in_main, built = package.run_cli(argv, tracer)
            outs.append((code, out))
            seconds += in_main
            ctx_built += built
    return seconds, outs, ctx_built


def traced_run(workload, commands, expected, seconds, checker, tally):
    speedup = (pool_speedup(commands, expected, checker, tally)
               if workload.name == "index" else 0.0)
    package = Package()
    untraced_s, traced_s, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer(package.modules)
        if len(passes) % 2 == 0:  # alternate which side runs first
            plain = _in_process_pass(package, commands)
            traced = _in_process_pass(package, commands, tracer)
        else:
            traced = _in_process_pass(package, commands, tracer)
            plain = _in_process_pass(package, commands)
        untraced_s.append(plain[0])
        traced_s.append(traced[0])
        outs = [out for _, out in traced[1]]
        passes.append(layer_metrics(tracer.aggregate(), tracer,
                                    records=sum(o.count(b"\n") for o in outs),
                                    bytes_out=sum(len(o) for o in outs), ctx_built=traced[2]))
        for argv, exp, (code, out), (_, plain_out) in zip(commands, expected, traced[1], plain[1]):
            label = " ".join(argv) + " (in process)"
            if out != plain_out:
                tally.add(exp["records"], exp["records"],
                          f"{label}: traced output differs from the untraced output")
            else:
                checker.check(tally, label, code, out, exp)
        if time.perf_counter() >= deadline:
            break

    metrics = median_metrics(passes)
    metrics["cli.pool_speedup"] = speedup
    # Paired within each pass pair, so a drift of the host's speed between
    # pairs cancels.
    metrics["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced_s, untraced_s))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"trace-{workload.name}.json"), "w") as handle:
        json.dump(tracer.dump(), handle, separators=(",", ":"))
    notes = [f"traced passes: {len(passes)}",
             f"cli.main untraced median: {statistics.median(untraced_s):.4f} s"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in (os.path.join("src", "fmzv", "cli.py"), os.path.join("tests", "oracles.py")):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from the root of an fmzv checkout",
                  file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    variant = variant_for_seed(workload, args.seed)
    commands = workload.commands(variant)
    reference = checks.load_reference()
    expected = checks.reference_for(reference, workload.name, variant)
    if [e["command"] for e in expected] != [" ".join(argv) for argv in commands]:
        print(f"error: reference.json does not match the {workload.name} commands",
              file=sys.stderr)
        return 2
    checker = Checker(checks.load_oracles(), args.seed)
    tally = Tally()
    if args.trace:
        values, notes = traced_run(workload, commands, expected, args.seconds, checker,
                                   tally)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values, notes = timed_run(workload, commands, expected, args.seconds, checker, tally)
        units = END_TO_END

    print(f"workload {workload.name}, variant {variant} (seed {args.seed})")
    for argv in commands:
        print("  fmzv " + " ".join(argv))
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    for note in notes:
        print(note)
    print(f"fail_share = {tally.failed}/{tally.attempted}")
    for problem in tally.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
