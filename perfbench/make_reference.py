"""Rebuild ``reference.json``: the sha256 and record count of every command
of every workload variant.

    python3 perfbench/make_reference.py

Run from the root of a checkout of the commit whose output bytes are the
reference.  The output of a later commit must hash the same; regenerate only
when a change to the records is intended and reviewed.
"""

from __future__ import annotations

import json
import subprocess
import sys

from checks import REFERENCE_PATH, sha256
from workloads import EXPECTED_EXIT, WORKLOADS, child_env, run_cli


def main() -> int:
    env = child_env()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or "unknown"
    out = {"commit": commit, "workloads": {}}
    for name, workload in WORKLOADS.items():
        variants = []
        for variant in range(workload.variants):
            entries = []
            for argv in workload.commands(variant):
                result = run_cli(argv, env)
                if result.exit_code != EXPECTED_EXIT:
                    print(f"error: fmzv {' '.join(argv)} exited with {result.exit_code}",
                          file=sys.stderr)
                    return 1
                entries.append({"command": " ".join(argv), "sha256": sha256(result.stdout),
                                "records": result.stdout.count(b"\n")})
                print(f"{name}[{variant}] {' '.join(argv)}: {entries[-1]['records']} records",
                      file=sys.stderr)
            variants.append(entries)
        out["workloads"][name] = variants
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
