#!/usr/bin/env python3
"""Proves each output check of the benchmark can fail.

    python3 ebench/selftest.py

For every check it runs a short benchmark with one client tally or one
check input falsified (run.py --corrupt NAME) and requires the run to report
incorrect outputs and exit non-zero; an unaltered run of each workload must
pass. Exits 0 when every case behaves so.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# (workload, corruption or None, text the failure must mention)
CASES = [
    ("tpcc", None, None),
    ("tpcc", "payment", "committed payments"),
    ("tpcc", "neworder", "committed NewOrders"),
    ("tpcc", "digest", "digest of warehouse"),
    ("ycsb", None, None),
    ("ycsb", "transfer", "not conserved"),
    ("ycsb", "checksum", "checksum is wrong"),
    ("ycsb", "digest", "digest of usertable"),
]


def main():
    ok = True
    for workload, corrupt, expect in CASES:
        cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
               "--seconds", "1"]
        if corrupt:
            cmd += ["--corrupt", corrupt]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if corrupt is None:
            good = (out.returncode == 0 and result is not None and
                    result["correct"])
        else:
            good = (out.returncode == 1 and result is not None and
                    not result["correct"] and
                    any(expect in l for l in lines if l.startswith("# INCORRECT")))
        ok &= good
        print("%-4s %-6s %-9s exit=%d correct=%s" % (
            "ok" if good else "FAIL", workload, corrupt or "(none)",
            out.returncode, None if result is None else result["correct"]))
        for l in lines:
            if l.startswith("# INCORRECT"):
                print("       " + l[2:])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
