#!/usr/bin/env python3
"""Runs one experiment of iaa_experiments and checks its gate.

Usage:
    experiment_gates.py path/to/iaa_experiments NAME OUTDIR

The experiment runs at IAA_BENCH_SCALE=0.05 with OUTDIR (emptied first) as
its working directory, so BENCH_<NAME>.json lands there. The gate then
loads that file and asserts its bound; exit 0 on pass, 1 on a failed bound
or a failed run, 2 on bad usage.
"""

import json
import os
import shutil
import subprocess
import sys


def rows_of(name):
    with open("BENCH_%s.json" % name) as f:
        return json.load(f)["rows"]


def gate_parses(name):
    rows_of(name)


def gate_locality(name):
    rows = rows_of(name)
    assert all(r["checksum_ok"] for r in rows), rows
    by = {(r["mode"], r["threads"]): r["worker_lines"] for r in rows}
    assert by[("reorder", 4)] < by[("off", 4)], by


def gate_recurrence(name):
    summaries = [r for r in rows_of(name) if r["kind"] == "summary"]
    assert sum(r["promoted_loops"] for r in summaries) > 0, summaries
    assert all(r["checksum_ok"] for r in summaries), summaries


def gate_vm(name):
    rows = rows_of(name)
    assert all(r["checksum_ok"] for r in rows), rows
    # The VM must not lose to the tree walk on any kernel it actually
    # compiled (a bailed-out loop runs the tree walk under both engines, so
    # its ratio is timing noise around 1.0).
    bad = [r for r in rows if r["vm_bailouts"] == 0 and r["speedup"] < 1.0]
    assert not bad, bad
    # TREE's array-stack while must compile, so the bound above covers it
    # instead of exempting it as a bailout.
    tree = next(r for r in rows if r["kernel"] == "TREE")
    assert tree["vm_bailouts"] == 0, tree
    assert max(r["speedup"] for r in rows) >= 2.0, rows


GATES = {
    "runtime_check": gate_parses,
    "profile": gate_parses,
    "locality": gate_locality,
    "recurrence": gate_recurrence,
    "vm": gate_vm,
}


def main(argv):
    if len(argv) != 4 or argv[2] not in GATES:
        sys.stderr.write("usage: experiment_gates.py BINARY {%s} OUTDIR\n"
                         % "|".join(sorted(GATES)))
        return 2
    binary, name, outdir = os.path.abspath(argv[1]), argv[2], argv[3]
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    env = dict(os.environ, IAA_BENCH_SCALE="0.05")
    if subprocess.call([binary, name], cwd=outdir, env=env) != 0:
        sys.stderr.write("iaa_experiments %s failed\n" % name)
        return 1
    os.chdir(outdir)
    try:
        GATES[name](name)
    except AssertionError as e:
        sys.stderr.write("gate %s failed: %s\n" % (name, e))
        return 1
    print("gate %s passed" % name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
