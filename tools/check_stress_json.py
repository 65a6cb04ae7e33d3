#!/usr/bin/env python3
"""Validates `cbtree stress --metrics=json` output.

Usage: check_stress_json.py <cbtree-binary> [extra stress flags...]

Runs the stress subcommand, parses its stdout as JSON, and checks the
contract the observability layer promises: well-formed counts and per-level
latch telemetry with wait timers (every level ascending, contended <=
acquisitions, wait.count == contended).
"""

import json
import subprocess
import sys


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) < 2:
        fail("usage: check_stress_json.py <cbtree-binary> [flags...]")
    cmd = [sys.argv[1], "stress", "--metrics=json"] + sys.argv[2:]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    try:
        report = json.loads(out.stdout)
    except json.JSONDecodeError as err:
        fail(f"stdout is not valid JSON: {err}\n{out.stdout[:500]}")

    if report.get("kind") != "stress":
        fail(f"kind != stress: {report.get('kind')}")
    for key in ("algorithm", "threads", "ops", "wall_seconds",
                "throughput_ops_per_sec", "counts", "latch_levels"):
        if key not in report:
            fail(f"missing key '{key}'")
    counts = report["counts"]
    for key in ("size", "splits", "root_splits", "restarts",
                "link_crossings"):
        if not isinstance(counts.get(key), int) or counts[key] < 0:
            fail(f"counts.{key} missing or negative: {counts.get(key)}")

    levels = report["latch_levels"]
    if not levels:
        fail("latch_levels is empty (built with CBTREE_OBS=OFF? olc, which "
             "takes no node latches, reports none either)")
    seen = []
    for level in levels:
        seen.append(level["level"])
        for side in ("shared", "exclusive"):
            stats = level[side]
            acq, contended = stats["acquisitions"], stats["contended"]
            if contended > acq:
                fail(f"level {level['level']} {side}: "
                     f"contended {contended} > acquisitions {acq}")
            wait = stats["wait"]
            for key in ("count", "total_ns", "max_ns", "mean_ns", "p50_ns",
                        "p99_ns"):
                if key not in wait:
                    fail(f"wait timer missing '{key}'")
            if wait["count"] != contended:
                fail(f"level {level['level']} {side}: wait.count "
                     f"{wait['count']} != contended {contended}")
            if wait["max_ns"] < wait["p99_ns"] - 1e-6:
                fail(f"level {level['level']} {side}: p99 above max")
    if seen != sorted(seen):
        fail(f"latch_levels not ascending: {seen}")
    if seen[0] != 1:
        fail(f"leaf level missing from telemetry: {seen}")
    total_acq = sum(level[side]["acquisitions"]
                    for level in levels for side in ("shared", "exclusive"))
    if report["ops"] > 0 and total_acq == 0:
        fail("no latch acquisitions recorded for a non-empty run")
    print(f"OK: {report['algorithm']} ops={report['ops']} "
          f"levels={seen} acquisitions={total_acq}")


if __name__ == "__main__":
    main()
