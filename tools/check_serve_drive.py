#!/usr/bin/env python3
"""End-to-end loopback smoke test: `cbtree serve` + `cbtree drive`.

Usage: check_serve_drive.py <cbtree-binary> [--protocol=...] [--lambda=...]
           [--shards=N] [--loops=N] [--qs=..] [--qi=..] [--qd=..] [--wal]

Starts a server on an ephemeral port, waits for its "listening on" line,
runs the open-loop driver against it with --json, then SIGINTs the server
and checks both sides:

  * drive exits 0 and its JSON is SimPoint-shape-compatible (kind "drive",
    stats with resp_p50/p95/p99, counts with completed) with zero lost
    requests: sent == completed + rejected, errors == unanswered == 0;
  * serve drains gracefully on SIGINT: exits 0 and its final report agrees
    with the driver on the number of completed requests.

--wal serves write-ahead logged (a temporary --wal_dir, --fsync=data,
--group_commit_us=200, --recovery=none) and adds the group-commit gate on
the serve report's wal line: with at least 1000 appends, appends/fsyncs must
be at least 2. The logged 5000-item preload dominates that count, so the
gate guards the preload's grouping, not the serving writes': the
canonical olc campaign (2 shards, 2 loops, lambda=1200, 2 s) logs about
6400 appends in 1300 fsyncs (4.8x), and the same campaign with --items=0
about 1500 appends in 1450 fsyncs (1.03x). Amortizing serving writes is
ROADMAP item 2.
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import time

WAL_REPORT_RE = re.compile(
    r"wal\s+(\d+) appends in (\d+) groups \((\d+) fsyncs")


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_group_commit(serve_report):
    """The group-commit gate (see the module docstring): at least 2 appends
    per fsync once 1000 appends were logged. The preload's appends dominate
    the count."""
    match = WAL_REPORT_RE.search(serve_report)
    if not match:
        fail(f"--wal run but serve printed no wal line:\n{serve_report}")
    appends, groups, fsyncs = (int(value) for value in match.groups())
    amortization = appends / max(fsyncs, 1)
    if appends >= 1000 and amortization < 2.0:
        fail(f"group commit not amortizing: {appends} appends took {fsyncs} "
             f"fsyncs ({amortization:.2f}x < 2x); the logged preload's "
             f"appends are counted and normally dominate")
    print(f"OK: wal {appends} appends in {groups} groups, {fsyncs} fsyncs "
          f"({amortization:.1f}x; preload included)")


def main():
    if len(sys.argv) < 2:
        fail("usage: check_serve_drive.py <cbtree-binary> [flags...]")
    binary = sys.argv[1]
    extra = sys.argv[2:]
    protocol = "blink"
    lam = "1500"
    shards = "1"
    loops = "1"
    mix = []  # extra --qs/--qi/--qd flags forwarded to drive
    wal = "--wal" in extra
    for flag in extra:
        if flag.startswith("--protocol="):
            protocol = flag.split("=", 1)[1]
        if flag.startswith("--lambda="):
            lam = flag.split("=", 1)[1]
        if flag.startswith("--shards="):
            shards = flag.split("=", 1)[1]
        if flag.startswith("--loops="):
            loops = flag.split("=", 1)[1]
        if flag.startswith(("--qs=", "--qi=", "--qd=")):
            mix.append(flag)

    serve_args = [binary, "serve", f"--protocol={protocol}", "--port=0",
                  "--items=5000", "--workers=4", f"--shards={shards}",
                  f"--loops={loops}"]
    wal_dir = None
    if wal:
        wal_dir = tempfile.TemporaryDirectory(prefix="cbtree_serve_drive_")
        serve_args += [f"--wal_dir={wal_dir.name}", "--fsync=data",
                       "--group_commit_us=200", "--recovery=none"]
    serve = subprocess.Popen(serve_args, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
    try:
        # Readiness handshake: serve prints "listening on HOST:PORT" once
        # the socket is bound.
        port = None
        deadline = time.time() + 10
        lines = []
        while time.time() < deadline:
            line = serve.stdout.readline()
            if not line:
                break
            lines.append(line)
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            serve.kill()
            fail(f"serve never printed its port:\n{''.join(lines)}")

        drive = subprocess.run(
            [binary, "drive", f"--port={port}", f"--lambda={lam}",
             "--duration=2s", "--connections=4", "--items=5000",
             "--zipf=0.4", f"--shards={shards}", "--json"] + mix,
            capture_output=True, text=True, timeout=60)
        if drive.returncode != 0:
            serve.kill()
            fail(f"drive exited {drive.returncode}:\n{drive.stdout}\n"
                 f"{drive.stderr}")
        try:
            report = json.loads(drive.stdout)
        except json.JSONDecodeError as err:
            serve.kill()
            fail(f"drive stdout is not JSON: {err}\n{drive.stdout[:500]}")

        if report.get("kind") != "drive":
            fail(f"kind != drive: {report.get('kind')}")
        if not report.get("ok"):
            fail(f"drive report not ok: {drive.stdout}")
        stats = report.get("stats", {})
        for key in ("completed", "sent", "rejected", "errors", "unanswered",
                    "resp_p50", "resp_p95", "resp_p99", "mean_active_ops",
                    "achieved_throughput"):
            if key not in stats:
                fail(f"stats missing '{key}': {stats}")
        # The acceptance invariant: zero lost requests.
        if stats["errors"] != 0 or stats["unanswered"] != 0:
            fail(f"lossy run: {stats}")
        if stats["sent"] != stats["completed"] + stats["rejected"]:
            fail(f"sent != completed + rejected: {stats}")
        if stats["sent"] == 0:
            fail("driver sent nothing")
        if not (stats["resp_p50"] <= stats["resp_p95"] <= stats["resp_p99"]):
            fail(f"percentiles not monotone: {stats}")
        # Per-shard occupancy must fold back to the totals exactly.
        if sum(stats.get("shard_sent", [])) != stats["sent"]:
            fail(f"shard_sent does not sum to sent: {stats}")
        if sum(stats.get("shard_completed", [])) != stats["completed"]:
            fail(f"shard_completed does not sum to completed: {stats}")

        serve.send_signal(signal.SIGINT)
        try:
            serve.wait(timeout=30)
        except subprocess.TimeoutExpired:
            serve.kill()
            fail("serve did not drain within 30s of SIGINT")
        tail = serve.stdout.read()
        if serve.returncode != 0:
            fail(f"serve exited {serve.returncode}:\n{tail}")
        match = re.search(r"(\d+) completed", tail)
        if not match:
            fail(f"serve report missing completed count:\n{tail}")
        if int(match.group(1)) != stats["completed"]:
            fail(f"serve completed {match.group(1)} != "
                 f"drive completed {stats['completed']}")
        if wal:
            check_group_commit(tail)
        print(f"OK: {protocol} lambda={lam} sent={stats['sent']} "
              f"completed={stats['completed']} rejected={stats['rejected']} "
              f"p99={stats['resp_p99']:.6f}s")
    finally:
        if serve.poll() is None:
            serve.kill()
        if wal_dir is not None:
            wal_dir.cleanup()


if __name__ == "__main__":
    main()
