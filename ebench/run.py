#!/usr/bin/env python3
"""Builds the benchmark, runs one workload once and prints its metrics.

    python3 ebench/run.py --workload tpcc --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The engine library and the benchmark are
compiled from source into .bench_build/ (or $CARGO_TARGET_DIR); databases,
results and traces go to .bench_out/. Every ERMIA_* environment override is
removed, so the engine runs with EngineConfig defaults plus the few fields the
benchmark sets.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (from a
run that traces every engine call of alternate blocks of requests). The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The exit code is 0 when every output check passed, 1 when one
failed, and another non-zero code when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKERS = 3
RUN_TIMEOUT_S = 170

# Requests each worker runs per second of --seconds. The count is fixed from
# the arguments alone (never from measured speed), so the log, memory and
# restart work of a run do not depend on how fast the engine is; the rates
# are about what each workload sustains on a 4-core x86 host, so a run's
# timed phase lasts roughly --seconds.
WORKLOADS = {
    "tpcc": 4500,
    "tpcc-hybrid": 900,
    "ycsb": 20000,
}

# Request types of every workload; a type the workload lacks reads 0.
TYPES = ["neworder", "payment", "orderstatus", "delivery", "stocklevel",
         "q2star", "read", "transfer"]

# Engine abort-reason counters reported per 1000 completed requests.
ABORT_REASONS = ["explicit", "si_first_updater_wins", "si_snapshot_overwrite",
                 "ssn_exclusion_read", "ssn_exclusion_update",
                 "ssn_exclusion_commit", "occ_write_write",
                 "occ_read_validation", "phantom"]

# Per-call means over the traced blocks: metric -> span name.
SPAN_METRICS = {
    "txn.begin_us": "txn.begin",
    "index.lookup_us": "index.lookup",
    "index.insert_us": "index.insert",
    "storage.read_us": "storage.read",
    "storage.update_us": "storage.update",
    "cc.commit_us": "cc.commit",
    "cc.abort_us": "cc.abort",
}

CORRUPTIONS = ["payment", "neworder", "transfer", "checksum", "digest"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds (a no-op when nothing changed)."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "ebench")
    cmake = shutil.which("cmake")
    if cmake is None:
        log("ebench: cmake not found")
        sys.exit(2)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            log("ebench: cmake configure failed")
            sys.exit(2)
    if subprocess.run([cmake, "--build", build_dir, "-j", str(WORKERS)],
                      stdout=sys.stderr).returncode != 0:
        log("ebench: build failed")
        sys.exit(2)
    return build_dir


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        return out.stdout.splitlines()[0].strip() if out.returncode == 0 else None
    except (OSError, IndexError):
        return None


def source_digest():
    """sha256 over the engine and benchmark sources (the checkout the driver
    runs in is not a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "ebench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def environment(build_dir):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cxx = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "compiler": first_line([cxx, "--version"]) if cxx else None,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "workers": WORKERS,
    }


def run_engine(binary, args, requests_per_worker, env):
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--requests-per-worker", str(requests_per_worker),
           "--out-dir", OUT_DIR, "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(OUT_DIR, "traces", args.workload + ".json")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("ebench: run timed out")
        sys.exit(4)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("ebench: run ended with code %d" % proc.returncode)
        sys.exit(3)
    return json.loads(lines[-1])


def counter_delta(before, after, section, name, absent):
    a = after.get(section, {}).get(name)
    b = before.get(section, {}).get(name)
    if a is None or b is None:
        absent.append(section + "." + name)
        return None
    return a - b


def metrics(raw, trace):
    """Turns the engine binary's raw measurements into named metrics."""
    m = {}
    absent = []
    completed = max(raw["completed"], 1)
    run_s = raw["run_s"]

    def put(name, value, unit):
        if value is not None:
            m[name] = {"value": value, "unit": unit}

    if not trace:
        # Medians over the equal wall-time slices of the timed phase.
        win = raw["windows"]
        put("txn_per_s", statistics.median(win["txn_per_s"]), "txn/s")
        put("latency_p50_us", statistics.median(win["p50_us"]), "us")
        put("latency_p99_us", statistics.median(win["p99_us"]), "us")
        put("setup_s", raw["setup_s"], "s")
        put("restart_s", raw["restart_s"], "s")
        put("rss_mb", raw["rss_mb"], "MiB")
        return m, absent

    spans = raw["spans"]
    for name, span in SPAN_METRICS.items():
        s = spans[span]
        put(name, s["s"] * 1e6 / s["calls"] if s["calls"] else 0.0, "us")
    scan = spans["index.scan"]
    put("index.scan_row_us", scan["s"] * 1e6 / scan["rows"] if scan["rows"] else 0.0,
        "us/row")
    put("cc.abort_ratio", raw["aborted_attempts"] / max(raw["attempts"], 1), "share")
    put("cc.retry_time_share", raw["retry_s"] / raw["busy_s"], "share")
    before, after = raw["engine_before"], raw["engine_after"]
    for reason in ABORT_REASONS:
        d = counter_delta(before, after, "abort_reasons", reason, absent)
        put("cc.aborts_per_ktxn." + reason,
            None if d is None else d * 1000.0 / completed, "count/ktxn")
    put("log.bytes_per_txn", raw["log_bytes"] / completed, "B/txn")
    d = counter_delta(before, after, "counters", "log_flushes", absent)
    put("log.flushes_per_ktxn", None if d is None else d * 1000.0 / completed,
        "count/ktxn")
    put("engine.daemon_cpu_share",
        (raw["process_cpu_s"] - raw["worker_cpu_s"]) / run_s, "cores")
    put("engine.worker_wait_share",
        1.0 - raw["worker_cpu_s"] / raw["worker_wall_s"], "share")
    replay = raw["engine_restart"].get("counters", {}).get("recovery_replay_bytes")
    if replay is None:
        absent.append("counters.recovery_replay_bytes")
    else:
        put("recovery.replay_mb_per_s", replay / 1e6 / raw["restart_s"], "MB/s")
    put("setup.rows_per_s", raw["rows_loaded"] / raw["setup_s"], "rows/s")
    req = spans["request"]
    put("client.self_share", req["self_s"] / req["s"] if req["s"] else 0.0, "share")
    traced_rate = raw["traced_reqs"] / raw["traced_s"]
    untraced_rate = raw["untraced_reqs"] / raw["untraced_s"]
    put("trace.overhead", 1.0 - traced_rate / untraced_rate, "share")
    for t in TYPES:
        info = raw["types"].get(t)
        done = info["completed"] if info else 0
        lat = info["latency"] if info else {"p50_us": 0.0, "p99_us": 0.0}
        put("type.%s.per_s" % t, done / run_s, "txn/s")
        put("type.%s.p50_us" % t, lat["p50_us"], "us")
        put("type.%s.p99_us" % t, lat["p99_us"], "us")
    return m, absent


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", choices=CORRUPTIONS,
                   help="self-test: falsify one tally or check input")
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    env = {k: v for k, v in os.environ.items() if not k.startswith("ERMIA_")}
    build_dir = build()
    binary = os.path.join(build_dir, "ebench")
    requests_per_worker = args.seconds * WORKLOADS[args.workload]
    started = time.time()
    raw = run_engine(binary, args, requests_per_worker, env)
    wall = time.time() - started

    correct = not raw["errors"]
    m, absent = metrics(raw, args.trace)
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": m,
    }
    record = dict(raw)
    for k in ("engine_before", "engine_after", "engine_restart"):
        record.pop(k)
    record.update({"environment": environment(build_dir), "metrics": m,
                   "absent": absent, "wall_s": wall})
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)

    env_info = record["environment"]
    print("# %s seed=%d trace=%d cc=%s sync_commit=%s requests=%d workers=%d"
          % (args.workload, args.seed, args.trace, raw["config"]["cc"],
             raw["config"]["synchronous_commit"], raw["attempted"], WORKERS))
    print("# env: " + json.dumps(env_info, sort_keys=True))
    for e in raw["errors"]:
        print("# INCORRECT: " + e)
    if absent:
        print("# ABSENT engine counters: " + " ".join(absent))
    print("# latency samples: all=%d %s; per slice: %s" % (
        raw["latency"]["count"], " ".join(
            "%s=%d" % (t, v["latency"]["count"]) for t, v in raw["types"].items()),
        " ".join(str(n) for n in raw["windows"]["samples"])))
    for name, v in m.items():
        print("%-36s %14.4f %s" % (name, v["value"], v["unit"]))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
