#!/usr/bin/env python3
"""Build the perfbench program (Release) and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check      # checker self-test, determinism, held-out seed

Workloads: rack_exam, state_mesh, reliable_mass, udp_mesh (see README.md).
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout. The program's stdout is passed through; its last line is one JSON
object with the keys correct, attempted, failed and metrics. A traced run
(--trace 1) also writes its spans as Chrome trace_event JSON next to the
build.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["rack_exam", "state_mesh", "reliable_mass", "udp_mesh"]
HELD_OUT_SEED = 1000003
DEFAULT_SEED = 7


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build; returns the binary's path. Build output goes to
    stderr so stdout carries only the program's report."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def commit_id():
    """The git commit, or a hash of the sources when not in a repository."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def run(binary, workload, seed, seconds, trace, commit):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit]
    if trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "trace_%s_%s.json" % (workload, seed))]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=175)
    sys.stderr.write(p.stderr)
    lines = p.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return p.returncode, lines, result


def fingerprint(lines):
    for line in lines:
        if line.startswith("fingerprint: "):
            return line.split(": ", 1)[1]
    return None


# Metrics that are exact functions of the seed (virtual time, bytes).
EXACT = ["latency_ms.p50", "latency_ms.p99", "wire_bytes_per_update", "wire_up_s"]
# The rack's telemetry records carry host-measured timings, so its byte
# count is not an exact function of the seed (README, known faults).
NOT_EXACT = {("rack_exam", "wire_bytes_per_update")}


def check(binary, commit):
    """Determinism (two runs, one seed, identical virtual-time metrics,
    byte counts and outputs) and a held-out seed that must pass."""
    all_ok = True
    for w in WORKLOADS:
        ok = True
        runs = [run(binary, w, DEFAULT_SEED, 1, 0, commit) for _ in range(2)]
        held = run(binary, w, HELD_OUT_SEED, 1, 0, commit)
        for rc, lines, res in runs + [held]:
            if rc != 0 or res is None or not res["correct"]:
                ok = False
                print("%s: run failed its checks:\n  %s" % (w, "\n  ".join(lines[-8:])))
        # Real sockets: the kernel decides delivery timing, so udp_mesh is
        # held to its checks only.
        a, b = runs
        if w != "udp_mesh" and a[2] and b[2]:
            for m in EXACT:
                if (w, m) in NOT_EXACT:
                    continue
                va, vb = a[2]["metrics"][m]["value"], b[2]["metrics"][m]["value"]
                if va != vb:
                    ok = False
                    print("%s: %s differs between two runs of seed %d: %r vs %r"
                          % (w, m, DEFAULT_SEED, va, vb))
            if fingerprint(a[1]) != fingerprint(b[1]):
                ok = False
                print("%s: output fingerprint differs between two runs" % w)
        what = "checks" if w == "udp_mesh" else "determinism and checks"
        print("%s: %s (seed %d twice, held-out seed %d): %s"
              % (w, what, DEFAULT_SEED, HELD_OUT_SEED, "ok" if ok else "FAILED"))
        all_ok = all_ok and ok
    return all_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    if not args.check and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    commit = commit_id()
    if args.check:
        return 0 if check(binary, commit) else 1
    rc, lines, result = run(binary, args.workload, args.seed, args.seconds,
                            args.trace, commit)
    print("\n".join(lines))
    if rc != 0 or result is None:
        print("perfbench: program exited with %d" % rc, file=sys.stderr)
        return rc or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
