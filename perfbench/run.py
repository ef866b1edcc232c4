#!/usr/bin/env python3
"""Builds and runs the unicc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/ (which pulls in the repository's libraries) into .bench_build/,
or into $CARGO_TARGET_DIR when that is set; later runs only bring the build
up to date. Build output goes to stderr; the benchmark's own output goes to
stdout, and its last line is the JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# unicc_bench stops soon after --seconds; give up on it two minutes later.
RUN_TIMEOUT_EXTRA_S = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds unicc_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the unicc sources (src/) are not next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, out, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "unicc_bench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "unicc_bench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def run(binary, args, capture=False, timeout=None):
    return subprocess.run([binary] + args, timeout=timeout, text=True,
                          capture_output=capture)


def check_result(lines, expected, where):
    """Checks one result line against BENCHMARK.json's metric list."""
    errors = []
    if not any(l.startswith("host {") for l in lines):
        errors.append("no host metadata line")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys are %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("run not correct")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or result[key] < 0:
            errors.append("%s is not a whole number" % key)
    if result.get("attempted", 0) < 1:
        errors.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append("metrics differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            errors.append("bad metric name " + name)
        if set(m) != {"value", "unit"}:
            errors.append("%s has keys %s" % (name, sorted(m)))
            continue
        if not UNIT_RE.match(m["unit"]) or (
                name in expected and m["unit"] != expected[name]):
            errors.append("%s has unit %s" % (name, m["unit"]))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            errors.append("%s is not a finite number" % name)
    return ["%s: %s" % (where, e) for e in errors]


def self_test(binary, commit):
    """Smoke runs of every workload in both modes, checked against
    BENCHMARK.json, after unicc_bench --self-test."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    r = run(binary, ["--self-test", "--commit", commit], capture=True,
            timeout=170)
    sys.stdout.write(r.stdout)
    if r.returncode != 0:
        errors.append("unicc_bench --self-test failed:\n" + r.stderr)
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, listed in modes.items():
            expected = {m["name"]: m["unit"] for m in listed}
            args = ["--workload", w["name"], "--seed", "5", "--seconds", "1",
                    "--trace", str(trace), "--smoke", "--commit", commit]
            r = run(binary, args, capture=True, timeout=170)
            where = "%s --trace %d" % (w["name"], trace)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                errors.append("%s: exit %d\n%s" % (where, r.returncode,
                                                   r.stderr))
                continue
            errors += check_result(lines, expected, where)
            print("%s: %d metrics checked" % (where, len(expected)))
    for e in errors:
        print("self-test: FAILED: " + e, file=sys.stderr)
    print("self-test: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    binary = build()
    commit = source_id()
    if a.self_test:
        return self_test(binary, commit)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
            repr(a.seconds), "--trace", str(a.trace), "--commit", commit]
    sys.stdout.flush()
    try:
        return run(binary, args,
                   timeout=a.seconds + RUN_TIMEOUT_EXTRA_S).returncode
    except subprocess.TimeoutExpired:
        fail("unicc_bench did not finish in time")


if __name__ == "__main__":
    sys.exit(main())
