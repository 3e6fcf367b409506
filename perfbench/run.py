#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the repository's src/ libraries) in
Release mode under $CARGO_TARGET_DIR (default .bench_build) at the root of
the checkout, runs one workload, prints the provenance of the result and
every metric by name, and ends with the result JSON as the last line of
standard output.  Exits non-zero when the build, a correctness check or the
run fails.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline-3n", "ledger-262k", "sim-n2000")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, target)


def source_digest():
    """sha256 over every file of src/ and perfbench/ (path + bytes): names
    the code measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_speed():
    """MB/s of sha256 over a fixed buffer, best of 5: a reference for how
    fast this host ran around the measurement (shared hosts drift)."""
    import time
    buf = bytes(8 << 20)
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        hashlib.sha256(buf).digest()
        best = min(best, time.perf_counter() - t)
    return round(len(buf) / best / 1e6, 1)


def provenance():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {
        "git_rev": rev or "none (not a git checkout)",
        "source_digest": source_digest(),
        "build_type": build_type,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "host_sha256_mb_per_s": host_speed(),
    }


def expected_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this kind of
    run, in order, if the file is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"repository sources not found under {ROOT}/src; nothing to build")
        return 2

    try:
        binary = build("perfbench_selftest" if args.selftest else "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.selftest:
        return subprocess.run([binary]).returncode

    workdir = os.path.join(build_dir(), "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        # Keep the traced run's span files; drop datadirs and snapshots.
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        for name in os.listdir(workdir):
            if name.startswith("spans-"):
                shutil.move(os.path.join(workdir, name), os.path.join(spans, name))
        shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(stdout)
        log(f"no result line (exit code {proc.returncode})")
        return proc.returncode or 3
    for key, value in provenance().items():
        print(f"provenance {key} = {value}")
    print("\n".join(lines[:-1]))

    expected = expected_metrics(args.trace == 1)
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if expected is not None and printed != expected:
        log("metrics printed do not match BENCHMARK.json: "
            f"{sorted(set(printed) ^ set(expected))}")
        return 3
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
