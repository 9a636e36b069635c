#!/usr/bin/env python3
"""The EdgeSlice repository benchmark: one command for every workload.

Run one workload (builds the C++ benchmark binary on first use), or all four in turn:

    python3 perfbench/run.py --workload city_drl --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

  --trace 0  measures the end-to-end metrics with no probes installed;
  --trace 1  measures the per-layer breakdown (probed and unprobed
             repetitions alternate, which also gives trace_overhead_share).

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Everything above it is a human-readable report. Exit status is 0 when
every oracle passed and non-zero otherwise (an oracle mismatch, a failed
build or run, bad arguments). --out FILE also writes the full records (a
JSON list, one per workload run), host facts included, for comparison:

    python3 perfbench/run.py compare BASE.json CANDIDATE.json

which refuses records taken on a different host shape (nproc, CPU model,
GEMM backend) or with a different workload, seed or run length.
See perfbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("city_drl", "city_workers_ckpt", "ddpg_train", "serve_open_loop")
BUILD_JOBS = 2
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# The facts two records must share before their numbers may be compared.
COMPARABLE = ("nproc", "cpu_model", "gemm_backend", "workload", "seed", "seconds", "trace")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def work_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (expected src/CMakeLists.txt)", 2)
    build_dir = os.path.join(work_dir(), "perfbench-build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(BUILD_JOBS)])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binary is built from (identifies the
    code under test where there is no git checkout)."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return digest.hexdigest()


def run_binary(binary, args):
    scratch = os.path.join(work_dir(), "scratch", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    # Own process group, so a timeout also reaches any worker processes.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("%s printed no record (exit %d)" % (args.workload, child.returncode))
    try:
        record = json.loads(lines[-1])
    except ValueError:
        fail("%s printed an unreadable record" % args.workload)
    return record, child.returncode


def print_report(record):
    host = record["host"]
    print("# perfbench %s  seed %d  %s run, %.1f s measured" % (
        record["workload"], record["seed"], "traced" if record["traced"] else "untraced",
        record["run_seconds"]))
    print("# host: %d cpus, %s, gemm %s, git %s, sources %s" % (
        host["nproc"], host["cpu_model"], record["gemm_backend"],
        host["git_sha"] or "n/a", host["source_digest"][:16]))
    groups = [("end-to-end", "named"), ("work counters", "counters")]
    if record["traced"]:
        groups.append(("per-layer", "per_layer"))
    for title, key in groups:
        if not record[key]:
            continue
        print("# %s" % title)
        for metric in record[key]:
            print("#   %-28s %16.6g %-6s %s" % (metric["name"], metric["value"],
                                               metric["unit"], metric.get("note", "")))
    for oracle in record["oracles"]:
        print("# oracle %-30s %s  %s" % (oracle["name"],
                                         "ok" if oracle["passed"] else "MISMATCH",
                                         oracle["detail"]))
    print("# attempted %d, failed %d" % (record["attempted"], record["failed"]))


def result_line(record):
    metrics = record["per_layer"] if record["traced"] else record["end_to_end"]
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]} for m in metrics},
    })


def facts(record):
    return {
        "nproc": record["host"]["nproc"],
        "cpu_model": record["host"]["cpu_model"],
        "gemm_backend": record["gemm_backend"],
        "workload": record["workload"],
        "seed": record["seed"],
        "seconds": record["host"]["seconds"],
        "trace": record["traced"],
    }


def compare(paths):
    loaded = []
    for path in paths:
        with open(path) as source:
            loaded.append(json.load(source))
    if len(loaded[0]) != len(loaded[1]):
        fail("refusing to compare: the files hold different workload sets", 3)
    pairs = list(zip(*loaded))
    for first, second in pairs:
        base, candidate = facts(first), facts(second)
        differing = [key for key in COMPARABLE if base[key] != candidate[key]]
        for key in differing:
            print("perfbench: records differ in %s: %r vs %r" % (key, base[key], candidate[key]),
                  file=sys.stderr)
        if differing:
            fail("refusing to compare records taken under different conditions", 3)
    for first, second in pairs:
        print("# %s seed %d: %s -> %s" % (first["workload"], first["seed"],
                                          first["host"]["git_sha"] or
                                          first["host"]["source_digest"][:16],
                                          second["host"]["git_sha"] or
                                          second["host"]["source_digest"][:16]))
        key = "per_layer" if first["traced"] else "end_to_end"
        after = {m["name"]: m for m in second[key]}
        for metric in first[key]:
            other = after.get(metric["name"])
            if other is None:
                continue
            change = other["value"] / metric["value"] - 1.0 if metric["value"] else float("nan")
            print("%-28s %14.6g -> %-14.6g %-6s %+8.2f%%" % (
                metric["name"], metric["value"], other["value"], metric["unit"], 100.0 * change))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare BASE.json CANDIDATE.json", 2)
        compare(sys.argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full records (JSON list) here")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60", 2)

    binary = build()
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "seconds": args.seconds,
    }
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    passed = True
    for workload in workloads:
        args.workload = workload
        record, status = run_binary(binary, args)
        record["host"] = host
        print_report(record)
        print(result_line(record), flush=True)
        records.append(record)
        passed = passed and status == 0 and record["correct"]
    if args.out:
        with open(args.out, "w") as out:
            json.dump(records, out, indent=1)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
