#!/usr/bin/env python3
"""Benchmark-local test: the exact work counters and output digests repeat.

Runs every workload's traced run twice with the same seed and checks that
each counter in the record's "counters" group (nn FLOPs per period and per
step, service-model calls, ipc frames per period, checkpoint bytes) and
each digest is identical between the two runs, and that every oracle
passed. Counters are computed counts, not timings, so any difference is a
defect in the program or the benchmark.

    python3 perfbench/test_counters.py [--seed N] [--seconds S] [workload ...]

Exit status 0 when everything repeats, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark entry point, for its workload list)

# Counters every traced run of a workload must report.
EXPECTED = {
    "city_drl": {"nn.infer_flops_per_period", "env.service_model_calls_per_period"},
    "city_workers_ckpt": {"ckpt.bytes_per_day", "env.service_model_calls_per_period",
                          "ipc.frames_per_period"},
    "ddpg_train": {"nn.train_flops_per_step", "env.service_model_calls_per_step"},
    "serve_open_loop": set(),
}


def traced_record(workload, seed, seconds, directory, tag):
    out = os.path.join(directory, "%s-%s.json" % (workload, tag))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1", "--out", out],
        capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit("%s run %s failed (exit %d)" % (workload, tag, done.returncode))
    with open(out) as source:
        return json.load(source)[0]


def main():
    parser = argparse.ArgumentParser(description="work counters repeat run to run")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=3)
    parser.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = parser.parse_args()

    failures = []
    with tempfile.TemporaryDirectory() as directory:
        for workload in args.workloads:
            first, second = (traced_record(workload, args.seed, args.seconds, directory, tag)
                             for tag in ("a", "b"))
            for record in (first, second):
                for oracle in record["oracles"]:
                    if not oracle["passed"]:
                        failures.append("%s: oracle %s: %s" % (workload, oracle["name"],
                                                               oracle["detail"]))
            counters = [{m["name"]: m["value"] for m in r["counters"]} for r in (first, second)]
            missing = EXPECTED[workload] - set(counters[0])
            if missing:
                failures.append("%s: counters missing: %s" % (workload, sorted(missing)))
            for name, value in sorted(counters[0].items()):
                again = counters[1].get(name)
                status = "ok" if again == value else "DIFFERS"
                print("%-18s %-36s %18.10g %18s %s" % (workload, name, value,
                                                       "%.10g" % again if again is not None
                                                       else "missing", status))
                if again != value:
                    failures.append("%s: counter %s: %r vs %r" % (workload, name, value, again))
            for name, digest in sorted(first["digests"].items()):
                again = second["digests"].get(name)
                print("%-18s %-36s %18s %18s %s" % (workload, "digest " + name, digest, again,
                                                    "ok" if again == digest else "DIFFERS"))
                if again != digest:
                    failures.append("%s: digest %s: %s vs %s" % (workload, name, digest, again))
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
