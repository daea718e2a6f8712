"""Time-to-verified-MST benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the program and the benchmark (perfbench/build.py), then runs one
workload in a fresh JVM with a fixed heap and Spark on local[nproc]. The last
stdout line is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The exit code is non-zero if any solve fails its check.

--self-test runs every workload at a tiny n in both modes and checks that
each prints exactly the metrics BENCHMARK.json names, with their units, and
that every replay, counter and layer-time check in the traced run passes.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

DEFAULT_SEED = 1
HEAP = "3g"
TIME_LIMIT_S = 170
WORKLOADS = ["hdbscan-geolife3d", "emst-gfk-varden3d"]

# Module opens Spark needs on JDK 17 (the same list the sbt build passes).
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                             text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_java(classes, jars, digest, workload, seed, seconds, trace, tiny, deadline):
    """Runs one workload; returns (exit code, stdout lines)."""
    work_dir = os.path.join(build.build_dir(), "run")
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [build.java(), f"-Xmx{HEAP}", "-XX:-UsePerfData", *JVM_OPENS,
           f"-Dlog4j2.configurationFile={os.path.join(build.HERE, 'log4j2.properties')}",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.gitSha={git_sha()}",
           f"-Dperfbench.sourceSha={digest}",
           "-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
           "repro.perfbench.Main", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tiny", "1" if tiny else "0"]
    # Spark prefers SPARK_LOCAL_DIRS over spark.local.dir; keep both in the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work_dir, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded the time limit", file=sys.stderr)
        return 3, []
    return proc.returncode, out.splitlines()


def parse_result(lines, trace):
    """The final JSON object, checked against the metric list of BENCHMARK.json."""
    if not lines:
        raise ValueError("no output")
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        raise ValueError(f"metrics {got} differ from BENCHMARK.json {want}")
    return res


def self_test(classes, jars, digest):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_java(classes, jars, digest, workload, DEFAULT_SEED, 1, trace, True,
                                   time.monotonic() + TIME_LIMIT_S)
            try:
                res = parse_result(lines, trace)
                passed = code == 0 and res["correct"] and res["failed"] == 0
                detail = f"{res['attempted']} solves, {len(res['metrics'])} metrics"
            except ValueError as e:
                passed, detail = False, str(e)
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {workload} trace={trace}: {detail}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        classes, jars, digest = build.build()
    except build.BuildError as e:
        sys.exit(f"perfbench: {e}")
    if args.self_test:
        return self_test(classes, jars, digest)
    code, lines = run_java(classes, jars, digest, args.workload, args.seed, args.seconds,
                           args.trace, False, time.monotonic() + TIME_LIMIT_S)
    try:
        parse_result(lines, args.trace)
    except ValueError as e:
        for line in lines:
            print(line, file=sys.stderr)
        print(f"perfbench: bad result: {e}", file=sys.stderr)
        return code or 4
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
