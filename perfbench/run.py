"""Runs one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload static-uniform --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the program and the benchmark on first use (see build.py), then
runs them in one JVM: Spark local[N] on every core, one driver thread
issuing operations in a closed loop. The last stdout line is the JSON
result; `--trace 1` reports per-layer metrics instead of end-to-end ones
and writes the spans to .bench_build/perfbench/.
"""
import argparse
import json
import subprocess
import sys
import threading

import build

WORKLOADS = ["static-uniform", "static-torus", "stream-rmat"]
# A fixed heap and young generation, and lower JIT thresholds: with the
# JVM's adaptive sizing and default thresholds, op times kept falling by up
# to 2x over the first 30 s of a run, longer than a run lasts.
JVM_TUNING = ["-Xms2g", "-Xmx2g", "-Xmn1g", "-XX:+UseG1GC", "-XX:CompileThresholdScaling=0.1"]
RUN_TIMEOUT_S = 175

# Module access Spark needs on Java 17 (what spark-submit adds itself).
JAVA_OPENS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def java(classpath, main, args):
    cmd = (["java"] + JVM_TUNING + build.jvm_tmp_opts() + JAVA_OPENS +
           [f"-Dlog4j2.configurationFile={build.BENCH / 'log4j2.properties'}",
            "-cp", classpath, main] + args)
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return proc.returncode, last


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own tests instead of a workload")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    classpath, digest = build.build()
    if a.self_test:
        code, _ = java(classpath, "perfbench.SelfTest", ["--out", str(build.OUT)])
        sys.exit(code)
    code, last = java(classpath, "perfbench.Main", [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out", str(build.OUT),
        "--commit", commit(), "--digest", digest])
    if code != 0:
        sys.exit(code)
    result = json.loads(last or "null")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: no result line")


if __name__ == "__main__":
    main()
