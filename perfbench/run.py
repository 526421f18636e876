#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload graph-interactive --seed 1 --seconds 10 --trace 0

The first run builds the program and the benchmark with sbt (offline) into
perfbench/target and the repository's own target directories; later runs
reuse the build while the sources are unchanged. The workload runs in one
JVM with a pinned heap. The JSON line carries every end-to-end metric
(--trace 0) or every per-layer metric (--trace 1) declared in
BENCHMARK.json; a per-layer metric of a layer the workload does not call is
reported as 0.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("graph-interactive", "graph-batch", "tpch-sharing")
HEAP = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# The module options Spark needs on Java 17 (as in the program's build.sbt).
JAVA_OPTS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_stamp():
    """Hash of every input of the build, so edits trigger a rebuild."""
    h = hashlib.sha256()
    tops = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
            "perfbench/project", "perfbench/src"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile with sbt once per source state; return the runtime classpath."""
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    stamp = source_stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as cf:
                    return cf.read()
    if shutil.which("sbt") is None:
        fail("sbt not found")
    env = dict(os.environ, COURSIER_MODE="offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true",
           "compile", "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:])
        fail("build failed")
    classpath = lines[-1].strip()
    os.makedirs(BUILD, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(classpath)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "main")):
        fail("the program's sources are not here; run from a checkout of the repository")

    classpath = build()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", *JAVA_OPTS,
           f"-Djava.io.tmpdir={work}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           f"-Dspark.local.dir={work}",
           f"-Dspark.sql.warehouse.dir={os.path.join(work, 'warehouse')}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    for f in os.listdir(work):
        if f.startswith("trace-"):
            shutil.move(os.path.join(work, f), os.path.join(traces, f))
    shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if args.trace:
        for m in declared:
            if m["name"] in missing:
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        if missing:
            print(f"not exercised by {args.workload} (reported as 0): {' '.join(missing)}")
    elif missing:
        fail(f"{args.workload} did not report {', '.join(missing)}")
    wrong = [m["name"] for m in declared if metrics[m["name"]]["unit"] != m["unit"]]
    if wrong:
        fail(f"{args.workload} reported {', '.join(wrong)} in another unit than declared")
    names = {m["name"] for m in declared}
    extra = {k: v["value"] for k, v in metrics.items() if k not in names}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    for line in lines[:-1]:
        print(line)
    if extra:
        print("undeclared: " + " ".join(f"{k}={v}" for k, v in extra.items()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
