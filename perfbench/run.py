#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark (and the program's sources with
it) when its sources changed, then runs one workload in a JVM.

Run from the repository root:

    python3 perfbench/run.py --workload plan_fig9 --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result. Build output, Spark
scratch space and span files go to .bench_build/ in the repository root.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["plan_fig9", "replay_fig7", "adapt_fig8", "spark_steps"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "3g"

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BENCH, "target", "scala-2.13", "classes")
STAMP = os.path.join(OUT, "build-stamp")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file the build reads, in a stable order."""
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src", "main")):
        for d, _, names in sorted(os.walk(top)):
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def digest():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution: set SPARK_HOME")
    return home


def run_group(cmd, timeout, what, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{what} exceeded {timeout} s", 1)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(env, source_digest):
    """Compile with sbt unless the stamp says these sources are built."""
    if os.path.isdir(CLASSES) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == source_digest:
                return
    env = dict(env)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    print("perfbench: building with sbt", file=sys.stderr)
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    code = run_group(
        ["sbt", "-J-XX:-UsePerfData", f"-J-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}",
         "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "compile"],
        BUILD_TIMEOUT_S, "build", cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        fail(f"build failed (sbt exit {code})", 1)
    with open(STAMP, "w") as fh:
        fh.write(source_digest + "\n")


def revision():
    """The git revision, or "none" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("run from the repository root: src/main/scala (the program) is missing")
    home = spark_home()
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    env = dict(os.environ, SPARK_HOME=home)
    source_digest = digest()
    build(env, source_digest)

    cmd = [
        "java", "-Xms1g", f"-Xmx{HEAP}", "-XX:-UsePerfData",  # no hsperfdata file outside
        f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}",
        f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
        "-cp", os.pathsep.join([CLASSES, os.path.join(home, "jars", "*")]),
        "repro.perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace, "--out", OUT,
        "--revision", f"{revision()} (sources {source_digest[:12]})",
    ]
    env.setdefault("SPARK_LOCAL_IP", "127.0.0.1")
    env["SPARK_LOCAL_DIRS"] = os.path.join(OUT, "spark-local")
    sys.exit(run_group(cmd, RUN_TIMEOUT_S, "run", cwd=ROOT, env=env))


if __name__ == "__main__":
    main()
