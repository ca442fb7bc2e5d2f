#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload roundtrip_tcp --seed 1 --seconds 20 --trace 0

The Go program in this directory is built into .bench_build/ at the
repository root, with the Go build cache and temporary files kept there
too, then run with the given arguments. Its exit code is passed through.
A traced run (--trace 1) also leaves .bench_build/trace_<workload>.json,
a Chrome trace of its spans.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175  # a run must end well within 180 s


def go_env():
    """The environment for the go command, with every place it writes
    (build cache, temporary files, module cache, telemetry) inside BUILD."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOFLAGS="", GOPROXY="off", GOWORK="off")
    return env


def main():
    argv = sys.argv[1:]
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    proc = subprocess.Popen([BINARY, "--trace-dir", BUILD] + argv, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
