#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <campaign|stream|edge> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the Go program in this
directory from source into .bench_build/ at the root -- with the Go
build cache, temporary files and the Go tool's own state kept there as
well, so a run reads and writes only inside the checkout -- and then
runs it with the same arguments. The program's output and exit code
pass through: its last line of standard output is the result object.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, cwd, env, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(build, "home", ".cache"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "tmp", "gopath", "home"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench")
    staged = binary + f".{os.getpid()}"
    code = run(["go", "build", "-o", staged, "."], src, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    os.replace(staged, binary)
    sys.stdout.flush()
    return run([binary] + sys.argv[1:], root, env, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
