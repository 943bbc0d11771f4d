#!/usr/bin/env python3
"""Build the perfbench Go program from this checkout's source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig4-768 --seed 1 --seconds 60 --trace 0

Every Go cache and setting the build touches lives in the build directory
($CARGO_TARGET_DIR, default .bench_build), so the run reads and writes only
inside the checkout. The program's last stdout line is the JSON result. When
the source is missing or the build fails, this exits non-zero without a
result.
"""
import os
import shutil
import subprocess
import sys

# The program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ)
    home = os.path.join(build, "home")
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(home, exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--outdir", os.path.join(build, "perfbench", "trace")]
    try:
        ran = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
