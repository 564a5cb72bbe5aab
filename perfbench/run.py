#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload seqwrite --seed 1 --seconds 20 --trace 0

The arguments pass through to the Go benchmark (perfbench/main.go). The
build and the Go caches live under $CARGO_TARGET_DIR, or .bench_build in
the repository root when it is unset, so nothing is written outside the
checkout. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "XDG_CONFIG_HOME": os.path.join(build, "config"),  # go telemetry
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
