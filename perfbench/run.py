#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/perfbench.exe with dune inside the checkout (the dune
cache is disabled, so nothing is written outside it), prints an
environment stamp (commit, OCaml version, nproc), then runs the benchmark.
Its standard output is passed through: one line per metric, and as the
last line one JSON object with the keys correct, attempted, failed and
metrics.  Exits non-zero without a result when the repository sources are
missing or the build fails.  See perfbench/README.md.
"""

import hashlib
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the repository root: dune-project or lib/ is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        return fail("build failed")
    ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                           text=True, env=env).stdout.strip()
    stamp = {"commit": commit(), "ocaml": ocaml, "nproc": os.cpu_count()}
    print("env: " + json.dumps(stamp), flush=True)
    proc = subprocess.Popen([EXE] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
