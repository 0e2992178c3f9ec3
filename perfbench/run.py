#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload table-matrix|miss-path|cold-build \
        --seed N --seconds S --trace 0|1 [--pin-out FILE]

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/, and so do the private artifact
caches and span files of each run; nothing else in the checkout is
written. Build output goes to stderr; the program's last stdout line is
the JSON result. Exits nonzero without a result when the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def source_digest():
    """SHA-256 over the simulator sources: provenance without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = target / "perfbench"
    # Inherited simulator knobs never reach the build or the run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CPS_")}
    jobs = str(len(os.sched_getaffinity(0)))

    for cmd in (["cmake", "-S", str(HERE), "-B", str(build),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build), "--target", "perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    args = [str(build / "perfbench"), *sys.argv[1:],
            "--work-dir", str(target / "perfbench-runs"),
            "--pins", str(HERE / "pins" / "seed0.txt"),
            "--commit", commit(), "--src-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
