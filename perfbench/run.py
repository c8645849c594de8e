"""Benchmark for seqrl: teacher-forced training, policy-gradient training and
evaluation decoding, driven through the package's public API.

Run from the repository root:

    python3 perfbench/run.py --workload rl-train --seed 1 --seconds 36 --trace 0

It builds nothing: it imports seqrl from ``src/`` next to this directory.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Scratch files and span dumps go to ``.perfbench/``. The exit
code is 0 when every check passed, 1 when a check failed, 2 on bad usage or
when the seqrl sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mle-train", "rl-train")


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    # pin BLAS before numpy loads it: small matrices, and single-threaded
    # reductions keep results bitwise identical from pass to pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "seqrl", "__init__.py")):
        print(f"perfbench: no seqrl sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import numpy as np

    import harness
    import tracing

    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        outcome, metrics, info = harness.run(args.workload, args.seed, args.seconds,
                                             harness.SCALES[args.size], workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path)
        info["trace_file"] = os.path.relpath(trace_path, ROOT)

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
           **{var: os.environ[var] for var in BLAS_THREAD_VARS}}
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for problem in outcome.problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"operations attempted {outcome.attempted} failed {outcome.failed}")
    correct = not outcome.problems
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
