"""The vpvtotients benchmark: one command, two seeded workloads.

    python3 perfbench/run.py --workload rearrange --seed 1 --seconds 45 --trace 0

Run from the root of a plain checkout; no install is needed.  With
``--trace 0`` the chosen workload is timed for ``--seconds`` and the
end-to-end metrics are printed.  With ``--trace 1`` a separate, traced pass
over every layer prints the per-layer metrics; that pass is the same
whatever the workload, so ``--workload`` is optional there and
``--seconds`` is ignored.  The last line of standard
output is the result as JSON.  The exit code is 0 only when every
correctness gate held.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head.removeprefix("ref: ")
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy

    from vpvtotients import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "backend": _kernels.BACKEND,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.trace and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required unless --trace 1")
    if not args.trace and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "vpvtotients" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    # children inherit this environment: the source tree and one BLAS thread
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    sys.path.insert(0, str(SRC))

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        res = tracing.traced_run(args.seed, env)
    else:
        res = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    res.extra["fail_ratio"] = (res.failed / max(res.attempted, 1), "ratio")
    for name, (value, unit) in {**res.metrics, **res.extra}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in res.metrics.items()},
    }))
    return 0 if res.failed == 0 and res.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
