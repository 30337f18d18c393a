"""The benchmark's exact battery and rearrangement sweep, run once each.

perfbench/ wraps the `_kernels` entry points and `vpv.enumerate_selector`
by name, divides by the number of selector calls, samples each selector by
index and compares neighbouring rows with `>=`, and gates every output. One
traced pass of each workload at seed 0 catches a package change that breaks
one of those couplings (a deleted kernel name, a numpy row where a tuple was,
a check that no longer calls `vpv.enumerate_selector`) before the benchmark
does. The benchmark's files are only read: no bytecode is written there.
"""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _perfbench_modules():
    dont_write = sys.dont_write_bytecode
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode = True
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = dont_write
    return tracing, workloads


def test_traced_exact_and_rearrange_passes_hold_every_gate():
    tracing, workloads = _perfbench_modules()
    res, tracer = workloads.Result(), tracing.Tracer()
    tracing.exact_pass(res, tracer, 0)
    tracing.rearrange_pass(res, tracer, 0)
    # 22 battery cases and 60 checks, each run untraced and traced
    assert (res.failed, res.attempted) == (0, 164)
