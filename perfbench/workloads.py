"""The timed workloads, with tracing off, and what they share with the
traced run.

Each workload is a closed loop in this process: one thread, one call in
flight, through the package's public functions.  Every output is gated, and
a failed gate counts against ``failed``.  Each workload returns a
``Result``.
"""

from __future__ import annotations

import random
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
PROBE = str(Path(__file__).resolve().parent / "probe.py")
#: fresh interpreters started per run to measure set-up, spread over the
#: run; the fastest is kept
SETUP_REPS = 7
#: passes a run makes however short ``--seconds`` is
MIN_PASSES = 3
#: a child that runs longer than this has hung
CHILD_TIMEOUT_S = 60


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit)
    metrics: dict = field(default_factory=dict)
    #: printed for people, not part of the JSON result
    extra: dict = field(default_factory=dict)

    def gate(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            print(f"gate failed: {what}", file=sys.stderr)

    def finish(self, setup: float, checks: list) -> "Result":
        """Fill the end-to-end metrics from the set-up time and each check's
        fastest time; one operation is one pass over all the checks."""
        self.metrics = {
            "setup_s": (setup, "s"),
            "op_s": (sum(checks), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # a constant over op_s, so printed without a bound of its own
        self.extra["checks_per_s"] = (len(checks) / sum(checks), "1/s")
        return self


def run_child(args: list):
    """Run ``python3 <args>`` from the checkout root; (wall seconds, process).

    The child inherits this process's environment, which already carries
    ``src`` on PYTHONPATH and single-threaded BLAS.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S
    )
    return time.perf_counter() - t0, proc


def setup_probe(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import what the workload calls
    and make its first, untimed call."""
    _, proc = run_child([PROBE, "setup", workload, str(seed)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()}")
    return float(proc.stdout.split()[-1])


def _guarded(result: Result, what: str, thunk):
    """Run thunk; an exception is a failed gate, not a crashed benchmark."""
    try:
        return thunk()
    except Exception:  # noqa: BLE001 - counted, reported, and the loop goes on
        traceback.print_exc()
        result.gate(False, what)
        return None


# --------------------------------------------------------------------------
# the timed loop


def fastest(res: Result, workload: str, seed: int, items: list, run, seconds: float) -> Result:
    """Each item's fastest time over passes that repeat until ``seconds``,
    and the fastest of the set-up probes made between passes.

    ``run(res, item)`` returns (seconds, output).  Every pass runs every item
    and gates every output.  The host's load changes on a scale of seconds,
    so an item's fastest pass is a far steadier estimate of the work it
    takes than any single pass.  Cold start is more sensitive to that load
    than in-process work, so the set-up probes are spread evenly over the
    run rather than made together, and the fastest one is kept.
    """
    best, setups = [float("inf")] * len(items), []
    start, passes = time.perf_counter(), 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        due = (time.perf_counter() - start) * SETUP_REPS / seconds
        if len(setups) < min(due + 1, SETUP_REPS):
            setups.append(setup_probe(workload, seed))
        for i, item in enumerate(items):
            best[i] = min(best[i], run(res, item)[0])
        passes += 1
    return res.finish(min(setups), best)


# --------------------------------------------------------------------------
# rearrange


def run_check(res: Result, item: tuple, tracer=None) -> tuple:
    """One rearrangement check, in a span named after its family when
    traced; (seconds, relative residual or None if it raised)."""
    family, gate, call = item
    with tracer.span(f"vpv.{family}") if tracer else nullcontext():
        t0 = time.perf_counter()
        sides = _guarded(res, family, call)
        seconds = time.perf_counter() - t0
    if sides is None:
        return seconds, None
    residual = inputs.rel_residual(*sides)
    res.gate(residual < gate, f"{family} residual {residual:.3e}")
    return seconds, residual


def rearrange(seed: int, seconds: float) -> Result:
    items = inputs.rearrange_sweep(random.Random(seed))
    return fastest(Result(), "rearrange", seed, items, run_check, seconds)


# --------------------------------------------------------------------------
# exact


def run_case(res: Result, item: tuple, tracer=None) -> tuple:
    """One battery case, in a span named after it when traced;
    (seconds, output or None if it raised)."""
    case, call, gate = item
    with tracer.span(case) if tracer else nullcontext():
        t0 = time.perf_counter()
        out = _guarded(res, case, call)
        seconds = time.perf_counter() - t0
    if out is not None:
        ok = _guarded(res, case, lambda: gate(out))
        if ok is not None:
            res.gate(ok, case)
    return seconds, out


def exact(seed: int, seconds: float) -> Result:
    items = inputs.exact_round(random.Random(seed))
    return fastest(Result(), "exact", seed, items, run_case, seconds)


WORKLOADS = {"rearrange": rearrange, "exact": exact}
