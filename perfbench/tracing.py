"""The traced run: spans around the calls into each layer, and the per-layer
metrics they give.

Spans are recorded from the benchmark's own files, at the boundary where a
workload (or, for the audit, the registry) calls into a layer.  They are kept
in memory as ``[name, start, end, parent, self]`` and written to
``.perfbench/`` when the run ends.  Self time is a span's duration minus the
time covered by its child spans.

A traced run measures every layer, each on the workload that exercises it,
so one run yields every per-layer metric whatever ``--workload`` says.  Each
pass also times the same operations untraced, interleaved, and reports
traced over untraced time as that workload's tracing overhead.
"""

from __future__ import annotations

import functools
import json
import math
import random
import statistics
import time
from contextlib import contextmanager

import inputs
import workloads

#: audit ids reported one by one; the other ids are summed in audit.rest_s
AUDIT_IDS = ("eq-5.14", "eq-3.1", "eq-2.5", "eq-3.4", "cor-5.11", "thm-5.2",
             "eq-5.11", "eq-4.13", "eq-4.12", "cor-2.3")
AUDIT_LAYERS = ("vpv", "series", "totients", "analytic")
CLI = ["-m", "vpvtotients.cli"]
#: commands whose cold-start latency is a cli.* metric
CLI_COMMANDS = ("compute_jordan", "series_partition", "lattice_3d")
#: fresh processes per probe and per command in the cli pass
CLI_REPS = 3
#: the vpvtotients._kernels entry points, and the grid k^m (or box) a call
#: with these arguments enumerates
KERNEL_GRIDS = {
    "selector_tuples": lambda m, k: k**m,
    "selector_count": lambda m, k: k**m,
    "selector_cos_sum": lambda k, n: k ** len(n),
    "selector_char_sum": lambda k, thetas: k ** len(thetas),
    "selector_power_sum": lambda t, m, k: k**m,
    "visible_points_box": lambda bounds: math.prod(bounds),
}


class Tracer:
    """In-memory spans of one process, in the order they were opened."""

    def __init__(self):
        self.spans = []
        self._open = []  # [index, seconds covered by children]

    def current(self):
        """Index of the innermost open span, or None."""
        return self._open[-1][0] if self._open else None

    @contextmanager
    def span(self, name: str):
        index, parent = len(self.spans), self.current()
        self.spans.append(None)
        self._open.append([index, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _, covered = self._open.pop()
            if self._open:
                self._open[-1][1] += end - start
            self.spans[index] = [name, start, end, parent, end - start - covered]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def durations(spans: list, name: str) -> list:
    return [end - start for n, start, end, _, _ in spans if n == name]


def self_time(spans: list, prefix: str) -> float:
    return sum(own for n, _, _, _, own in spans if n.startswith(prefix))


def _median_ms(spans: list, name: str) -> float:
    return statistics.median(durations(spans, name)) * 1e3


# --------------------------------------------------------------------------
# one pass per layer group; each item runs untraced, then traced


def exact_pass(res, tracer: Tracer, seed: int) -> dict:
    """_kernels, totients, series and analytic, through one battery round.

    In the traced calls every _kernels entry point is wrapped where totients
    and vpv look it up, to count the tuples it returns and the grid it
    enumerates.
    """
    from vpvtotients import _kernels

    originals = {name: getattr(_kernels, name) for name in KERNEL_GRIDS}
    tuples, grids = 0, [0]

    def counted(name, kernel):
        def call(*args):
            nonlocal tuples
            grids.append(KERNEL_GRIDS[name](*args))
            out = kernel(*args)
            tuples += len(out) if isinstance(out, list) else 0
            return out

        return call

    plain = traced = 0.0
    items = inputs.exact_round(random.Random(seed))
    for item in items:
        plain += workloads.run_case(res, item)[0]
        for name, kernel in originals.items():
            setattr(_kernels, name, counted(name, kernel))
        try:
            traced += workloads.run_case(res, item, tracer)[0]
        finally:
            for name, kernel in originals.items():
                setattr(_kernels, name, kernel)
    metrics = {}
    for case in dict.fromkeys(case for case, _, _ in items):
        if case.startswith("totients."):
            metrics[f"{case}_us"] = (_median_ms(tracer.spans, case) * 1e3, "us")
        else:
            metrics[f"{case}_ms"] = (_median_ms(tracer.spans, case), "ms")
    metrics["kernels.tuples"] = (tuples, "count")
    metrics["kernels.max_grid"] = (max(grids), "count")
    metrics["trace.exact_overhead"] = (traced / plain, "ratio")
    return metrics


def rearrange_pass(res, tracer: Tracer, seed: int) -> dict:
    """vpv, through one sweep of rearrangement checks.  The selector calls
    vpv makes are spanned and counted where vpv looks enumerate_selector up."""
    from vpvtotients import vpv

    original, seen = vpv.enumerate_selector, set()
    calls = repeats = 0

    def selector(sel, *args, **kwargs):
        nonlocal calls, repeats
        key = (tracer.current(), sel.m, sel.k)
        calls, repeats = calls + 1, repeats + (key in seen)
        seen.add(key)
        with tracer.span("vpv.selector"):
            return original(sel, *args, **kwargs)

    plain = traced = worst = 0.0
    for item in inputs.rearrange_sweep(random.Random(seed)):
        seconds, r1 = workloads.run_check(res, item)
        plain += seconds
        vpv.enumerate_selector = selector
        try:
            seconds, r2 = workloads.run_check(res, item, tracer)
        finally:
            vpv.enumerate_selector = original
        traced += seconds
        worst = max(worst, r1 or 0.0, r2 or 0.0)
    spans = tracer.spans
    families = [f"vpv.{family}" for family, _, _ in inputs.FAMILIES]
    checks = sum(len(durations(spans, f)) for f in families)
    check_s = sum(sum(durations(spans, f)) for f in families)
    metrics = {f"{f}_ms": (_median_ms(spans, f), "ms") for f in families}
    metrics.update({
        "vpv.selector_calls_per_check": (calls / checks, "count"),
        "vpv.selector_repeat_ratio": (repeats / calls, "ratio"),
        "vpv.selector_time_share": (sum(durations(spans, "vpv.selector")) / check_s, "ratio"),
        "vpv.worst_residual": (worst, "ratio"),
        "trace.rearrange_overhead": (traced / plain, "ratio"),
    })
    return metrics


def _import_ms(stderr: bytes) -> dict:
    """Cumulative import time in ms per module, from ``-X importtime``."""
    out = {}
    for line in stderr.decode().splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            out.setdefault(fields[2].strip(), int(fields[1]) / 1e3)
    return out


def run_command(res, item: tuple, flags=()) -> float:
    """One fresh CLI process, gated on its exit code and exact stdout;
    its wall seconds."""
    name, args, expected = item
    wall, proc = workloads.run_child([*flags, *CLI, *args])
    res.gate(
        proc.returncode == 0 and proc.stdout == expected.encode(),
        f"{name} {' '.join(args)} (exit {proc.returncode})",
    )
    return wall


def cli_pass(res, seed: int) -> dict:
    """cli and exactcore start-up, in fresh processes; ``-X importtime`` is
    the trace of a one-shot command."""
    imports, sieve = [], []
    for _ in range(CLI_REPS):
        _, proc = workloads.run_child(["-X", "importtime", workloads.PROBE, "import-cli"])
        res.gate(proc.returncode == 0, "import vpvtotients.cli")
        imports.append(_import_ms(proc.stderr))
        _, proc = workloads.run_child([workloads.PROBE, "sieve"])
        res.gate(proc.returncode == 0, "sieve probe")
        sieve.append(float(proc.stdout.split()[-1]) * 1e3)
    rng, walls = random.Random(seed), {}
    plain = traced = 0.0
    for _ in range(CLI_REPS):
        for item in inputs.cli_commands(rng):
            wall = run_command(res, item)
            walls.setdefault(item[0], []).append(wall)
            plain += wall
            traced += run_command(res, item, ("-X", "importtime"))
    metrics = {
        f"cli.import{suffix}_ms": (statistics.median(i[module] for i in imports), "ms")
        for suffix, module in (("", "vpvtotients.cli"), ("_numpy", "numpy"),
                               ("_audit", "vpvtotients.audit"))
    }
    metrics.update({f"cli.{name}_s": (statistics.median(walls[name]), "s") for name in CLI_COMMANDS})
    metrics["exactcore.sieve_ms"] = (statistics.median(sieve), "ms")
    metrics["trace.cli_overhead"] = (traced / plain, "ratio")
    return metrics


def check_audit_report(stdout: bytes, seed: int, expected: dict) -> bool:
    """The JSON report names every registry id once, in order, each with its
    recorded expectation, and the closing line confirms it."""
    lines = stdout.decode().splitlines()
    if len(lines) != 2 or lines[1] != f"{len(expected)} identities audited, all outcomes as expected":
        return False
    try:
        report = json.loads(lines[0])
        entries = report["entries"]
        return (
            report["seed"] == seed
            and [e["id"] for e in entries] == sorted(expected)
            and all(e["status"] == expected[e["id"]] for e in entries)
        )
    except (ValueError, KeyError, TypeError):
        return False


def audit_pass(res, seed: int) -> tuple:
    """audit: the CLI audit untraced, then again in a child that wraps each
    check, each registry lookup into a layer, and the report serialisation
    in spans; (metrics, the child's spans).  Both reports must be the same
    bytes."""
    from vpvtotients.audit import REGISTRY

    expected = {id_: check.expected for id_, check in REGISTRY.items()}
    args = [*CLI, "audit", "--format", "json", "--seed", str(seed)]
    plain, proc = workloads.run_child(args)
    res.gate(proc.returncode == 0 and check_audit_report(proc.stdout, seed, expected),
             f"audit --seed {seed} (exit {proc.returncode})", len(expected))
    traced, child = workloads.run_child([workloads.PROBE, "audit-trace", str(seed)])
    if child.returncode != 0:
        raise RuntimeError(f"traced audit failed: {child.stderr.decode()}")
    out = json.loads(child.stdout)
    res.gate(out["exit"] == 0 and out["stdout"].encode() == proc.stdout,
             "traced audit report differs from the untraced one", len(expected))
    spans = out["spans"]
    ids = {n.removeprefix("audit.id."): end - start
           for n, start, end, _, _ in spans if n.startswith("audit.id.")}
    metrics = {"audit.wall_s": (plain, "s")}
    metrics.update({f"audit.id.{i}_s": (ids.pop(i), "s") for i in AUDIT_IDS})
    metrics["audit.rest_s"] = (sum(ids.values()), "s")
    metrics.update({f"audit.{layer}_s": (self_time(spans, f"{layer}."), "s")
                    for layer in AUDIT_LAYERS})
    metrics["audit.report_ms"] = (_median_ms(spans, "audit.report"), "ms")
    metrics["trace.audit_overhead"] = (traced / plain, "ratio")
    return metrics, spans


def traced_run(seed: int, env: dict):
    """Every per-layer metric, from one traced pass over each layer group."""
    res, tracer = workloads.Result(), Tracer()
    metrics = exact_pass(res, tracer, seed)
    metrics.update(rearrange_pass(res, tracer, seed))
    metrics.update(cli_pass(res, seed))
    audit_metrics, audit_spans = audit_pass(res, seed)
    metrics.update(audit_metrics)
    res.metrics = metrics
    out = workloads.ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{seed}.json", "w") as fh:
        json.dump({"env": env, "spans": {"bench": tracer.spans, "audit": audit_spans}}, fh)
    return res
