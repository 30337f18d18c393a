"""Fresh-interpreter probes that the benchmark starts as child processes.

    python3 perfbench/probe.py setup <workload> <seed>   seconds of set-up
    python3 perfbench/probe.py sieve                     seconds of the first factorize
    python3 -X importtime perfbench/probe.py import-cli  import vpvtotients.cli only
    python3 perfbench/probe.py audit-trace <seed>        traced CLI audit, as JSON

Run from the checkout root with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import json
import random
import sys
import time


def setup(workload: str, seed: int) -> float:
    """Import what the workload calls and make its first, untimed call."""
    t0 = time.perf_counter()
    if workload == "rearrange":
        from vpvtotients import vpv

        import inputs

        rng = random.Random(seed)
        vpv.thm_5_10_check(inputs.rand_seq(rng, 8),
                           [inputs.rand_seq(rng, 8) for _ in range(3)], 0.5)
    elif workload == "exact":
        from vpvtotients import analytic, series, totients, vpv

        totients.ramanujan_cohen_enum(12, (seed % 12, 3))
        totients.phi_t(2, 2, 12)
        series.ps_exp(series.PowerSeries((0, 1, seed % 5)))
        analytic.dirichlet_partial_cohen(1.0, (6,), 100)
        vpv.visible_points(vpv.RadialRegion(2, (5, 5)))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return time.perf_counter() - t0


def sieve() -> float:
    from vpvtotients.exactcore import factorize

    t0 = time.perf_counter()
    factorize(2)
    return time.perf_counter() - t0


def audit_trace(seed: int) -> dict:
    """Run the CLI audit with every registry lookup into a layer, every
    check and the report serialisation wrapped in spans."""
    from tracing import AUDIT_LAYERS, Tracer

    import vpvtotients.cli as cli
    from vpvtotients.audit import registry, report

    tracer = Tracer()
    for name, obj in list(vars(registry).items()):
        layer = getattr(obj, "__module__", "").removeprefix("vpvtotients.")
        if inspect.isfunction(obj) and layer in AUDIT_LAYERS:
            setattr(registry, name, tracer.wrap(f"{layer}.{name}", obj))
    for id_, check in list(registry.REGISTRY.items()):
        registry.REGISTRY[id_] = dataclasses.replace(
            check, procedure=tracer.wrap(f"audit.id.{id_}", check.procedure)
        )
    report.AuditReport.to_json = tracer.wrap("audit.report", report.AuditReport.to_json)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["audit", "--format", "json", "--seed", str(seed)])
    return {"exit": code, "stdout": out.getvalue(), "spans": tracer.spans}


def main(argv: list) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 3:
        print(setup(argv[1], int(argv[2])))
    elif mode == "sieve":
        print(sieve())
    elif mode == "import-cli":
        import vpvtotients.cli  # noqa: F401
    elif mode == "audit-trace" and len(argv) == 2:
        print(json.dumps(audit_trace(int(argv[1]))))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
