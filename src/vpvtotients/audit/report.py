"""Audit execution and reporting.

run_audit executes registered identity checks and assembles an AuditReport
whose serialization is deterministic: two runs with the same seed against the
same package version produce byte-identical text and JSON output.  Entries
are sorted by identity id; each check receives its own random.Random seeded
from "<seed>:<id>", so the outcome of one check never depends on which other
checks ran.

Serialized entry fields: id, anchor, status, params, max_residual,
counterexample, notes.  The report carries seed and version alongside.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .. import __version__
from ..errors import UsageError
from .registry import REGISTRY, STATUSES, Outcome


@dataclass(frozen=True)
class AuditEntry:
    id: str
    anchor: str
    status: str
    params: str
    max_residual: Optional[float]
    counterexample: Optional[str]
    notes: tuple
    expected: str

    @property
    def as_expected(self) -> bool:
        return self.status == self.expected

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "params": self.params,
            "max_residual": self.max_residual,
            "counterexample": self.counterexample,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class AuditReport:
    entries: tuple
    seed: int
    version: str

    @property
    def all_expected(self) -> bool:
        return all(e.as_expected for e in self.entries)

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "version": self.version,
            "entries": [e.to_dict() for e in self.entries],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [f"identity audit (seed={self.seed}, version={self.version})"]
        width = max((len(e.id) for e in self.entries), default=2)
        for e in self.entries:
            mark = "" if e.as_expected else "  [UNEXPECTED: wanted " + e.expected + "]"
            lines.append(f"{e.id:<{width}}  {e.status}{mark}")
            lines.append(f"{'':<{width}}  anchor: \"{e.anchor}\"")
            lines.append(f"{'':<{width}}  params: {e.params}")
            if e.max_residual is not None:
                lines.append(f"{'':<{width}}  max residual: {e.max_residual:.3e}")
            if e.counterexample:
                lines.append(f"{'':<{width}}  counterexample: {e.counterexample}")
            for note in e.notes:
                lines.append(f"{'':<{width}}  note: {note}")
        counts = {s: 0 for s in STATUSES}
        for e in self.entries:
            counts[e.status] += 1
        summary = ", ".join(f"{s}={n}" for s, n in counts.items() if n)
        lines.append(f"{len(self.entries)} identities: {summary}")
        lines.append(
            "all outcomes match expectations"
            if self.all_expected
            else "UNEXPECTED OUTCOMES PRESENT"
        )
        return "\n".join(lines) + "\n"


def run_audit(ids: Optional[Sequence[str]] = None, seed: int = 0) -> AuditReport:
    """Run the named checks (all of them when ids is empty or None)."""
    if ids:
        unknown = sorted(set(ids) - set(REGISTRY))
        if unknown:
            raise UsageError(f"unknown identity id(s): {', '.join(unknown)}")
        selected = sorted(set(ids))
    else:
        selected = sorted(REGISTRY)
    entries = []
    for id_ in selected:
        check = REGISTRY[id_]
        rng = random.Random(f"{seed}:{id_}")
        outcome: Outcome = check.procedure(rng)
        if outcome.status not in STATUSES:
            raise RuntimeError(f"{id_}: invalid status {outcome.status!r}")
        entries.append(
            AuditEntry(
                id=check.id,
                anchor=check.anchor,
                status=outcome.status,
                params=check.params,
                max_residual=outcome.max_residual,
                counterexample=outcome.counterexample,
                notes=tuple(outcome.notes),
                expected=check.expected,
            )
        )
    return AuditReport(entries=tuple(entries), seed=seed, version=__version__)
