"""Verification report assembly and serialization.

The report schema is frozen (report_version 1):

    {
      "report_version": 1,
      "config": { ...echo of the effective run configuration... },
      "entries": [
        {"check_id": str, "params": {"N","l","omega0","g0"} | null,
         "residual": float | null, "tolerance": float | null,
         "pass": bool | null, "status": "ran" | "skipped" | "error",
         "reason": str, "runtime_ms": float},
        ...
      ],
      "summary": {"total", "passed", "failed", "skipped"},
      "canonical_hash": sha256 hex over the entries with runtime_ms removed
    }

residual is null for skipped entries and for error entries (the check
raised or produced a non-finite value; pass is false). The JSON is strict:
it never holds NaN or Infinity.

Entry order is deterministic (check_id, then the parameter snapshot), and
runtime_ms is excluded from the canonical hash, so reports from identical
inputs are byte-identical apart from timings.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass

from .checks import CheckOutcome

__all__ = ["VerificationReport", "build_report"]

REPORT_VERSION = 1

_CSV_COLUMNS = ("check_id", "N", "l", "omega0", "g0", "residual", "tolerance",
                "pass", "status", "reason", "runtime_ms")


def _entry_sort_key(entry: dict):
    p = entry["params"] or {}
    return (entry["check_id"], p.get("N", -1), p.get("l", -1),
            p.get("omega0", -1.0), p.get("g0", float("-inf")))


def _entry_dict(o: CheckOutcome) -> dict:
    return {
        "check_id": o.check_id,
        "params": dict(o.params) if o.params is not None else None,
        "residual": o.residual,
        "tolerance": o.tolerance,
        "pass": o.passed,
        "status": o.status,
        "reason": o.reason,
        "runtime_ms": round(o.runtime_ms, 3),
    }


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple
    summary: dict
    config: dict

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def canonical_hash(self) -> str:
        stripped = [{k: v for k, v in e.items() if k != "runtime_ms"}
                    for e in self.entries]
        payload = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "config": self.config,
            "entries": list(self.entries),
            "summary": self.summary,
            "canonical_hash": self.canonical_hash(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(_CSV_COLUMNS) + "\n")
        for e in self.entries:
            p = e["params"] or {}
            row = (
                e["check_id"],
                p.get("N", ""), p.get("l", ""), p.get("omega0", ""), p.get("g0", ""),
                "" if e["residual"] is None else repr(e["residual"]),
                "" if e["tolerance"] is None else repr(e["tolerance"]),
                "" if e["pass"] is None else str(e["pass"]).lower(),
                e["status"],
                e["reason"].replace(",", ";"),
                e["runtime_ms"],
            )
            buf.write(",".join(str(v) for v in row) + "\n")
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        width = max((len(e["check_id"]) for e in self.entries), default=10)
        for e in self.entries:
            p = e["params"]
            ptxt = ("global" if p is None else
                    f"N={p['N']} l={p['l']} omega0={p['omega0']:g} g0={p['g0']:g}")
            if e["status"] == "skipped":
                lines.append(f"SKIP {e['check_id']:<{width}} {ptxt:<40} {e['reason']}")
                continue
            tag = "PASS" if e["pass"] else "FAIL"
            resid = "null" if e["residual"] is None else f"{e['residual']:.3e}"
            lines.append(
                f"{tag} {e['check_id']:<{width}} {ptxt:<40} "
                f"residual={resid} tol={e['tolerance']:.1e} {e['reason']}".rstrip()
            )
        s = self.summary
        lines.append(
            f"summary: total={s['total']} passed={s['passed']} "
            f"failed={s['failed']} skipped={s['skipped']}"
        )
        lines.append(f"canonical_hash: {self.canonical_hash()}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")


def build_report(outcomes, config: dict) -> VerificationReport:
    entries = sorted((_entry_dict(o) for o in outcomes), key=_entry_sort_key)
    summary = {
        "total": len(entries),
        "passed": sum(1 for e in entries if e["pass"] is True),
        "failed": sum(1 for e in entries if e["pass"] is False),
        "skipped": sum(1 for e in entries if e["status"] == "skipped"),
    }
    return VerificationReport(tuple(entries), summary, dict(config))
