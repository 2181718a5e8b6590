"""Per-tenant latency reporting from the run ledger.

The service records a ``serve.job.done`` event (with
``latency_cycles``) for every completed job and a ``serve.reject`` for
every refused one, so the ledger alone reconstructs the per-tenant SLO
picture — p50/p99 latency, admission-rejection counts — long after the
service object is gone.  That is what the soak benchmark gates on.

Percentiles use the nearest-rank method on exact integer cycle
latencies: deterministic, no interpolation, no floating-point noise.
The per-tenant book is the service's own ``TenantAccount``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..obs.registry import nearest_rank_percentile
from .queue import TenantAccount


@dataclass
class ServiceReport:
    """Per-tenant serving outcomes reconstructed from ledger events."""

    tenants: Dict[str, TenantAccount]

    @classmethod
    def from_ledger(cls, ledger, run_id: Optional[str] = None
                    ) -> "ServiceReport":
        tenants: Dict[str, TenantAccount] = {}

        def bucket(record) -> TenantAccount:
            tenant = str(record.get("tenant"))
            if tenant not in tenants:
                tenants[tenant] = TenantAccount(tenant)
            return tenants[tenant]

        for record in ledger.events("serve.admit", run_id=run_id):
            bucket(record).admitted += 1
        for record in ledger.events("serve.reject", run_id=run_id):
            bucket(record).rejected += 1
        for record in ledger.events("serve.job.failed", run_id=run_id):
            bucket(record).failed += 1
        for record in ledger.events("serve.job.done", run_id=run_id):
            report = bucket(record)
            report.completed += 1
            report.latencies.append(int(record["latency_cycles"]))
        return cls(tenants=tenants)

    @property
    def admitted(self) -> int:
        return sum(t.admitted for t in self.tenants.values())

    @property
    def rejected(self) -> int:
        return sum(t.rejected for t in self.tenants.values())

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tenants.values())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tenants.values())

    @property
    def dropped_admitted(self) -> int:
        """Jobs the service admitted but never finished — the soak
        benchmark's zero-loss gate."""
        return self.admitted - self.completed - self.failed

    def p99_latency_cycles(self) -> Optional[int]:
        merged = [
            latency
            for report in self.tenants.values()
            for latency in report.latencies
        ]
        return nearest_rank_percentile(merged, 99)

    def render(self) -> str:
        lines = [
            f"serve report: {self.admitted} admitted, "
            f"{self.rejected} rejected, {self.completed} completed, "
            f"{self.failed} failed, fleet p99 "
            f"{self.p99_latency_cycles()} cycles"
        ]
        for tenant in sorted(self.tenants):
            report = self.tenants[tenant]
            lines.append(
                f"  {tenant}: {report.completed}/{report.admitted} done, "
                f"{report.rejected} rejected, p50 "
                f"{report.p50_latency_cycles} / p99 "
                f"{report.p99_latency_cycles} cycles"
            )
        return "\n".join(lines)
