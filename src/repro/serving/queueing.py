"""Discrete-event queue simulation for generation serving.

A pool of identical GPU servers drains the request stream FIFO; the
output is the latency distribution and utilization a deployment team
would look at.  Service times come from the performance model, so the
end-to-end story — "Flash Attention cuts SD service time 1.6x, which
at 70% load cuts p95 latency by ..." — is computable inside this
repository.

This single-pool FIFO simulator is standalone: it predates and shares
no code with the fleet engine (:func:`repro.serving.fleet.simulate_fleet`).
All times are seconds (``_s`` suffix).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.serving.workload import Request


@dataclass(frozen=True)
class CompletedRequest:
    """A request with its simulated timeline."""

    request: Request
    start_s: float
    finish_s: float
    server: int

    @property
    def queueing_s(self) -> float:
        return self.start_s - self.request.arrival_s

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.request.arrival_s


@dataclass(frozen=True)
class QueueReport:
    """Summary of one simulation."""

    completed: tuple[CompletedRequest, ...]
    servers: int
    makespan_s: float

    @property
    def throughput_per_s(self) -> float:
        if not self.completed or self.makespan_s == 0.0:
            return 0.0
        return len(self.completed) / self.makespan_s

    @property
    def utilization(self) -> float:
        if not self.completed or self.makespan_s == 0.0:
            return 0.0
        busy = sum(
            record.finish_s - record.start_s for record in self.completed
        )
        return busy / (self.servers * self.makespan_s)

    def latency_percentile(self, percentile: float) -> float:
        """Latency at ``percentile`` (nearest-rank over completions).

        An empty report (idle server) has no latency distribution;
        every percentile is 0.0 by convention.
        """
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if not self.completed:
            return 0.0
        latencies = sorted(
            record.latency_s for record in self.completed
        )
        index = max(
            0, min(len(latencies) - 1,
                   round(percentile / 100.0 * len(latencies)) - 1)
        )
        return latencies[index]

    @property
    def mean_latency_s(self) -> float:
        if not self.completed:
            return 0.0
        return sum(
            record.latency_s for record in self.completed
        ) / len(self.completed)

    @property
    def mean_queueing_s(self) -> float:
        if not self.completed:
            return 0.0
        return sum(
            record.queueing_s for record in self.completed
        ) / len(self.completed)


def simulate_queue(
    requests: list[Request], servers: int = 1
) -> QueueReport:
    """FIFO multi-server simulation (no preemption, no batching)."""
    if servers <= 0:
        raise ValueError("need at least one server")
    if not requests:
        raise ValueError("no requests to simulate")
    ordered = sorted(requests, key=lambda request: request.arrival_s)
    # Heap of (free_at, server_index).
    free_at = [(0.0, index) for index in range(servers)]
    heapq.heapify(free_at)
    completed: list[CompletedRequest] = []
    for request in ordered:
        available, server = heapq.heappop(free_at)
        start = max(available, request.arrival_s)
        finish = start + request.service_s
        completed.append(
            CompletedRequest(
                request=request, start_s=start, finish_s=finish,
                server=server,
            )
        )
        heapq.heappush(free_at, (finish, server))
    makespan = max(record.finish_s for record in completed)
    return QueueReport(
        completed=tuple(completed), servers=servers, makespan_s=makespan
    )


def servers_for_slo(
    requests: list[Request],
    *,
    p95_slo_s: float,
    max_servers: int = 64,
) -> int | None:
    """Smallest server count meeting a p95 latency SLO, or None."""
    if p95_slo_s <= 0:
        raise ValueError("SLO must be positive")
    for servers in range(1, max_servers + 1):
        report = simulate_queue(requests, servers=servers)
        if report.latency_percentile(95.0) <= p95_slo_s:
            return servers
    return None
