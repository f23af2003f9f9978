"""Serving workload generation.

The paper's closing argument is about "designing efficient and
deployable systems" for TTI/TTV; deployability is a queueing question
as much as a kernel question.  This module generates synthetic request
streams whose per-request service times come from the same profiles as
everything else in the repository: homogeneous Poisson arrivals
(:func:`generate_requests`) and non-homogeneous arrivals over a
time-varying rate — diurnal cycles and flash-crowd bursts
(:func:`generate_requests_pattern`) — which is what production TTI
traffic actually looks like (ServeGen, arXiv:2505.09999).

All times in this module are **seconds** of simulation time.

Million-request streams do not fit the one-object-per-request
representation comfortably: :class:`RequestBatch` is the same stream
as a struct-of-arrays column set (numpy), produced at array speed by
:func:`generate_requests_batch` and consumed natively by the columnar
fleet engine (``docs/FLEET_CORE.md``).  Both fleet engines accept
either representation.

Seeding contract
----------------

Every generator in this module (and :mod:`repro.serving.faults`) is a
pure function of its arguments: all randomness flows through one
seeded generator instance consumed in a single documented order.  For
:func:`generate_requests` / :func:`generate_requests_pattern` that is
``random.Random(seed)`` with per-request draws (inter-arrival draw,
then model choice, then jitter draw); the same arguments therefore
produce *byte-identical* request streams — ``repr()`` and JSON
serializations compare equal — across processes and platforms, because
CPython's Mersenne Twister is deterministic and no iteration order
over unordered containers is involved (model names are taken in
``dict`` insertion order, which is part of the mix's value).
:func:`generate_requests_batch` draws from ``numpy``'s seeded PCG64
generator in column order (all gaps, then all model choices, then all
jitters) — equally deterministic, but a *different stream* from the
scalar generators at the same seed.  The client-structured generator
(:mod:`repro.serving.traffic`) extends the same contract with its own
documented draw order (population vectors, per-client draws in id
order, per-request columns in arrival order).  Tests pin this contract
(``tests/serving/test_determinism.py``); any change to a draw order is
a breaking change to recorded workloads and traces.

Zero-rate inputs are valid and yield empty streams (an "empty
scenario" — e.g. a blacked-out region — must be expressible without
raising); negative rates are rejected.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class Request:
    """One generation request (times in seconds).

    Engine compatibility: consumed by both fleet engines; the columnar
    engine ingests sequences of these into :class:`RequestBatch`
    columns at simulation start.
    """

    request_id: int
    arrival_s: float
    model: str
    service_s: float

    def __post_init__(self) -> None:
        if self.arrival_s < 0 or self.service_s <= 0:
            raise ValueError("invalid request timing")


@dataclass(frozen=True, eq=False)
class RequestBatch:
    """A request stream as struct-of-arrays columns (times in seconds).

    The same information as a ``list[Request]``, laid out for the
    columnar fleet engine: one interned model-name table plus four
    aligned numpy columns.  A million-request day is ~32 MB of arrays
    instead of ~10⁶ boxed objects, and ingestion into the engine is a
    buffer handoff rather than an attribute-access loop.

    :func:`repro.serving.fleet.simulate_fleet` accepts a
    ``RequestBatch`` wherever it accepts ``Sequence[Request]``; the
    reference engine in :mod:`repro.serving.oracle` materializes it via
    :meth:`to_requests` first.

    Attributes:
        models: interned model-name table; ``model_ids`` indexes it.
        arrival_s: float64 arrival times (seconds, non-negative; not
            required to be sorted — engines order arrivals stably).
        service_s: float64 nominal single-request service times
            (seconds, positive).
        model_ids: integer index into ``models`` per request.
        request_ids: client-visible request ids (feed retry-jitter
            seeding and hedge de-duplication, exactly like
            ``Request.request_id``).
    """

    models: tuple[str, ...]
    arrival_s: np.ndarray
    service_s: np.ndarray
    model_ids: np.ndarray
    request_ids: np.ndarray
    _materialized: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("batch needs a model table")
        lengths = {
            len(self.arrival_s), len(self.service_s),
            len(self.model_ids), len(self.request_ids),
        }
        if len(lengths) != 1:
            raise ValueError("request columns must be aligned")
        if len(self.arrival_s) and float(self.arrival_s.min()) < 0:
            raise ValueError("arrival times must be non-negative")
        if len(self.service_s) and float(self.service_s.min()) <= 0:
            raise ValueError("service times must be positive")
        if len(self.model_ids) and not (
            0 <= int(self.model_ids.min())
            and int(self.model_ids.max()) < len(self.models)
        ):
            raise ValueError("model ids must index the model table")

    def __len__(self) -> int:
        return len(self.arrival_s)

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "RequestBatch":
        """Columnarize a request list (model table in sorted order)."""
        names = sorted({request.model for request in requests})
        index = {name: i for i, name in enumerate(names)}
        return cls(
            models=tuple(names) or ("<empty>",),
            arrival_s=np.array(
                [r.arrival_s for r in requests], dtype=np.float64
            ),
            service_s=np.array(
                [r.service_s for r in requests], dtype=np.float64
            ),
            model_ids=np.array(
                [index[r.model] for r in requests], dtype=np.int64
            ),
            request_ids=np.array(
                [r.request_id for r in requests], dtype=np.int64
            ),
        )

    def request(self, index: int) -> Request:
        """Materialize one request (cached — ids stay stable)."""
        cached = self._materialized.get(index)
        if cached is None:
            cached = Request(
                request_id=int(self.request_ids[index]),
                arrival_s=float(self.arrival_s[index]),
                model=self.models[int(self.model_ids[index])],
                service_s=float(self.service_s[index]),
            )
            self._materialized[index] = cached
        return cached

    def to_requests(self) -> list[Request]:
        """Materialize the whole batch as ``Request`` objects."""
        arrivals = self.arrival_s.tolist()
        services = self.service_s.tolist()
        mids = self.model_ids.tolist()
        rids = self.request_ids.tolist()
        models = self.models
        return [
            Request(
                request_id=rids[i], arrival_s=arrivals[i],
                model=models[mids[i]], service_s=services[i],
            )
            for i in range(len(arrivals))
        ]


@dataclass(frozen=True)
class WorkloadMix:
    """A traffic mix: share and service time per model."""

    shares: dict[str, float]
    service_s: dict[str, float]

    def __post_init__(self) -> None:
        if not self.shares:
            raise ValueError("mix must contain at least one model")
        if set(self.shares) != set(self.service_s):
            raise ValueError("shares and service times must share keys")
        total = sum(self.shares.values())
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(f"shares must sum to 1, got {total}")
        if any(share < 0 for share in self.shares.values()):
            raise ValueError("shares must be non-negative")
        if any(value <= 0 for value in self.service_s.values()):
            raise ValueError("service times must be positive")

    @property
    def mean_service_s(self) -> float:
        return sum(
            self.shares[name] * self.service_s[name]
            for name in self.shares
        )

    def saturation_rate(self) -> float:
        """Arrival rate (req/s) at which one server hits 100% load."""
        return 1.0 / self.mean_service_s


def suite_mix_from_profiles(
    profiles: dict[str, object],
    shares: dict[str, float],
    use_flash: bool = True,
) -> WorkloadMix:
    """Build a mix from cached suite profiles.

    ``profiles`` is the ``{name: (baseline, flash)}`` mapping from
    :func:`repro.experiments.suite_cache.all_profiles`.
    """
    service = {}
    for name in shares:
        baseline, flash = profiles[name]
        result = flash if use_flash else baseline
        service[name] = result.total_time_s
    return WorkloadMix(shares=dict(shares), service_s=service)


RateFn = Callable[[float], float]
"""Instantaneous arrival rate (requests/s) as a function of sim time."""


def constant_rate(rate: float) -> RateFn:
    """A flat arrival-rate function (homogeneous Poisson).

    ``rate`` may be 0 (an empty stream) but not negative.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    return lambda _t: rate


def diurnal_rate(
    mean_rate: float,
    *,
    peak_to_trough: float = 3.0,
    period_s: float = 86400.0,
    phase_s: float = 0.0,
) -> RateFn:
    """Sinusoidal day/night traffic cycle around ``mean_rate``.

    ``peak_to_trough`` is the ratio between the daily maximum and
    minimum rate; the curve is ``mean * (1 + a*sin(...))`` with the
    amplitude ``a`` solved from that ratio, so the time-average rate
    stays ``mean_rate`` regardless of the swing.
    """
    if mean_rate < 0 or period_s <= 0:
        raise ValueError("mean rate must be non-negative, period positive")
    if peak_to_trough < 1.0:
        raise ValueError("peak_to_trough must be >= 1")
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)

    def rate(t: float) -> float:
        return mean_rate * (
            1.0 + amplitude * math.sin(
                2.0 * math.pi * (t - phase_s) / period_s
            )
        )

    return rate


def bursty_rate(
    base_rate: float,
    *,
    burst_rate: float,
    bursts: tuple[tuple[float, float], ...],
) -> RateFn:
    """Flash-crowd traffic: a base rate with rate spikes.

    ``bursts`` is a tuple of ``(start_s, duration_s)`` windows during
    which the arrival rate jumps to ``burst_rate`` — the regime where
    queues actually build and autoscalers earn their keep.
    """
    if base_rate < 0 or burst_rate < 0:
        raise ValueError("rates must be non-negative")
    if burst_rate < base_rate:
        raise ValueError("burst rate must be >= base rate")
    if any(start < 0 or duration <= 0 for start, duration in bursts):
        raise ValueError("burst windows must be non-negative/positive")
    windows = tuple(sorted(bursts))

    def rate(t: float) -> float:
        for start, duration in windows:
            if start <= t < start + duration:
                return burst_rate
        return base_rate

    return rate


def generate_requests_pattern(
    mix: WorkloadMix,
    rate_fn: RateFn,
    *,
    peak_rate: float,
    duration_s: float,
    seed: int = 0,
    service_jitter: float = 0.05,
) -> list[Request]:
    """Non-homogeneous Poisson arrivals via Lewis-Shedler thinning.

    Candidate arrivals are drawn at ``peak_rate`` (which must bound
    ``rate_fn`` from above over the horizon) and accepted with
    probability ``rate_fn(t) / peak_rate``.  Draw order per candidate is
    inter-arrival, acceptance, then (for accepted arrivals) model choice
    and jitter — the seeding contract in the module docstring.

    ``peak_rate`` may be 0 (an empty scenario yields an empty stream);
    negative rates are rejected.
    """
    if peak_rate < 0 or duration_s <= 0:
        raise ValueError(
            "peak rate must be non-negative, duration positive"
        )
    if not 0.0 <= service_jitter < 1.0:
        raise ValueError("service jitter must be in [0, 1)")
    if peak_rate == 0:
        return []
    rng = random.Random(seed)
    names = list(mix.shares)
    weights = [mix.shares[name] for name in names]
    requests: list[Request] = []
    clock = 0.0
    index = 0
    while True:
        clock += rng.expovariate(peak_rate)
        if clock >= duration_s:
            break
        instantaneous = rate_fn(clock)
        if instantaneous > peak_rate * (1.0 + 1e-9):
            raise ValueError(
                f"rate_fn({clock:.1f}) = {instantaneous:.3f} exceeds "
                f"peak_rate = {peak_rate:.3f}; thinning needs an upper "
                "bound"
            )
        if rng.random() >= instantaneous / peak_rate:
            continue
        model = rng.choices(names, weights)[0]
        jitter = 1.0 + rng.uniform(-service_jitter, service_jitter)
        requests.append(
            Request(
                request_id=index,
                arrival_s=clock,
                model=model,
                service_s=mix.service_s[model] * jitter,
            )
        )
        index += 1
    return requests


def generate_requests_batch(
    mix: WorkloadMix,
    *,
    arrival_rate: float,
    duration_s: float,
    seed: int = 0,
    service_jitter: float = 0.05,
) -> RequestBatch:
    """Poisson arrivals as a :class:`RequestBatch` (columnar stream).

    The array-speed counterpart to :func:`generate_requests`: draws
    whole columns with numpy's seeded PCG64 generator instead of one
    scalar draw per request, so a million-request stream takes tens of
    milliseconds rather than seconds.  Column draw order is all
    inter-arrival gaps, then all model choices, then all jitters — a
    deterministic but *different* random stream than the scalar
    generators at the same seed (see the module seeding contract).

    Feed it straight to :func:`repro.serving.fleet.simulate_fleet`.

    ``arrival_rate`` may be 0 — the batch is empty but keeps the
    mix's model table; negative rates are rejected.
    """
    if arrival_rate < 0 or duration_s <= 0:
        raise ValueError(
            "arrival rate must be non-negative, duration positive"
        )
    if not 0.0 <= service_jitter < 1.0:
        raise ValueError("service jitter must be in [0, 1)")
    rng = np.random.default_rng(seed)
    names = tuple(mix.shares)
    if arrival_rate == 0:
        return RequestBatch(
            models=names,
            arrival_s=np.empty(0, dtype=np.float64),
            service_s=np.empty(0, dtype=np.float64),
            model_ids=np.empty(0, dtype=np.int64),
            request_ids=np.empty(0, dtype=np.int64),
        )
    expected = arrival_rate * duration_s
    arrivals = np.empty(0, dtype=np.float64)
    clock = 0.0
    # Draw exponential gaps in blocks until the cumulative sum crosses
    # the horizon; overdraw ~4 sigma so one block almost always does.
    while True:
        block = max(1024, int(expected + 4.0 * math.sqrt(expected)))
        gaps = rng.exponential(1.0 / arrival_rate, size=block)
        times = clock + np.cumsum(gaps)
        arrivals = np.concatenate([arrivals, times])
        clock = float(times[-1])
        if clock >= duration_s:
            break
        expected = max(1.0, arrival_rate * (duration_s - clock))
    arrivals = arrivals[arrivals < duration_s]
    n = len(arrivals)

    weights = np.array([mix.shares[name] for name in names])
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against float round-off at the top
    model_ids = np.searchsorted(
        cumulative, rng.random(n), side="right"
    ).astype(np.int64)
    service_base = np.array(
        [mix.service_s[name] for name in names], dtype=np.float64
    )
    jitters = 1.0 + rng.uniform(-service_jitter, service_jitter, size=n)
    return RequestBatch(
        models=names,
        arrival_s=arrivals,
        service_s=service_base[model_ids] * jitters,
        model_ids=model_ids,
        request_ids=np.arange(n, dtype=np.int64),
    )


def generate_requests(
    mix: WorkloadMix,
    *,
    arrival_rate: float,
    duration_s: float,
    seed: int = 0,
    service_jitter: float = 0.05,
) -> list[Request]:
    """Poisson arrivals over ``duration_s`` with the given mix.

    ``service_jitter`` adds a uniform ±fraction to service times
    (prompt-length variation etc.).  Deterministic per the module's
    seeding contract: per request, the draws are inter-arrival, model
    choice, jitter.  A zero ``arrival_rate`` yields an empty stream.
    """
    if arrival_rate < 0 or duration_s <= 0:
        raise ValueError(
            "arrival rate must be non-negative, duration positive"
        )
    if not 0.0 <= service_jitter < 1.0:
        raise ValueError("service jitter must be in [0, 1)")
    if arrival_rate == 0:
        return []
    rng = random.Random(seed)
    names = list(mix.shares)
    weights = [mix.shares[name] for name in names]
    requests: list[Request] = []
    clock = 0.0
    index = 0
    while True:
        clock += rng.expovariate(arrival_rate)
        if clock >= duration_s:
            break
        model = rng.choices(names, weights)[0]
        jitter = 1.0 + rng.uniform(-service_jitter, service_jitter)
        requests.append(
            Request(
                request_id=index,
                arrival_s=clock,
                model=model,
                service_s=mix.service_s[model] * jitter,
            )
        )
        index += 1
    return requests
