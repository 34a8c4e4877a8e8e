"""Client-side traffic generation.

The paper's client (ConnectX-6 Dx, DPDK pktgen) offers load two ways:

* fixed packet rates for the sweeps of Figs. 2–5 and 9 — modelled by
  :class:`ConstantRateGenerator` (paced) and :class:`PoissonGenerator`;
* the three Meta datacenter workloads (web, cache, Hadoop) of §VI, where
  the instantaneous rate follows a log-normal distribution whose μ/σ are
  fitted to the published CDFs — modelled by :class:`LogNormalTraceGenerator`
  with the μ/σ printed in Fig. 8 and the rate rescaled so the trace
  average matches the stated 1.6 / 5.2 / 10.9 Gbps.

Generators emit batched packet events: one :class:`Packet` with
``multiplicity=B`` stands for ``B`` identical back-to-back wire packets,
which keeps event counts tractable at 100 Gbps without changing queueing
behaviour at the time scales the paper measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from statistics import NormalDist
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.addressing import AddressPlan
from repro.net.packet import MTU_BYTES, Packet
from repro.sim.engine import Simulator
from repro.sim.metrics import TimeSeries
from repro.sim.rng import RngRegistry

PayloadFactory = Callable[[int, int], Any]
PacketSink = Callable[[Packet], None]

#: 100 GbE line rate of the BlueField-2 port (bits/s).
LINE_RATE_GBPS = 100.0

#: standard normal whose quantiles place the stratified trace draws
_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class LogNormalSpec:
    """Parameters of one Meta workload's rate distribution (Fig. 8)."""

    name: str
    mu: float
    sigma: float
    average_gbps: float


#: The three datacenter traces of §VI with Fig. 8's fitted parameters.
META_TRACES: Dict[str, LogNormalSpec] = {
    "web": LogNormalSpec("web", mu=-1.37, sigma=1.97, average_gbps=1.6),
    "cache": LogNormalSpec("cache", mu=-9.0, sigma=7.55, average_gbps=5.2),
    "hadoop": LogNormalSpec("hadoop", mu=-4.18, sigma=6.56, average_gbps=10.9),
}


@dataclass
class TrafficSpec:
    """What the generated packets look like.

    ``flow_mode`` controls how flows (and therefore RSS queues) are
    assigned: ``"roundrobin"`` models a well-spread many-flow workload
    (per-queue arrivals stay paced, giving the sharp saturation knee the
    paper measures with pktgen), ``"random"`` models skewed flow hashing.
    """

    packet_bytes: int = MTU_BYTES
    batch: int = 32
    flow_count: int = 64
    flow_mode: str = "roundrobin"
    payload_factory: Optional[PayloadFactory] = None

    def __post_init__(self) -> None:
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.flow_count < 1:
            raise ValueError("flow_count must be >= 1")
        if self.flow_mode not in ("roundrobin", "random"):
            raise ValueError(f"unknown flow_mode {self.flow_mode!r}")


class PacketGenerator:
    """Base class: emits packets from ``plan.client`` to ``plan.snic``."""

    def __init__(
        self,
        plan: AddressPlan,
        spec: TrafficSpec,
        rng: RngRegistry,
        stream: str = "traffic",
    ) -> None:
        self.plan = plan
        self.spec = spec
        self._rng = rng.stream(stream)
        self.generated_packets = 0
        self.generated_bytes = 0
        self._seq = 0
        #: repro.obs tracer, set by the system when tracing; generators
        #: emit rate-schedule changes (not per-packet events) into it
        self.tracer = None

    def _make_packet(self, now: float) -> Packet:
        self._seq += 1
        spec = self.spec
        if spec.flow_mode == "roundrobin":
            flow = self._seq % spec.flow_count
        else:
            flow = self._rng.randrange(spec.flow_count)
        payload = None
        if spec.payload_factory is not None:
            payload = spec.payload_factory(self._seq, flow)
        size_bytes = spec.packet_bytes
        batch = spec.batch
        # positional, in Packet's parameter order (see make_response)
        packet = Packet(
            self.plan.client, self.plan.snic, size_bytes, payload, flow,
            -1, None, now, batch,
        )
        self.generated_packets += batch
        self.generated_bytes += size_bytes * batch
        return packet

    def _batch_interval(self, rate_gbps: float) -> float:
        """Seconds between batched arrival events at ``rate_gbps``."""
        bits = self.spec.packet_bytes * 8 * self.spec.batch
        return bits / (rate_gbps * 1e9)

    def start(self, sim: Simulator, sink: PacketSink, duration: float) -> None:
        raise NotImplementedError

    @property
    def offered_gbps(self) -> float:
        raise NotImplementedError


class ConstantRateGenerator(PacketGenerator):
    """Paced arrivals at a fixed rate, like DPDK pktgen in rate mode."""

    def __init__(
        self,
        plan: AddressPlan,
        spec: TrafficSpec,
        rng: RngRegistry,
        rate_gbps: float,
        stream: str = "traffic",
    ) -> None:
        super().__init__(plan, spec, rng, stream)
        if rate_gbps <= 0:
            raise ValueError("rate must be positive")
        self.rate_gbps = rate_gbps

    @property
    def offered_gbps(self) -> float:
        return self.rate_gbps

    def start(self, sim: Simulator, sink: PacketSink, duration: float) -> None:
        interval = self._batch_interval(self.rate_gbps)
        end = sim.now + duration
        make_packet = self._make_packet

        def emit() -> None:
            now = sim._now
            if now >= end:
                return
            sink(make_packet(now))

        # the whole arrival train is known up front: schedule it in one
        # heapify-amortized batch instead of a self-rescheduling chain.
        # Times accumulate with the same float additions the chain used
        # (t + interval per step), and the terminal no-op arrival at
        # t >= end is kept, so the event sequence is bit-identical.
        times = []
        t = sim.now
        while t < end:
            times.append(t)
            t += interval
        times.append(t)
        sim.schedule_batch(times, emit)


class PoissonGenerator(PacketGenerator):
    """Memoryless arrivals with the given average rate."""

    def __init__(
        self,
        plan: AddressPlan,
        spec: TrafficSpec,
        rng: RngRegistry,
        rate_gbps: float,
        stream: str = "traffic",
    ) -> None:
        super().__init__(plan, spec, rng, stream)
        if rate_gbps <= 0:
            raise ValueError("rate must be positive")
        self.rate_gbps = rate_gbps

    @property
    def offered_gbps(self) -> float:
        return self.rate_gbps

    def start(self, sim: Simulator, sink: PacketSink, duration: float) -> None:
        mean_interval = self._batch_interval(self.rate_gbps)
        end = sim.now + duration
        rate = 1.0 / mean_interval
        expovariate = self._rng.expovariate
        make_packet = self._make_packet

        def emit() -> None:
            now = sim._now
            if now >= end:
                return
            sink(make_packet(now))

        if self.spec.flow_mode == "random":
            # random flow assignment draws from the same stream as the
            # inter-arrival gaps (flow, gap, flow, gap, …); pre-drawing the
            # gaps would reorder those draws, so keep the recursive chain
            def emit_and_reschedule() -> None:
                now = sim._now
                if now >= end:
                    return
                sink(make_packet(now))
                sim.schedule(expovariate(rate), emit_and_reschedule)

            sim.schedule(expovariate(rate), emit_and_reschedule)
            return

        # paced modes consume the stream for gaps only: pre-draw the train
        # (same draw count and order as the chain — one per fired arrival
        # below ``end``) and batch-schedule it
        times = []
        t = sim.now + expovariate(rate)
        while t < end:
            times.append(t)
            t += expovariate(rate)
        times.append(t)
        sim.schedule_batch(times, emit)


def _clipped_mean(scale: float, draws: List[float], line_rate_gbps: float) -> float:
    """``mean(min(scale·d, line_rate))`` over ``draws``.

    One C-level pass that adds the same terms in the same order with the
    builtin ``sum`` as a generator expression would, so the result is the
    same float on any interpreter (``math.fsum`` or a reordered sum is not).
    """
    n = len(draws)
    return sum(map(min, map(scale.__mul__, draws), repeat(line_rate_gbps, n))) / n


def _certain_bracket(
    draws: List[float], average_gbps: float, line_rate_gbps: float
) -> Tuple[float, float]:
    """Scales ``(below, above)`` such that every scale ``<= below`` has a
    computed clipped mean ``< average_gbps`` and every scale ``>= above``
    has one ``> average_gbps``; ``(0.0, inf)`` when no such pair is found.

    The clipped mean of the sorted draws is piecewise linear in the scale,
    so prefix sums locate where it crosses the average.  Two scales just
    either side of that crossing are then evaluated exactly.  Each term
    ``min(s·d, line_rate)`` is monotone in ``s``, and a float sum of ``n``
    non-negative terms lies within ``(n - 1)·2⁻⁵³`` relative of the real
    sum of those terms.  A computed mean clear of the average by
    ``4·(n + 1)·2⁻⁵³`` relative (twice that error, plus the roundings of
    the division and of the bound) therefore settles the comparison for
    every scale beyond it, whatever summation the interpreter uses.
    """
    n = len(draws)
    margin = 4 * (n + 1) * 2.0**-53
    ordered = sorted(draws)
    prefix = list(accumulate(ordered))
    target = n * average_gbps
    for clipped in range(n):
        unclipped = prefix[n - 1 - clipped]
        remainder = target - clipped * line_rate_gbps
        if remainder <= 0 or unclipped <= 0:
            return 0.0, math.inf
        scale = remainder / unclipped
        if scale * ordered[n - 1 - clipped] <= line_rate_gbps:
            break
    else:
        return 0.0, math.inf
    # only the unclipped terms (a ``remainder / target`` share of the
    # mean) grow with the scale, so a flatter mean needs a wider bracket
    width = 4 * margin * target / remainder
    if width >= 1:
        return 0.0, math.inf
    below, above = scale * (1 - width), scale * (1 + width)
    if not _clipped_mean(below, draws, line_rate_gbps) < average_gbps * (1 - margin):
        below = 0.0
    if not _clipped_mean(above, draws, line_rate_gbps) > average_gbps * (1 + margin):
        above = math.inf
    return below, above


def _bracket_terms(
    draws: List[float], below: float, above: float, line_rate_gbps: float
) -> Callable[[float], float]:
    """``_clipped_mean`` specialised to scales strictly inside
    ``(below, above)``.

    A float product is monotone in the scale, so each draw's term
    ``min(s·d, line_rate)`` is ``s·d`` for every such ``s`` when
    ``above·d <= line_rate``, the line rate itself when
    ``below·d >= line_rate``, and has to be evaluated per call only in
    between.  The draws are split, in their original order, into runs of
    one kind; a call chains the runs' terms into one builtin ``sum``, so
    it adds the same terms in the same order as :func:`_clipped_mean`.
    With no bracket, ``(0.0, inf)``, every draw is decided per call and
    the sum is :func:`_clipped_mean`'s, term for term.
    """
    n = len(draws)
    runs: List[Tuple[int, List[float]]] = []
    for d in draws:
        if above * d <= line_rate_gbps:
            kind = 0  # never clipped
        elif below * d >= line_rate_gbps:
            kind = 1  # always clipped
        else:
            kind = 2  # decided per call
        if runs and runs[-1][0] == kind:
            runs[-1][1].append(d)
        else:
            runs.append((kind, [d]))
    plan: List[Tuple[int, Any]] = [
        (kind, (line_rate_gbps,) * len(run) if kind == 1 else run)
        for kind, run in runs
    ]

    def clipped_mean(scale: float) -> float:
        mul = scale.__mul__
        return sum(chain.from_iterable(
            map(mul, run) if kind == 0
            else run if kind == 1
            else map(min, map(mul, run), repeat(line_rate_gbps, len(run)))
            for kind, run in plan
        )) / n

    return clipped_mean


def fit_lognormal_scale(
    spec: LogNormalSpec,
    rng: RngRegistry,
    line_rate_gbps: float = LINE_RATE_GBPS,
    samples: int = 4096,
) -> float:
    """Find the multiplier that makes the clipped log-normal trace average
    equal ``spec.average_gbps``.

    The raw μ/σ pairs from Fig. 8 describe the *shape* of the distribution;
    the paper states the resulting average rates (1.6/5.2/10.9 Gbps) after
    the client clips at line rate. We recover the same construction by
    binary-searching a linear scale ``s`` so that
    ``mean(min(s·exp(μ+σZ), line_rate)) == average``.

    The result is the float a plain 200-step geometric bisection of
    ``(1e-12, 1e12)`` returns, with far fewer clipped-mean evaluations:
    each step depends only on ``(lo, hi)``, so the search stops once a
    step leaves them unchanged (after about 58 steps), and the steps
    whose midpoint lies outside :func:`_certain_bracket` take the answer
    it guarantees instead of evaluating the mean.  The mean inside the
    bracket is evaluated by :func:`_bracket_terms`.
    """
    if not 0 < spec.average_gbps < line_rate_gbps:
        raise ValueError("target average must be within (0, line_rate)")
    if samples < 1:
        raise ValueError("samples must be positive")
    stream = rng.stream(f"lognormal-fit-{spec.name}")
    draws = [math.exp(spec.mu + spec.sigma * stream.gauss(0.0, 1.0)) for _ in range(samples)]
    average = spec.average_gbps
    below, above = _certain_bracket(draws, average, line_rate_gbps)
    clipped_mean = _bracket_terms(draws, below, above, line_rate_gbps)

    lo, hi = 1e-12, 1e12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if mid <= below or (mid < above and clipped_mean(mid) < average):
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return math.sqrt(lo * hi)


class LogNormalTraceGenerator(PacketGenerator):
    """Bursty trace: rate re-drawn each interval from a clipped log-normal.

    Reproduces the Fig. 8 construction — snapshots of instantaneous rate
    over time show long near-idle stretches punctuated by bursts up to the
    line rate, with the heavier-tailed cache/Hadoop σ producing the more
    extreme on/off behaviour.

    By default the per-interval rates are drawn **stratified**: one draw
    from each equal-probability quantile bin of the distribution, shuffled
    into a random order. A short simulated run then carries a
    representative share of the rare line-rate bursts that dominate the
    trace average (the paper runs each trace for 10 minutes of wall-clock;
    naive i.i.d. draws over a fraction of a second would usually miss the
    tail entirely). Set ``stratified=False`` for i.i.d. draws.
    """

    def __init__(
        self,
        plan: AddressPlan,
        spec: TrafficSpec,
        rng: RngRegistry,
        trace: LogNormalSpec,
        interval_s: float = 0.05,
        line_rate_gbps: float = LINE_RATE_GBPS,
        stream: Optional[str] = None,
        stratified: bool = True,
    ) -> None:
        super().__init__(plan, spec, rng, stream or f"trace-{trace.name}")
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.trace = trace
        self.interval_s = interval_s
        self.line_rate_gbps = line_rate_gbps
        self.stratified = stratified
        self._scale = fit_lognormal_scale(trace, rng, line_rate_gbps)
        self.rate_series = TimeSeries(name=f"{trace.name}-rate-gbps")

    @property
    def offered_gbps(self) -> float:
        return self.trace.average_gbps

    def draw_rate(self) -> float:
        raw = math.exp(self.trace.mu + self.trace.sigma * self._rng.gauss(0.0, 1.0))
        return min(self._scale * raw, self.line_rate_gbps)

    def _quantile_rate(self, q: float) -> float:
        z = _STANDARD_NORMAL.inv_cdf(q)
        raw = math.exp(self.trace.mu + self.trace.sigma * z)
        return min(self._scale * raw, self.line_rate_gbps)

    def plan_rates(self, duration: float) -> List[float]:
        """The per-interval rate schedule for a run of ``duration``."""
        n = max(1, math.ceil(duration / self.interval_s))
        if not self.stratified:
            return [self.draw_rate() for _ in range(n)]
        rates = [self._quantile_rate((i + 0.5) / n) for i in range(n)]
        # quantile midpoints under-weight the clipped extreme tail; a final
        # linear correction pins the schedule mean to the trace average
        mean = sum(rates) / n
        if mean > 0:
            factor = self.trace.average_gbps / mean
            rates = [min(r * factor, self.line_rate_gbps) for r in rates]
        self._rng.shuffle(rates)
        return rates

    #: rates below this are treated as an idle interval
    IDLE_EPSILON_GBPS = 1e-3

    def start(self, sim: Simulator, sink: PacketSink, duration: float) -> None:
        end = sim.now + duration
        rates = self.plan_rates(duration)
        state = {"index": 0, "pending": None}
        make_packet = self._make_packet

        def emit() -> None:
            now = sim._now
            if now >= end:
                return
            sink(make_packet(now))

        def reroll() -> None:
            if sim.now >= end or state["index"] >= len(rates):
                return
            rate = rates[state["index"]]
            state["index"] += 1
            self.rate_series.append(sim.now, rate)
            if self.tracer is not None:
                self.tracer.counter("traffic", "trace_rate_gbps", sim.now, rate)
            # re-pace to the new interval's rate: drop whatever the previous
            # interval still had queued and batch-schedule this interval's
            # arrival train in one go
            if state["pending"] is not None:
                state["pending"].cancel()
                state["pending"] = None
            if rate > self.IDLE_EPSILON_GBPS:
                bi = self._batch_interval(rate)
                # the next reroll fires at exactly now + interval_s (control
                # priority, so it precedes same-instant arrivals) and — when
                # it neither hits ``end`` nor exhausts the schedule — cancels
                # anything still pending; arrivals at or past it need not be
                # scheduled at all. Otherwise the train runs to ``end`` with
                # the terminal no-op arrival the chained scheme also carried.
                next_t = sim.now + self.interval_s
                next_cancels = next_t < end and state["index"] < len(rates)
                horizon = next_t if next_cancels else end
                times = []
                t = sim.now + bi
                while t < horizon:
                    times.append(t)
                    t += bi
                if not next_cancels:
                    times.append(t)
                if times:
                    state["pending"] = sim.schedule_batch(times, emit)
            sim.schedule(self.interval_s, reroll, priority=Simulator.PRIORITY_CONTROL)

        sim.schedule(0.0, reroll, priority=Simulator.PRIORITY_CONTROL)


@dataclass(frozen=True)
class DiurnalPhase:
    """One workload's share of a fleet mix and its daily rhythm.

    The Meta traces publish rate *distributions*, not time-of-day
    curves; production fleets overlay a diurnal swing on top (user-facing
    web peaks in the afternoon, cache follows the evening content surge,
    Hadoop batch fills the night trough).  The phase parameters here are
    derived from typical published fleet shapes, not measured by the
    paper.
    """

    trace: str
    weight: float
    peak_hour: float
    swing: float

    def __post_init__(self) -> None:
        if self.trace not in META_TRACES:
            raise ValueError(
                f"unknown trace {self.trace!r}; known: {sorted(META_TRACES)}"
            )
        if not 0 < self.weight <= 1:
            raise ValueError("phase weight must be in (0, 1]")
        if not 0 <= self.peak_hour < 24:
            raise ValueError("peak_hour must be in [0, 24)")
        if not 0 <= self.swing < 1:
            raise ValueError("swing must be in [0, 1)")


#: Named fleet mixes: each phase keeps its Fig. 8 log-normal *shape* and
#: overlays a cosine day curve (mean 1.0, peak 1 + swing) on its average.
DIURNAL_PHASES: Dict[str, Tuple[DiurnalPhase, ...]] = {
    "web": (DiurnalPhase("web", 1.0, peak_hour=14.0, swing=0.45),),
    "cache": (DiurnalPhase("cache", 1.0, peak_hour=20.0, swing=0.35),),
    "hadoop": (DiurnalPhase("hadoop", 1.0, peak_hour=3.0, swing=0.55),),
    "mix": (
        DiurnalPhase("web", 0.40, peak_hour=14.0, swing=0.45),
        DiurnalPhase("cache", 0.35, peak_hour=20.0, swing=0.35),
        DiurnalPhase("hadoop", 0.25, peak_hour=3.0, swing=0.55),
    ),
}


def diurnal_multiplier(hour: float, peak_hour: float, swing: float) -> float:
    """Cosine day curve: mean 1.0 over 24 h, ``1 + swing`` at the peak."""
    return 1.0 + swing * math.cos((hour - peak_hour) / 24.0 * 2.0 * math.pi)


def _stratified_rates(
    spec: LogNormalSpec,
    rng: RngRegistry,
    intervals: int,
    line_rate_gbps: float,
    stream: str,
) -> List[float]:
    """Stratified clipped log-normal schedule pinned to ``spec``'s mean.

    Same construction as :meth:`LogNormalTraceGenerator.plan_rates`
    (one draw per equal-probability quantile bin, shuffled, mean pinned
    by a final linear correction) without needing an address plan or a
    packet spec.
    """
    scale = fit_lognormal_scale(spec, rng, line_rate_gbps)
    rates = []
    for i in range(intervals):
        z = _STANDARD_NORMAL.inv_cdf((i + 0.5) / intervals)
        raw = math.exp(spec.mu + spec.sigma * z)
        rates.append(min(scale * raw, line_rate_gbps))
    mean = sum(rates) / intervals
    if mean > 0:
        factor = spec.average_gbps / mean
        rates = [min(r * factor, line_rate_gbps) for r in rates]
    rng.stream(stream).shuffle(rates)
    return rates


def stitch_diurnal_rates(
    phases: Sequence[DiurnalPhase],
    model_hours: float,
    intervals: int,
    rng: RngRegistry,
    scale: float = 1.0,
    line_rate_gbps: float = LINE_RATE_GBPS,
) -> List[float]:
    """Stitch a multi-workload diurnal schedule: ``intervals`` rates
    covering ``model_hours`` model-clock hours of fleet traffic.

    Each phase contributes a stratified log-normal schedule (its Fig. 8
    shape, average scaled by ``weight * scale``) modulated by its diurnal
    curve; phases sum and the total clips at ``line_rate_gbps``.  The
    caller compresses the model hours onto however many simulated
    seconds it runs — only the per-interval *rates* matter, so a 24 h
    curve can replay over a fraction of a simulated second.
    """
    if not phases:
        raise ValueError("need at least one diurnal phase")
    if model_hours <= 0:
        raise ValueError("model_hours must be positive")
    if intervals < 1:
        raise ValueError("intervals must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    total = [0.0] * intervals
    for phase in phases:
        base = META_TRACES[phase.trace]
        scaled = LogNormalSpec(
            base.name,
            mu=base.mu,
            sigma=base.sigma,
            average_gbps=base.average_gbps * phase.weight * scale,
        )
        rates = _stratified_rates(
            scaled, rng, intervals, line_rate_gbps, f"diurnal-{phase.trace}"
        )
        for i in range(intervals):
            hour = ((i + 0.5) / intervals * model_hours) % 24.0
            total[i] += rates[i] * diurnal_multiplier(
                hour, phase.peak_hour, phase.swing
            )
    return [min(r, line_rate_gbps) for r in total]


def synthesize_rate_trace(
    trace: LogNormalSpec,
    duration_s: float,
    interval_s: float,
    rng: RngRegistry,
    line_rate_gbps: float = LINE_RATE_GBPS,
) -> TimeSeries:
    """Stand-alone rate trace (Fig. 8 snapshots) without running packets."""
    scale = fit_lognormal_scale(trace, rng, line_rate_gbps)
    stream = rng.stream(f"trace-standalone-{trace.name}")
    series = TimeSeries(name=f"{trace.name}-rate-gbps")
    steps = max(1, int(round(duration_s / interval_s)))
    for i in range(steps):
        raw = math.exp(trace.mu + trace.sigma * stream.gauss(0.0, 1.0))
        series.append(i * interval_s, min(scale * raw, line_rate_gbps))
    return series
