"""The five workloads: set-up, measured window, correctness checks.

Unit of work everywhere: one device round (observe ``b`` samples ->
check-out ``w`` -> gradient -> sanitize -> check-in -> server update ->
ack).  The serve-side loads are closed loops: a device waits for its ack
before its next round, as Algorithm 1 does.  They are generated from
this one process by ``NUM_CLIENTS`` threads, each owning one keep-alive
connection; ``NUM_CLIENTS`` is 2 and never more than ``nproc``.

Each workload function returns an :class:`Outcome`.  With ``trace`` off
it carries the end-to-end metrics; with ``trace`` on, the per-layer
ones: the round is driven step by step through the layers' public calls
with one span per call, the server is spawned with ``--metrics`` and
scraped, and a third of the window is first spent on the untraced loop
so the instrument's own cost can be reported.
"""

from __future__ import annotations

import itertools
import os
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DeviceConfig
from repro.core.protocol import CheckoutRequest
from repro.data import iid_partition, make_mnist_like
from repro.evaluation import trace_differences
from repro.gateway.edge import GATEWAY_DEVICE_ID, EdgeGateway
from repro.models import MulticlassLogisticRegression
from repro.network.latency import LinkDelays
from repro.obs.metrics import MetricsRegistry
from repro.serve import HttpTransport, RemoteDevice, ServiceClient
from repro.shard.routing import ShardRouter
from repro.simulation import CrowdSimulator, SimulationConfig

import micro
import spans as sp
from catalog import BENCH_DIR, CLASSES, DIM, EPSILON, SRC_DIR
from servers import Server, ServerFailure, hist_ms, scrape
from speed import NOMINAL_S, SpeedGauge, speed_factor

NUM_CLIENTS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3
SERVE_BATCH = 5
WARMUP_ROUNDS = 5            # per device, http_round and durable_sharded
GATEWAY_DEVICES = 128
GATEWAY_FLUSH = 64
GATEWAY_WARMUP_EPOCHS = 4    # 256 single-threaded rounds, replayed in-process
SHARD_WORKERS = 2
SHARD_REGISTERED = 4096
SIM_DEVICES = 1000
#: samples per device, batch size, passes, delay in units of 1/(M*F_s).
#: Sized so a repetition (construction, then 2000 / 1000 rounds) takes
#: under half a second and a window holds 25 or more: the percentiles
#: are over repetitions.
SIM_ARMS = {
    "sim_fused": (2, 1, 1, 0.0),
    "sim_delayed": (20, 20, 1, 200.0),
}
SMOKE_SIM_DEVICES = 100      # 200-round arms in --smoke


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    scratch: str              # a directory of this run's own, inside the checkout
    #: every server spawned, so the caller can kill what a failure left running
    servers: List[Server] = field(default_factory=list)

    @property
    def micro_scale(self) -> float:
        return 0.05 if self.smoke else 1.0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    spans: List[list] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def timed_setups(build: Callable[[], object], discard: Callable[[object], object],
                 repeats: int, gauge: Optional[SpeedGauge] = None) -> Tuple[float, object]:
    """Set up ``repeats`` times; returns (median seconds, the last one).
    With a ``gauge`` each set-up is bracketed by two samples of the
    reference kernel and its seconds are speed-corrected."""
    seconds = []
    kept = None
    for _ in range(repeats):
        if kept is not None:
            discard(kept)
        before = gauge.sample() if gauge else 0.0
        start = time.perf_counter()
        kept = build()
        elapsed = time.perf_counter() - start
        seconds.append(elapsed * speed_factor(before, gauge.sample()) if gauge else elapsed)
    return statistics.median(seconds), kept


def import_seconds(ctx: Context, gauge: Optional[SpeedGauge] = None) -> float:
    """Interpreter start -> this module (NumPy, repro) imported.  This
    process can do that only once, so it is timed on fresh interpreters,
    like every other part of set-up, and the median taken."""
    code = f"import sys; sys.path[:0] = [{BENCH_DIR!r}, {SRC_DIR!r}]; import workloads"
    seconds, _ = timed_setups(
        lambda: subprocess.run([sys.executable, "-c", code], check=True, timeout=120),
        lambda _: None, 1 if ctx.smoke else SETUP_REPEATS, gauge)
    return seconds


def book_latencies(out: Outcome, latencies_ms: Sequence[float]) -> None:
    """The end-to-end median, and for the reader the sample count and the
    90th percentile (not gated: see the README)."""
    out.metrics["round_ms_p50"] = statistics.median(latencies_ms)
    out.details["round_ms_samples"] = len(latencies_ms)
    out.details["round_ms_p90"] = sp.percentile(latencies_ms, 90.0)


# ===================================================================== #
# sim_fused / sim_delayed: the in-process CrowdSimulator                #
# ===================================================================== #


def _sim_config(num_devices: int, batch: int, passes: int,
                delay_multiples: float) -> SimulationConfig:
    tau = SimulationConfig(num_devices=num_devices).delay_in_sample_units(delay_multiples)
    return SimulationConfig(
        num_devices=num_devices, batch_size=batch, epsilon=EPSILON,
        num_passes=passes, num_snapshots=4,
        link_delays=LinkDelays.uniform(tau) if tau > 0 else LinkDelays.zero(),
    )


def run_sim(name: str, ctx: Context) -> Outcome:
    """Repetitions of one fixed, seeded simulation until the window is
    spent, a sample of the reference kernel between them (see
    ``speed.py``: every time this workload reports is speed-corrected).
    Construction counts as set-up and ``run()`` as the rounds, timed
    apart, so that repetitions short enough to give the percentiles
    twenty samples still measure per-round cost.  Every repetition must
    reproduce the first one's trace exactly.  A traced run gives every
    other repetition a ``MetricsRegistry``."""
    samples_per_device, batch, passes, delay = SIM_ARMS[name]
    num_devices = SMOKE_SIM_DEVICES if ctx.smoke else SIM_DEVICES
    model = MulticlassLogisticRegression(DIM, CLASSES)
    config = _sim_config(num_devices, batch, passes, delay)
    out = Outcome()
    gauge = SpeedGauge()

    def build():
        train, test = make_mnist_like(
            num_train=num_devices * samples_per_device, num_test=1000, seed=ctx.seed)
        parts = iid_partition(train, num_devices, np.random.default_rng(ctx.seed))
        # Warm-up: a tenth of the crowd through the same code path.
        warm = max(num_devices // 10, 1)
        CrowdSimulator(model, parts[:warm], test,
                       _sim_config(warm, batch, passes, delay), seed=ctx.seed).run()
        return parts, test

    import_s = import_seconds(ctx, gauge)
    build_s, (parts, test) = timed_setups(build, lambda _: None, SETUP_REPEATS, gauge)

    first = None
    observed: List[bool] = []      # per repetition: was it given a MetricsRegistry?
    construct_raw: List[float] = []  # per repetition: wall seconds in the constructor
    run_raw: List[float] = []        # per repetition: wall seconds in run()
    references = [gauge.sample()]
    events = 0
    window_start = time.perf_counter()
    while len(run_raw) < 4 or time.perf_counter() - window_start < ctx.seconds:
        observe = ctx.trace and len(run_raw) % 2 == 1
        registry = MetricsRegistry(name="bench") if observe else None
        start = time.perf_counter()
        simulator = CrowdSimulator(model, parts, test, config, seed=ctx.seed,
                                   metrics=registry)
        built = time.perf_counter()
        trace = simulator.run()
        run_raw.append(time.perf_counter() - built)
        construct_raw.append(built - start)
        observed.append(observe)
        references.append(gauge.sample())
        events = simulator.events_fired
        if first is None:
            first = trace
        else:
            differing = trace_differences(first, trace)
            out.check(not differing,
                      f"repetition {len(run_raw)} differs from the first on: "
                      f"{', '.join(differing)}")
    rounds = first.server_iterations
    samples = first.total_samples_consumed
    out.check(rounds > 0 and samples > 0, "the simulation applied no update")
    out.attempted = rounds * len(run_raw)
    out.failed = out.attempted if out.problems else 0
    factors = [speed_factor(before, after)
               for before, after in zip(references, references[1:])]
    plain = [k for k, seen in enumerate(observed) if not seen]
    plain_s = [run_raw[k] * factors[k] for k in plain]
    plain_raw_s = [run_raw[k] for k in plain]
    construct_s = statistics.median(construct_raw[k] * factors[k] for k in plain)
    ms_per_round = [seconds / rounds * 1e3 for seconds in plain_s]
    out.details = {
        "devices": num_devices, "samples_per_device": samples_per_device,
        "batch_size": batch, "passes": passes, "delay_multiples": delay,
        "transport": config.resolved_transport(),
        "rounds_per_repetition": rounds, "samples_per_repetition": samples,
        "repetitions": len(run_raw),
        "test_error": first.curve.final_error,
        "raw_rounds_per_s": rounds * len(plain_raw_s) / sum(plain_raw_s),
        "reference_kernel_ms_p50": statistics.median(references) * 1e3,
        "reference_kernel_ms_nominal": NOMINAL_S * 1e3,
        "setup_parts_s": {"import": import_s, "data_and_warmup": build_s,
                          "construct": construct_s},
    }
    if not ctx.trace:
        out.metrics = {
            "setup_s": import_s + build_s + construct_s,
            "rounds_per_s": rounds * len(plain_s) / sum(plain_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        book_latencies(out, ms_per_round)
        return out

    layer = micro.run(ctx.seed, ctx.scratch, ctx.micro_scale)
    if name == "sim_fused":
        named_us = (layer["core.device.observe_us"]
                    + layer["core.device.complete_checkout_us.b1"]
                    + layer["core.server_core.serve_round_us"])
    else:
        named_us = (layer["core.device.observe_batch_us.k20"]
                    + layer["core.device.complete_checkout_us.b20"]
                    + layer["core.server_core.handle_checkout_us"]
                    + layer["core.server_core.handle_checkins_us.n1"]
                    + events / rounds * layer["network.event_queue_us_per_event"])
    # The in-process pass reads raw microseconds, so the ledger does too.
    round_us = statistics.median(plain_raw_s) / rounds * 1e6
    observed_s = [run_raw[k] * factors[k] for k, seen in enumerate(observed) if seen]
    layer.update({
        "simulation.events_per_sample": events / samples,
        "simulation.construct_s": statistics.median(construct_raw[k] for k in plain),
        "simulation.test_error": first.curve.final_error,
        "obs.overhead_share":
            1.0 - statistics.median(plain_s) / statistics.median(observed_s),
        "ledger.unexplained_share": (round_us - named_us) / round_us,
        "trace.rounds": float(rounds * len(observed_s)),
    })
    out.metrics = layer
    out.details["ledger_ms"] = {"round": round_us / 1e3, "named": named_us / 1e3}
    return out


# ===================================================================== #
# The three serve workloads                                             #
# ===================================================================== #


class SamplePool:
    """Seeded MNIST-like rows the devices observe, cycled."""

    def __init__(self, seed: int, rows: int = 4096):
        train, _ = make_mnist_like(num_train=rows, num_test=10, seed=seed)
        self.features, self.labels, self.rows = train.features, train.labels, rows

    @staticmethod
    def first_row(device_id: int) -> int:
        return device_id * 97

    def feed(self, device, cursor: int) -> int:
        """One minibatch of ``observe`` calls from ``cursor``; returns the
        next cursor."""
        for index in range(cursor, cursor + SERVE_BATCH):
            row = index % self.rows
            device.observe(self.features[row], self.labels[row])
        return cursor + SERVE_BATCH


class SpannedClient(ServiceClient):
    """A ``ServiceClient`` that records a span around each data request."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorder = sp.SpanRecorder()

    def checkout(self, request):
        with self.recorder.span("serve.client.checkout"):
            return super().checkout(request)

    def checkins(self, messages):
        with self.recorder.span("serve.client.checkins"):
            return super().checkins(messages)


class Lane:
    """One device, the client it talks through, and its round log.

    ``round()`` is the product's own round (``RemoteDevice.run_round``);
    ``traced_round()`` walks the same steps through the layers' public
    calls with a span around each (the client's spans nest inside).
    Behind a gateway the ack arrives when the pool is flushed, so the
    driver settles the lanes of an epoch together.
    """

    def __init__(self, device_id: int, client: ServiceClient, pool: SamplePool,
                 seed: int, gateway: Optional[EdgeGateway] = None):
        self.device_id = device_id
        self.client = client
        self.pool = pool
        self.seed = seed
        self.gateway = gateway
        self.cursor = pool.first_row(device_id)
        self.remote: Optional[RemoteDevice] = None
        self.next_seq = 0         # traced rounds stamp their own check-ins
        self.attempted = 0
        self.acked = 0
        self.started_at = 0.0
        self.latencies_ms: List[float] = []
        self.first_error = ""     # repr of the first exception a round raised

    def join(self) -> None:
        self.remote = RemoteDevice.join(
            HttpTransport(self.client), self.device_id,
            MulticlassLogisticRegression(DIM, CLASSES),
            DeviceConfig.default(batch_size=SERVE_BATCH, num_classes=CLASSES,
                                 epsilon=EPSILON),
            np.random.default_rng(self.seed + self.device_id),
            gateway=self.gateway)

    def round(self) -> None:
        """Observe b samples, then one untraced round; the latency runs
        from the ``run_round()`` call to the ack."""
        self.cursor = self.pool.feed(self.remote.device, self.cursor)
        self.attempted += 1
        self.started_at = time.perf_counter()
        try:
            self.remote.run_round()
        except Exception as error:  # noqa: BLE001 - any raise is a failed round
            self.first_error = self.first_error or repr(error)
        if self.gateway is None:
            self.settle(time.perf_counter())

    def settle(self, now: float) -> None:
        """Book the ack of the round in flight, if it has arrived."""
        if self.remote.rounds_completed > self.acked:
            self.acked = self.remote.rounds_completed
            self.latencies_ms.append((now - self.started_at) * 1e3)

    def _on_ack(self, ack) -> None:
        self.acked += ack is not None

    def traced_round(self) -> None:
        device, recorder = self.remote.device, self.client.recorder
        recorder.begin_round()
        span = recorder.span
        self.attempted += 1
        try:
            with span("round"):
                for index in range(self.cursor, self.cursor + SERVE_BATCH):
                    row = index % self.pool.rows
                    with span("core.device.observe"):
                        device.observe(self.pool.features[row], self.pool.labels[row])
                self.cursor += SERVE_BATCH
                device.mark_checkout_requested()
                request = CheckoutRequest(device.device_id, device.token, 0.0)
                if self.gateway is None:
                    response = self.client.checkout(request)
                else:
                    with span("gateway.checkout"):
                        response = self.gateway.checkout(request)
                with span("core.device.complete_checkout"):
                    result = device.complete_checkout(
                        response.parameters, response.server_iteration)
                message = replace(result.message, checkin_seq=self.next_seq)
                self.next_seq += 1
                if self.gateway is None:
                    self._on_ack(self.client.checkins([message]).acks[0])
                else:
                    with span("gateway.add"):
                        self.gateway.add(message, on_ack=self._on_ack)
        except Exception as error:  # noqa: BLE001 - any raise is a failed round
            self.first_error = self.first_error or repr(error)


class Crowd:
    """A spawned server plus the lanes and client threads that load it.

    Each client thread is a one-thread executor, so everything a client
    ever does (join, warm-up, the window) rides the same pooled socket.
    """

    def __init__(self, server: Server, lanes: Sequence[Lane], traced: bool,
                 gateway: Optional[EdgeGateway] = None):
        self.server = server
        self.lanes = list(lanes)
        self.traced = traced
        self.gateway = gateway
        self.position = 0  # gateway round-robin cursor
        self.step = Lane.traced_round if traced else Lane.round
        self.workers = [ThreadPoolExecutor(max_workers=1) for _ in range(NUM_CLIENTS)]

    def on_workers(self, fn: Callable[[List[Lane]], None]) -> None:
        """Run ``fn(share of the lanes)`` on every client thread at once;
        re-raise failures."""
        futures = [worker.submit(fn, self.lanes[k::NUM_CLIENTS])
                   for k, worker in enumerate(self.workers)]
        for future in futures:
            future.result()

    def join_all(self) -> None:
        self.on_workers(lambda share: [lane.join() for lane in share])

    def run_rounds(self, count: int) -> None:
        """``count`` rounds per lane on every client thread."""
        step = self.step
        self.on_workers(lambda share: [step(lane) for _ in range(count) for lane in share])

    def run_window(self, seconds: float) -> float:
        """Closed loop on every client thread for ``seconds``; returns acked
        rounds per second up to the last ack."""
        step = self.step
        before = self.acked
        start = time.perf_counter()
        deadline = start + seconds

        def drive(share: List[Lane]) -> None:
            while time.perf_counter() < deadline:
                for lane in share:
                    step(lane)

        self.on_workers(drive)
        return (self.acked - before) / (time.perf_counter() - start)

    def run_epochs(self, keep_going: Callable[[], bool]) -> None:
        """Gateway load: whole flush epochs, round-robin over the lanes, on
        the first client thread, while ``keep_going()`` (asked between
        epochs, so no check-in is left pooled)."""
        step, lanes, gateway = self.step, self.lanes, self.gateway

        def drive() -> None:
            while keep_going():
                epoch = []
                while True:
                    lane = lanes[self.position % len(lanes)]
                    self.position += 1
                    step(lane)
                    epoch.append(lane)
                    if gateway.pending == 0 or len(epoch) > 2 * GATEWAY_FLUSH:
                        break
                if not self.traced:
                    now = time.perf_counter()
                    for lane in epoch:
                        lane.settle(now)

        self.workers[0].submit(drive).result()

    @property
    def attempted(self) -> int:
        return sum(lane.attempted for lane in self.lanes)

    @property
    def acked(self) -> int:
        return sum(lane.acked for lane in self.lanes)

    def clear_logs(self) -> None:
        """Forget warm-up latencies and spans; counters stay."""
        for lane in self.lanes:
            lane.latencies_ms.clear()
            if self.traced:
                lane.client.recorder.spans.clear()

    def latencies_ms(self) -> List[float]:
        return [ms for lane in self.lanes for ms in lane.latencies_ms]

    def clients(self) -> List[ServiceClient]:
        """The distinct clients the lanes talk through."""
        return list({id(lane.client): lane.client for lane in self.lanes}.values())

    def spans(self) -> List[list]:
        return sp.merge(client.recorder for client in self.clients())

    def status(self, include_parameters: bool = False):
        client = ServiceClient(self.server.url, timeout=30.0)
        try:
            return client.status(include_parameters=include_parameters)
        finally:
            client.close()

    def close(self) -> str:
        """Hang up the clients and stop the server; returns its stderr."""
        def hang_up(share: List[Lane]) -> None:
            for lane in share:  # on the thread that owns the socket
                lane.client.close()

        try:
            self.on_workers(hang_up)
        finally:
            for worker in self.workers:
                worker.shutdown()
        return self.server.stop()

    def finish(self, out: Outcome) -> object:
        """The checks every serve workload ends with: counters agree, the
        server stops cleanly.  Returns the final status."""
        status = self.status()
        attempted, acked = self.attempted, self.acked
        out.attempted += attempted
        out.failed += attempted - acked
        errors = [lane.first_error for lane in self.lanes if lane.first_error]
        out.check(acked == attempted,
                  f"{attempted - acked} of {attempted} rounds got no ack; "
                  f"first error: {errors[0] if errors else 'none raised'}")
        out.check(status.iteration == acked,
                  f"server iteration {status.iteration} != acked rounds {acked}")
        out.check(status.rejected_messages == 0,
                  f"server rejected {status.rejected_messages} messages")
        try:
            stderr = self.close()
            out.check("(0 errors)" in stderr,
                      f"server reported errors on exit: {stderr.strip()!r}")
        except ServerFailure as failure:
            out.problems.append(str(failure))
        return status


def _spawn(ctx: Context, tag: str, extra: Sequence[str], metrics: bool) -> Server:
    args = list(extra) + (["--metrics"] if metrics else [])
    server = Server(args, os.path.join(ctx.scratch, f"{tag}.stderr"), DIM, CLASSES)
    ctx.servers.append(server)
    return server


def _new_client(url: str, traced: bool) -> ServiceClient:
    return (SpannedClient if traced else ServiceClient)(url, timeout=30.0)


def _service_rows(doc: dict) -> Dict[str, float]:
    return {
        "serve.service.checkout_ms_p50": hist_ms(doc, "service_request_seconds", "checkout"),
        "serve.service.checkins_ms_p50": hist_ms(doc, "service_request_seconds", "checkins"),
        "serve.service.lock_wait_ms_p95": hist_ms(
            doc, "service_lock_wait_seconds", stat="p95"),
        "serve.service.errors_total": doc["counters"].get("service_errors_total", 0.0),
    }


def _client_rows(crowd: Crowd) -> Dict[str, float]:
    stats = [client.stats_snapshot() for client in crowd.clients()]
    requests = sum(s["requests_sent"] for s in stats)
    connections = sum(s["connections_opened"] for s in stats)
    return {
        "serve.client.reuse_ratio": requests / connections if connections else 0.0,
        "serve.client.retries": float(sum(s["retries_used"] + s["reconnects"] for s in stats)),
    }


def _ledger(spans: Sequence[list], group_of: Dict[int, int], layer: Dict[str, float],
            checkins: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The ledger of one blocking unit (a round, or a gateway flush epoch:
    ``group_of`` maps round ids to units), from the spans.

    Named rows are work a layer was measured doing: device and gateway
    self time (spans), client-side wire encode/decode (in-process pass),
    the service's own request time (scrape).  What is left of the unit's
    median - the hops, and the benchmark's own glue - is unexplained.
    Returns (per-layer metrics, the rows in ms).
    """
    own = sp.totals_by_group(spans, sp.self_millis(spans), group_of)
    full = sp.totals_by_group(spans, [sp.millis(s) for s in spans], group_of)

    def p50(table: Dict[str, Dict[int, float]], name: str) -> float:
        return sp.median_ms(list(table.get(name, {}).values()))

    unit = p50(full, "round")
    client_checkout = p50(full, "serve.client.checkout")
    client_checkins = p50(full, "serve.client.checkins")
    rows = {
        "core.device": p50(own, "core.device.observe")
        + p50(own, "core.device.complete_checkout"),
        "gateway": p50(own, "gateway.checkout") + p50(own, "gateway.add"),
        "serve.wire.checkout": layer["serve.wire.decode_checkout_response_us"] / 1e3,
        "serve.wire.checkins": layer[f"serve.wire.encode_checkin_batch_us.n{checkins}"] / 1e3,
        "serve.service.checkout": layer["serve.service.checkout_ms_p50"],
        "serve.service.checkins": layer["serve.service.checkins_ms_p50"],
    }
    named = sum(rows.values())
    metrics = {
        "serve.client.checkout_ms_p50": client_checkout,
        "serve.client.checkins_ms_p50": client_checkins,
        "serve.hop_residual_ms.checkout":
            client_checkout - rows["serve.service.checkout"] - rows["serve.wire.checkout"],
        "serve.hop_residual_ms.checkins":
            client_checkins - rows["serve.service.checkins"] - rows["serve.wire.checkins"],
        "ledger.unexplained_share": (unit - named) / unit if unit else 0.0,
        "trace.rounds": float(len(group_of)),
    }
    rows["unit"] = unit
    rows["unexplained"] = unit - named
    return metrics, rows


def run_untraced(ctx: Context, out: Outcome, build: Callable[[bool], Crowd],
                 window: Callable[[Crowd, float], float],
                 finish: Callable[[Crowd], object]) -> Outcome:
    """The end-to-end run of a serve workload: ``SETUP_REPEATS`` set-ups,
    the measured window on the last one, the checks."""
    setup_s, crowd = timed_setups(lambda: build(False), Crowd.close, SETUP_REPEATS)
    rounds_per_s = window(crowd, ctx.seconds)
    peak = crowd.server.peak_rss_mb()
    finish(crowd)
    out.metrics = {
        "setup_s": import_seconds(ctx) + setup_s,
        "rounds_per_s": rounds_per_s,
        "peak_rss_mb": peak,
    }
    book_latencies(out, crowd.latencies_ms())
    return out


# -- http_round and durable_sharded ------------------------------------ #


def _shard_device_ids() -> List[int]:
    """The lowest device ids that land one on each shard."""
    router = ShardRouter(SHARD_WORKERS)
    chosen: Dict[int, int] = {}
    device_id = 0
    while len(chosen) < SHARD_WORKERS:
        chosen.setdefault(router.shard_of(device_id), device_id)
        device_id += 1
    return sorted(chosen.values())


def _filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def run_per_device(name: str, ctx: Context) -> Outcome:
    """``http_round`` and ``durable_sharded``: one check-out and one
    single-message check-in per round, one device per client thread."""
    sharded = name == "durable_sharded"
    device_ids = _shard_device_ids() if sharded else list(range(NUM_CLIENTS))
    pool = SamplePool(ctx.seed)
    out = Outcome()
    out.details.update(devices=device_ids, batch_size=SERVE_BATCH, clients=NUM_CLIENTS)
    if sharded:
        out.details["state_dir_filesystem"] = _filesystem_of(ctx.scratch)
    serial = itertools.count()

    def build(traced: bool) -> Crowd:
        tag = f"{name}-{next(serial)}"
        extra: List[str] = []
        if sharded:
            extra = ["--workers", str(SHARD_WORKERS),
                     "--state-dir", os.path.join(ctx.scratch, f"{tag}-state"),
                     "--checkpoint-every", "1", "--register", str(SHARD_REGISTERED)]
        server = _spawn(ctx, tag, extra, metrics=traced)
        clients = [_new_client(server.url, traced) for _ in range(NUM_CLIENTS)]
        crowd = Crowd(server, [
            Lane(device_id, clients[k % NUM_CLIENTS], pool, ctx.seed)
            for k, device_id in enumerate(device_ids)
        ], traced)
        crowd.join_all()
        crowd.run_rounds(1 if ctx.smoke else WARMUP_ROUNDS)
        crowd.clear_logs()
        return crowd

    def finish(crowd: Crowd) -> None:
        status = crowd.finish(out)
        if sharded:
            rows = status.shards or ()
            out.check(len(rows) == SHARD_WORKERS, f"status lists {len(rows)} shards")
            out.check(sum(row["iteration"] for row in rows) == crowd.acked,
                      "per-shard iterations do not sum to the acked rounds")
            out.check(all(row["iteration"] > 0 for row in rows),
                      "a shard served no round: the devices share a shard")

    if not ctx.trace:
        return run_untraced(ctx, out, build, Crowd.run_window, finish)

    crowd = build(False)
    reference = crowd.run_window(ctx.seconds / 3.0)
    reference_ms = crowd.latencies_ms()
    finish(crowd)
    crowd = build(True)
    traced = crowd.run_window(ctx.seconds * 2.0 / 3.0)
    layer = micro.run(ctx.seed, ctx.scratch, ctx.micro_scale)
    front = scrape(crowd.server.url)
    if sharded:
        workers = [scrape(row["url"]) for row in crowd.status().shards]
        rows = [_service_rows(doc) for doc in workers]
        layer.update({key: statistics.mean(row[key] for row in rows) for key in rows[0]})
        frontend_errors = front["counters"].get("frontend_errors_total", 0.0)
        out.check(frontend_errors == 0, f"the front end counted {frontend_errors} errors")
        layer["serve.service.errors_total"] = frontend_errors + sum(
            row["serve.service.errors_total"] for row in rows)
        layer["persist.checkpoint_write_ms_p50"] = statistics.mean(
            hist_ms(doc, "checkpoint_write_seconds") for doc in workers)
        frontend_mean = hist_ms(front, "frontend_request_seconds", "checkins", "mean")
        layer["shard.frontend.checkins_ms_mean"] = frontend_mean
        layer["shard.hop_residual_ms"] = frontend_mean - statistics.mean(
            hist_ms(doc, "service_request_seconds", "checkins", "mean") for doc in workers)
    else:
        layer.update(_service_rows(front))
    layer.update(_client_rows(crowd))
    finish(crowd)
    out.spans = crowd.spans()
    round_ids = {s[sp.ROUND] for s in out.spans}
    metrics, rows = _ledger(out.spans, {rid: rid for rid in round_ids}, layer, checkins=1)
    layer.update(metrics)
    layer["serve.client.round_ms_p90"] = sp.percentile(reference_ms, 90.0)
    layer["obs.overhead_share"] = 1.0 - traced / reference
    out.metrics = layer
    out.details.update(reference_rounds_per_s=reference, traced_rounds_per_s=traced,
                       ledger_ms=rows)
    return out


# -- gateway_batch ------------------------------------------------------ #


def _replay_gateway_warmup(seed: int, pool: SamplePool) -> np.ndarray:
    """In-process ``Device``/``ServerCore`` replay of the warm-up schedule:
    per flush epoch one shared check-out, ``GATEWAY_FLUSH`` devices in
    round-robin order computing against it, one batched check-in."""
    model = MulticlassLogisticRegression(DIM, CLASSES)
    core = micro.new_core(model)
    devices = [
        micro.new_device(d, model, SERVE_BATCH, core.register_device(d), seed + d)
        for d in range(GATEWAY_DEVICES)
    ]
    cursors = [pool.first_row(d) for d in range(GATEWAY_DEVICES)]
    seqs = [0] * GATEWAY_DEVICES
    token = core.register_device(GATEWAY_DEVICE_ID)
    position = 0
    for _ in range(GATEWAY_WARMUP_EPOCHS):
        shared = core.handle_checkout(CheckoutRequest(GATEWAY_DEVICE_ID, token, 0.0))
        messages = []
        for _ in range(GATEWAY_FLUSH):
            d = position % GATEWAY_DEVICES
            position += 1
            cursors[d] = pool.feed(devices[d], cursors[d])
            devices[d].mark_checkout_requested()
            result = devices[d].complete_checkout(shared.parameters, shared.server_iteration)
            messages.append(replace(result.message, checkin_seq=seqs[d]))
            seqs[d] += 1
        core.handle_checkins(messages)
    return core.parameters


def run_gateway(ctx: Context) -> Outcome:
    """``gateway_batch``: 128 devices behind one ``EdgeGateway`` with shared
    check-outs, driven round-robin by one thread."""
    pool = SamplePool(ctx.seed)
    out = Outcome()
    out.details.update(devices=GATEWAY_DEVICES, flush_size=GATEWAY_FLUSH,
                       batch_size=SERVE_BATCH, clients=1)
    expected = _replay_gateway_warmup(ctx.seed, pool)
    serial = itertools.count()

    def build(traced: bool) -> Crowd:
        server = _spawn(ctx, f"gateway_batch-{next(serial)}", [], metrics=traced)
        client = _new_client(server.url, traced)
        gateway = EdgeGateway(client, flush_size=GATEWAY_FLUSH)
        crowd = Crowd(server, [
            Lane(d, client, pool, ctx.seed, gateway) for d in range(GATEWAY_DEVICES)
        ], traced, gateway)
        crowd.join_all()
        epochs = iter(range(GATEWAY_WARMUP_EPOCHS))
        crowd.run_epochs(lambda: next(epochs, None) is not None)
        warmed = crowd.status(include_parameters=True)
        out.check(np.array_equal(warmed.parameters, expected),
                  "warm-up parameters differ from the in-process replay")
        crowd.clear_logs()
        return crowd

    def window(crowd: Crowd, seconds: float) -> float:
        before = crowd.acked
        start = time.perf_counter()
        deadline = start + seconds
        crowd.run_epochs(lambda: time.perf_counter() < deadline)
        return (crowd.acked - before) / (time.perf_counter() - start)

    if not ctx.trace:
        return run_untraced(ctx, out, build, window, lambda crowd: crowd.finish(out))

    crowd = build(False)
    reference = window(crowd, ctx.seconds / 3.0)
    reference_ms = crowd.latencies_ms()
    crowd.finish(out)
    crowd = build(True)
    gateway = crowd.gateway
    requests_before, acked_before = gateway.requests_made, crowd.acked
    traced = window(crowd, ctx.seconds * 2.0 / 3.0)
    layer = micro.run(ctx.seed, ctx.scratch, ctx.micro_scale)
    layer.update(_service_rows(scrape(crowd.server.url)))
    layer.update(_client_rows(crowd))
    stats = gateway.stats_snapshot()
    crowd.finish(out)
    out.spans = crowd.spans()
    # A flush epoch is the rounds up to and including the one whose add
    # carried the batched check-in upstream.
    group_of: Dict[int, int] = {}
    flush_ms: List[float] = []
    epoch, open_rounds = 0, []
    for span in out.spans:
        if span[sp.NAME] == "round":
            open_rounds.append(span[sp.ROUND])
        elif span[sp.NAME] == "serve.client.checkins":
            flush_ms.append(sp.millis(out.spans[span[sp.PARENT]]))
            group_of.update((rid, epoch) for rid in open_rounds)
            epoch, open_rounds = epoch + 1, []
    metrics, rows = _ledger(out.spans, group_of, layer, checkins=GATEWAY_FLUSH)
    layer.update(metrics)
    layer.update({
        "gateway.flush_ms_p50": sp.median_ms(flush_ms),
        "gateway.mean_flush_size": stats["messages_flushed"] / stats["flushes"],
        "gateway.requests_per_round":
            (gateway.requests_made - requests_before) / (crowd.acked - acked_before),
        "gateway.custody_requeues": float(stats["custody_requeues"]),
        "serve.client.round_ms_p90": sp.percentile(reference_ms, 90.0),
        "obs.overhead_share": 1.0 - traced / reference,
    })
    out.metrics = layer
    out.details.update(reference_rounds_per_s=reference, traced_rounds_per_s=traced,
                       ledger_ms=rows, ledger_unit="one flush epoch")
    return out


RUNNERS: Dict[str, Callable[[Context], Outcome]] = {
    "sim_fused": lambda ctx: run_sim("sim_fused", ctx),
    "sim_delayed": lambda ctx: run_sim("sim_delayed", ctx),
    "http_round": lambda ctx: run_per_device("http_round", ctx),
    "gateway_batch": run_gateway,
    "durable_sharded": lambda ctx: run_per_device("durable_sharded", ctx),
}
