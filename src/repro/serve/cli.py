"""``repro-serve`` — launch a Crowd-ML service from the command line.

Builds a :class:`~repro.core.server_core.ServerCore` (model from the
:data:`~repro.registry.MODELS` registry, the paper's projected SGD with
the c/√t schedule) and hosts it with
:class:`~repro.serve.service.CrowdService`::

    repro-serve --num-features 50 --num-classes 10 \\
                --learning-rate-constant 30 --max-iterations 100000 \\
                --port 8900

    # ephemeral port: parse the announced URL from the first stdout line
    repro-serve --num-features 50 --num-classes 10 --port 0

    # durable: log + fsync every update before its ack, resume any crash
    repro-serve --num-features 50 --num-classes 10 --port 8900 \\
                --state-dir /var/lib/crowdml --checkpoint-every 1

    # sharded: 4 supervised workers behind one front end, per-shard
    # snapshots in shard-<k>/ subdirs, health-checked fenced failover
    repro-serve --num-features 50 --num-classes 10 --port 8900 \\
                --state-dir /var/lib/crowdml --workers 4

The first line printed is always ``serving on http://HOST:PORT`` (flushed
immediately), so scripts and CI can scrape the bound port.

Durability: with ``--state-dir`` the service appends every accepted
request to a checksummed log before acking it (see :mod:`repro.persist`),
``fsync``ing at the ``--checkpoint-every`` cadence; snapshots are only
compaction points.  On startup it recovers the newest valid snapshot
plus the log records after it (torn files and a torn log tail are
skipped), so a SIGKILLed server restarted with the same flags resumes at
its last acked update.  SIGINT/SIGTERM shut down gracefully — listener
stops, in-flight requests drain, a final snapshot is flushed; exit 0 is
clean, 3 a drain timeout or failed flush (the log has every acked update).

The optimizer mirrors :class:`~repro.simulation.simulator.CrowdSimulator`
exactly (same schedule, same projection), so a remote run against a
matching spec reproduces an in-process run bit for bit — see
``examples/remote_round.py`` and ``examples/durable_round.py``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import TYPE_CHECKING, Callable, List, Optional

import repro
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.registry import MODELS
from repro.serve.host import HttpHost
from repro.serve.launch import ANNOUNCEMENT
from repro.serve.wire import PROTOCOL_VERSION
from repro.utils.exceptions import ReproError

# A process imports only what its flags run: the core, the optimizer and
# the model inside build_service, the snapshot store only with
# --state-dir, and a --workers front end none of them (nor NumPy).
if TYPE_CHECKING:
    from repro.serve.service import CrowdService


def _build_obs(args: argparse.Namespace, name: str):
    """Registry + tracer a parsed command line asks for (or ``None``s)."""
    metrics = None
    tracer = None
    if args.metrics or args.trace_dir is not None:
        metrics = MetricsRegistry(name=name)
        tracer = TraceRecorder(trace_dir=args.trace_dir, name=name)
    return metrics, tracer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a Crowd-ML task (ServerCore) over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8900,
                        help="bind port; 0 picks a free ephemeral port")
    parser.add_argument("--model", default="logistic", choices=MODELS.names(),
                        help="model registry name (default logistic)")
    parser.add_argument("--num-features", type=int, required=True,
                        help="model input dimension d")
    parser.add_argument("--num-classes", type=int, required=True,
                        help="number of classes C (1 for regression)")
    parser.add_argument("--learning-rate-constant", type=float, default=1.0,
                        help="c in the eta(t) = c/sqrt(t) schedule")
    parser.add_argument("--projection-radius", type=float, default=100.0,
                        help="radius R of the parameter ball W")
    parser.add_argument("--no-projection", action="store_true",
                        help="serve unconstrained parameters (no ball W)")
    parser.add_argument("--max-iterations", type=int, default=10**9,
                        help="T_max stopping bound (default effectively unbounded)")
    parser.add_argument("--target-error", type=float, default=None,
                        help="rho stopping threshold (default: none)")
    parser.add_argument("--server-key", default="crowd-ml-server-key",
                        help="registry HMAC key minting device tokens")
    parser.add_argument("--register", type=int, default=0, metavar="M",
                        help="pre-register devices 0..M-1 at startup")
    parser.add_argument("--no-join", action="store_true",
                        help="disable POST /v1/join (closed deployment: use "
                             "--register or a provisioned --server-key)")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="durable state directory: log accepted requests "
                             "here; recover snapshot + log tail at startup")
    parser.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                        help="durability cadence: fsync the log every N "
                             "applied updates (default 1 = before each ack; "
                             "N > 1 risks N-1 acked updates on power loss, "
                             "none on SIGKILL; 0 disables the count trigger)")
    parser.add_argument("--checkpoint-seconds", type=float, default=None,
                        metavar="S",
                        help="additionally fsync the log every S seconds "
                             "of wall clock (default: off)")
    parser.add_argument("--retain", type=int, default=4, metavar="K",
                        help="keep the newest K snapshots and the log "
                             "segments they may replay (default 4)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="run a sharded tier: N worker processes "
                             "(one ServerCore + shard-<k>/ snapshots each) "
                             "behind a health-checked front end on --port; "
                             "requires --state-dir (default 0 = single "
                             "unsharded service)")
    parser.add_argument("--shard-index", type=int, default=None, metavar="K",
                        help="worker mode: serve shard K of --shard-count "
                             "(normally set by the supervisor, not by hand)")
    parser.add_argument("--shard-count", type=int, default=0, metavar="N",
                        help="worker mode: total shards in the tier")
    parser.add_argument("--shard-epoch", type=int, default=-1, metavar="E",
                        help="worker mode: incarnation epoch this worker "
                             "writes at; refuses to start if the state "
                             "dir's fence has already passed it")
    parser.add_argument("--metrics", action="store_true",
                        help="enable the in-process metrics registry; "
                             "GET /v1/metrics serves Prometheus text "
                             "(?format=json for the raw snapshot).  The "
                             "endpoint always answers; without this flag "
                             "it reports an empty disabled registry")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="spool per-request phase traces as JSONL "
                             "into DIR (implies request tracing; without "
                             "it traces stay in a small in-memory ring "
                             "only when --metrics is set)")
    return parser


def build_service(args: argparse.Namespace) -> CrowdService:
    """Construct the core + service a parsed command line describes.

    With ``--state-dir``, the state recovered from it (newest valid
    snapshot + log tail) supersedes the command-line task state (the
    flags still define the model shape, which the snapshot must match);
    the resume point is recorded on the returned service as
    ``service.resumed_from`` (``None`` = fresh) + ``records_replayed``.
    """
    from repro.core.auth import DeviceRegistry
    from repro.core.config import ServerConfig
    from repro.core.server_core import ServerCore
    from repro.optim import paper_sgd
    from repro.serve.service import CrowdService

    model = MODELS.create(
        args.model, num_features=args.num_features, num_classes=args.num_classes
    )
    router = None
    if args.shard_index is not None:
        if args.shard_count < 1 or not 0 <= args.shard_index < args.shard_count:
            raise ReproError(
                f"--shard-index {args.shard_index} needs "
                f"0 <= index < --shard-count ({args.shard_count})"
            )
        from repro.shard.routing import ShardRouter

        router = ShardRouter(args.shard_count)
    shard_epoch = args.shard_epoch if args.shard_epoch >= 0 else None
    checkpointer = None
    resumed_from = None
    records_replayed = 0
    core = None
    if args.state_dir is not None:
        from repro.persist.checkpoint import Checkpointer, CheckpointPolicy, SnapshotStore

        store = SnapshotStore(args.state_dir, retain=args.retain,
                              epoch=shard_epoch)
        if shard_epoch is not None:
            fence = store.fence_epoch()
            if fence > shard_epoch:
                # A newer incarnation owns this shard; starting anyway
                # would only serve answers the front end must refuse.
                raise ReproError(
                    f"state dir {store.state_dir} is fenced at epoch "
                    f"{fence}; this incarnation (epoch {shard_epoch}) is "
                    f"superseded"
                )
        policy = CheckpointPolicy(
            every_n_updates=args.checkpoint_every if args.checkpoint_every > 0
            else None,
            every_seconds=args.checkpoint_seconds,
        )
        checkpointer = Checkpointer(store, policy)
        recovered = store.recover(model)
        if recovered is not None:
            core, resumed_from, records_replayed = recovered
            # Compact: the next start then replays none of this tail.
            checkpointer.checkpoint(core)
    if core is None:
        # The one shared construction CrowdSimulator also uses —
        # bit-parity of remote runs against in-process runs rests on it.
        optimizer = paper_sgd(
            model.init_parameters(),
            learning_rate_constant=args.learning_rate_constant,
            projection_radius=None if args.no_projection else args.projection_radius,
        )
        core = ServerCore(
            model,
            optimizer,
            config=ServerConfig(
                max_iterations=args.max_iterations, target_error=args.target_error
            ),
            registry=DeviceRegistry(server_key=args.server_key),
        )
        for device_id in range(args.register):
            # A shard worker enrolls only the devices it owns — tokens
            # are pure HMAC of (server key, device id), so the front
            # end's routing and the worker's registry always agree.
            if router is not None and router.shard_of(device_id) != args.shard_index:
                continue
            core.register_device(device_id)
        if checkpointer is not None:
            # Prime the state dir so even a crash before the first
            # check-in resumes the exact initial task state.
            checkpointer.checkpoint(core)
    worker_name = (
        f"shard-{args.shard_index}" if args.shard_index is not None else "serve"
    )
    metrics, tracer = _build_obs(args, worker_name)
    service = CrowdService(
        core, host=args.host, port=args.port, allow_join=not args.no_join,
        checkpointer=checkpointer, shard_epoch=shard_epoch,
        metrics=metrics, tracer=tracer,
    )
    service.resumed_from = resumed_from
    service.records_replayed = records_replayed
    return service


def run_sharded(args: argparse.Namespace, argv: List[str]) -> int:
    """``--workers N``: supervise N shard workers behind one front end.

    Workers get ``argv`` as given (a new flag reaches them with no second
    list to extend) minus the three per-process flags, plus
    ``--shard-count`` and ``--shard-index``; ``ShardWorker.spawn`` adds
    each incarnation's ``--port`` / ``--state-dir`` / ``--shard-epoch``.
    """
    from repro.shard import ShardFrontEnd, ShardRouter, ShardSupervisor, ShardWorker

    if args.state_dir is None:
        print("repro-serve: --workers requires --state-dir (the tier is "
              "durable by construction)", file=sys.stderr)
        return 2
    if args.shard_index is not None:
        print("repro-serve: --workers and --shard-index are mutually "
              "exclusive (front end vs worker mode)", file=sys.stderr)
        return 2
    # Children run `python -m repro.serve.cli`; make sure they can import
    # repro even if only the parent had it on its path.
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    per_process = argparse.ArgumentParser(add_help=False)
    for flag in ("--port", "--state-dir", "--workers"):
        per_process.add_argument(flag)
    base = per_process.parse_known_args(argv)[1]
    base += ["--shard-count", str(args.workers)]
    workers = [
        ShardWorker(
            shard,
            os.path.join(args.state_dir, f"shard-{shard}"),
            base + ["--shard-index", str(shard)],
            env=env,
        )
        for shard in range(args.workers)
    ]
    # One shared registry for the parent process: the supervisor's
    # failover counters and the front end's request metrics land in the
    # same scrape; per-shard worker metrics arrive over HTTP and are
    # merged in by the front end's /v1/metrics aggregation.
    metrics, _ = _build_obs(args, "frontend")
    supervisor = ShardSupervisor(workers, metrics=metrics)
    try:
        supervisor.start()
    except ReproError as error:
        print(f"repro-serve: shard tier failed to start: {error}",
              file=sys.stderr)
        return 2
    router = ShardRouter(args.workers)
    frontend = ShardFrontEnd(router, supervisor, host=args.host, port=args.port,
                             metrics=metrics)
    print(f"{ANNOUNCEMENT}{frontend.url}", flush=True)
    print(
        f"sharded tier: {args.workers} workers protocol=v{PROTOCOL_VERSION}",
        flush=True,
    )
    for shard, (url, epoch) in sorted(supervisor.endpoints().items()):
        print(f"shard {shard} at {url} epoch {epoch}", flush=True)

    def stop_workers() -> List[str]:
        codes = supervisor.stop(graceful=True)
        return [
            f"shard {shard} worker exited {code}"
            for shard, code in sorted(codes.items()) if code not in (0, None)
        ]

    return serve_until_signalled(
        frontend, stop_workers, f" across {args.workers} shards"
    )


def serve_until_signalled(
    host: HttpHost, finish: Callable[[], List[str]], served_suffix: str = ""
) -> int:
    """Serve until SIGINT/SIGTERM, then stop → drain → ``finish`` → report.

    ``finish`` makes the final state durable once no request is in
    flight and returns what went wrong (one line each).  Exit code 0
    means the shutdown was clean, 3 that the drain timed out or
    ``finish`` reported a problem.
    """

    def _shutdown(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)
    problems: List[str] = []
    try:
        host.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        host.stop()
        # Graceful half of durability: requests already inside a handler
        # get their responses, then the final state is made durable.
        if not host.drain(timeout=10.0):
            problems.append("shutdown drain timed out")
        problems += finish()
        for problem in problems:
            print(f"repro-serve: {problem}", file=sys.stderr)
        print(
            f"served {host.requests_served} requests "
            f"({host.total_errors} errors){served_suffix}",
            file=sys.stderr,
        )
    return 3 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if args.workers > 0:
        return run_sharded(args, argv)
    try:
        service = build_service(args)
    except ReproError as error:
        print(f"repro-serve: {error}", file=sys.stderr)
        return 2
    # The announcement line is a stable contract: scripts scrape the
    # bound (possibly ephemeral) port from it.
    print(f"{ANNOUNCEMENT}{service.url}", flush=True)
    print(
        f"model={args.model} d={args.num_features} C={args.num_classes} "
        f"protocol=v{PROTOCOL_VERSION} join={'off' if args.no_join else 'on'}",
        flush=True,
    )
    if args.shard_index is not None:
        print(
            f"shard {args.shard_index}/{args.shard_count} "
            f"epoch={args.shard_epoch}",
            flush=True,
        )
    if service.resumed_from is not None:
        print(
            f"resumed iteration {service.core.iteration} "
            f"from {service.resumed_from} + {service.records_replayed} "
            f"log records",
            flush=True,
        )

    def flush_final_snapshot() -> List[str]:
        try:
            service.checkpoint_now()
        except (ReproError, OSError) as error:
            return [f"final snapshot failed: {error}"]
        return []

    return serve_until_signalled(service, flush_final_snapshot)


if __name__ == "__main__":
    sys.exit(main())
