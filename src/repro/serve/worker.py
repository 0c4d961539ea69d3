"""One sharded assignment worker process.

``python -m repro.serve.worker`` runs a single-process
:class:`~repro.serve.server.ServeServer` that owns one shard of the
``(city, isp)`` model space (``--shard I --shards N``; see
:func:`repro.serve.registry.shard_for`).  The router
(:mod:`repro.serve.router`) spawns N of these behind one front
endpoint and parses the ``serving on http://host:port`` line each
worker prints once its ephemeral port is bound.

Workers always load models through the registry's mmap'd ``.arrays``
sidecar, so N processes serving the same model share one page-cache
copy of the big per-row arrays instead of each parsing the JSON
object.  ``--quantized`` serves through the registered
byte-identity-proven lookup tables where available.

A worker is a complete server: it keeps its own micro-batchers, drift
windows and refit samples, and installs one process metrics registry
before it builds the server, so the engine, model-registry, batcher and
refit counters all render on its ``/metrics``.  It shuts down
gracefully on SIGTERM (the router stops workers exactly that way).
``--refit-interval`` (passed on by ``repro serve --refit``) runs a
refit scheduler on the worker's own service: the shard owner refits.
"""

from __future__ import annotations

import argparse

from repro.obs.metrics import active_or_new, use_registry
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeConfig, build_server, serve_until_shutdown

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description="one sharded tier-assignment worker process",
    )
    parser.add_argument("--registry", required=True, help="model store root")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--shard", type=int, default=0, help="this worker's shard index"
    )
    parser.add_argument(
        "--shards", type=int, default=1, help="total worker count"
    )
    parser.add_argument("--default-city", default="")
    parser.add_argument("--trace-sample", type=float, default=1.0)
    parser.add_argument(
        "--alert-interval",
        type=float,
        default=0.0,
        help="alert loop period in seconds; 0 disables (router default)",
    )
    parser.add_argument(
        "--alert-log", default=None, help="JSONL alert transition log"
    )
    parser.add_argument(
        "--quantized",
        action="store_true",
        help="serve via registered byte-identity-proven lookup tables",
    )
    parser.add_argument(
        "--refit-interval", type=float, default=0.0,
        help="refit scheduler poll period in seconds; 0 disables",
    )
    parser.add_argument("--jobs", type=int, default=1, help="refit fit jobs")
    args = parser.parse_args(argv)
    if not 0 <= args.shard < args.shards:
        parser.error(
            f"--shard {args.shard} outside 0..{args.shards - 1}"
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        default_city=args.default_city,
        trace_sample_rate=args.trace_sample,
        alert_interval_s=args.alert_interval,
        alert_log=args.alert_log,
        shard=(args.shard, args.shards),
        mmap_models=True,
        quantized=args.quantized,
    )
    with use_registry(active_or_new()):
        server = build_server(ModelRegistry(args.registry), config)
        scheduler = None
        if args.refit_interval > 0:
            from repro.stream.attach import attach_refit

            scheduler = attach_refit(
                server.service, interval_s=args.refit_interval, jobs=args.jobs
            )
        host, port = server.server_address[:2]
        # The router's supervisor parses this exact line for the bound port.
        print(f"serving on http://{host}:{port}", flush=True)
        try:
            return serve_until_shutdown(server)
        finally:
            if scheduler is not None:
                scheduler.stop()


if __name__ == "__main__":
    raise SystemExit(main())
