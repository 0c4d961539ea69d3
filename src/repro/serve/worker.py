"""The body of every serving process, and the sharded worker entry point.

:func:`run` serves one :class:`~repro.serve.server.ServeConfig` until
SIGTERM: it installs a new process metrics registry, builds the router
(``config.workers > 1``) or the server, attaches a refit scheduler to a
server when ``config.refit_interval_s > 0``, and serves
(:func:`~repro.serve.server.serve_until_shutdown`: SIGTERM/SIGINT
handlers first, then the ``serving on http://host:port`` line, then the
accept loop).  ``repro serve`` calls it after any startup fit, with the
run ledger's sinks already removed; so does each worker.

``python -m repro.serve.worker --registry DIR --config JSON`` is one
worker of a router (:mod:`repro.serve.router`), which spawns N of these
and parses the ``serving on`` line each prints once its ephemeral port
is bound.  ``--config`` is the deployment's whole config
(:meth:`ServeConfig.to_json`), re-pointed by the router at this
worker's shard: ``port=0``, ``workers=1``, ``shard=(i, N)`` and
``mmap_models=True``, so N processes serving the same model share one
page-cache copy of its big per-row arrays.  Every other setting --
alert interval, rules and log, trace sampling, refits -- is the
operator's.

A worker is a complete server: it keeps its own micro-batchers, drift
windows, refit samples and alert evaluator (each appends its own
``start`` row to a shared alert log), and its assignment, model-registry,
batcher, alert and refit counters all render on its ``/metrics``.  The
shard owner refits.  It shuts down gracefully on SIGTERM (the router
stops workers exactly that way).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve.registry import ModelRegistry
from repro.serve.router import build_router
from repro.serve.server import ServeConfig, build_server, serve_until_shutdown

__all__ = ["main", "run"]


def run(registry_root: str | Path, config: ServeConfig) -> int:
    """Serve ``config`` over the registry at ``registry_root`` until
    SIGTERM/SIGINT; returns the exit code."""
    # One registry per serving process: the server, its batchers and an
    # attached refit scheduler all write into the one /metrics renders.
    with use_registry(MetricsRegistry()):
        scheduler = None
        if config.workers > 1:
            server = build_router(registry_root, config)
        else:
            server = build_server(ModelRegistry(registry_root), config)
            if config.refit_interval_s > 0:
                from repro.stream.attach import attach_refit

                scheduler = attach_refit(server.service)
        try:
            return serve_until_shutdown(server)
        finally:
            if scheduler is not None:
                scheduler.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description="one sharded tier-assignment worker process",
    )
    parser.add_argument("--registry", required=True, help="model store root")
    parser.add_argument(
        "--config", required=True, metavar="JSON",
        help="the worker's ServeConfig as one JSON object",
    )
    args = parser.parse_args(argv)
    try:
        config = ServeConfig.from_json(args.config)
    except (TypeError, ValueError) as exc:
        parser.error(f"--config: {exc}")
    index, total = config.shard or (0, 1)
    if not 0 <= index < total:
        parser.error(f"shard {index} outside 0..{total - 1}")
    return run(args.registry, config)


if __name__ == "__main__":
    raise SystemExit(main())
