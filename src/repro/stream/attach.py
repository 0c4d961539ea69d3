"""Attach the online lifecycle to a live assignment service.

``repro serve --refit`` (in each worker, with ``--workers N``) starts a
refit scheduler whose drift source is the serving
:class:`~repro.serve.server.AssignmentService`: the ``verdicts()`` rows
``/healthz`` and the ``model_drift`` alert read, each loaded model's
refit sample, and an in-process reload as the hot swap.
"""

from __future__ import annotations

from repro.obs.logging import get_logger, kv
from repro.serve.server import AssignmentService
from repro.stream.scheduler import RefitScheduler

__all__ = ["attach_refit"]

log = get_logger("repro.stream.attach")


def attach_refit(service: AssignmentService) -> RefitScheduler:
    """Start a :class:`RefitScheduler` polling ``service``.

    The poll period, fit jobs and run ledger are the service config's
    ``refit_interval_s``, ``refit_jobs`` and ``refit_ledger`` (None: no
    ledger).  The scheduler runs on the service's clock.  Its
    ``stream.*`` instruments reach the service's ``/metrics`` when the
    service was built on the installed process registry, as ``repro
    serve`` builds it.  The caller owns ``scheduler.stop()`` at
    shutdown.
    """
    config = service.config
    scheduler = RefitScheduler(
        registry=service.registry,
        monitor=service,
        clock=service.clock,
        jobs=config.refit_jobs,
        ledger_path=config.refit_ledger,
    )
    scheduler.start(interval_s=config.refit_interval_s)
    log.info(
        "refit scheduler attached",
        extra=kv(interval_s=config.refit_interval_s),
    )
    return scheduler
