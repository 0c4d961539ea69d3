"""repro.serve -- BST model registry and online tier assignment.

Fitting a BST model is the pipeline's dominant cost; this subsystem
makes a fitted model reusable and servable:

- :mod:`repro.serve.registry` -- content-addressed, versioned store of
  fitted models keyed by ``(city, isp, config fingerprint)``.
- :mod:`repro.serve.engine` -- vectorised tier assignment against a
  frozen fit (byte-identical to fit-time labels on the training
  sample) plus a bounded micro-batching queue for streaming input.
- :mod:`repro.serve.server` / :mod:`repro.serve.client` -- a stdlib
  HTTP service (``/assign``, ``/models``, ``/healthz``) and its
  client, with per-request observability, drift checks, and graceful
  shutdown.
- :mod:`repro.serve.http` -- the request core (handler and server
  base) that the server and the router share.
- :mod:`repro.serve.worker` -- ``run(registry_root, ServeConfig)``,
  the body of every serving process, and the sharded worker entry
  point.
- :mod:`repro.serve.router` -- the scale-out layer: N worker
  subprocesses sharded by ``(city, isp)`` behind one front router
  (``repro serve --workers N``); each worker gets the deployment's
  whole :class:`~repro.serve.server.ServeConfig`.

See docs/SERVING.md for the full tour.
"""

from repro.serve.engine import (
    AssignmentBatch,
    MicroBatcher,
    QuantizedLookup,
    TierAssigner,
)
from repro.serve.registry import ModelKey, ModelRecord, ModelRegistry

__all__ = [
    "AssignmentBatch",
    "MicroBatcher",
    "ModelKey",
    "ModelRecord",
    "ModelRegistry",
    "QuantizedLookup",
    "TierAssigner",
]
