"""Measurement firehose and online model lifecycle.

The paper fits its contextualized BST models once, on a static
snapshot -- but crowdsourced speed tests arrive continuously and their
context mix drifts (tier composition shifts month over month; see
PAPERS.md).  This package turns the repo into a continuously-operating
system:

- :mod:`repro.stream.firehose` -- seeded, time-stamped micro-batches
  over the vendor simulators, with injectable drift segments and a
  timestamp-ordered :class:`~repro.stream.firehose.StreamMux`;
- :mod:`repro.stream.monitor` -- windowed per-(city, isp) stream
  statistics, rolling drift verdicts against registry
  ``training_stats``, and disruption detection;
- :mod:`repro.stream.scheduler` -- the debounced
  :class:`~repro.stream.scheduler.RefitScheduler` that refits drifted
  shards, registers the result, and hot-swaps serving via ``/reload``;
- :mod:`repro.stream.run` -- the standalone simulation harness behind
  ``repro stream run``;
- :mod:`repro.stream.attach` -- ``repro serve --refit``: a scheduler
  whose drift source is the serving
  :class:`~repro.serve.server.AssignmentService` itself (one per
  worker under ``--workers N``);
- :mod:`repro.stream.clock` -- the injectable clock (DET005 bans every
  other wall-clock reference in this package).
"""

from repro.stream.clock import SimClock, system_clock, system_sleep
from repro.stream.firehose import (
    DriftSegment,
    MeasurementStream,
    StreamBatch,
    StreamMux,
)
from repro.stream.monitor import StreamMonitor
from repro.stream.scheduler import RefitPolicy, RefitScheduler

__all__ = [
    "DriftSegment",
    "MeasurementStream",
    "RefitPolicy",
    "RefitScheduler",
    "SimClock",
    "StreamBatch",
    "StreamMonitor",
    "StreamMux",
    "system_clock",
    "system_sleep",
]
