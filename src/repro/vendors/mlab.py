"""M-Lab NDT simulator.

NDT "establishes a single TCP connection to quantify uplink/downlink
speeds" and archives download and upload tests as *separate* records --
"NDT measurements do not associate an upload speed test with a download
speed test initiated by the same client" (Section 3.2).  This simulator
reproduces both properties: tests run through the single-flow profile
(with its documented under-measurement) and each logical session emits a
download record and, usually within two minutes, an upload record from
the same client IP, so the 120-second join of
:mod:`repro.pipeline.ndt_join` has realistic input.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.frame import ColumnTable
from repro.market.isps import city_catalog
from repro.market.plans import PlanCatalog
from repro.market.population import (
    PopulationConfig,
    SubscriberPopulation,
    default_city_config,
)
from repro.netsim.latency import LatencyModel
from repro.netsim.path import SINGLE_FLOW_NDT_PROFILE, FlowProfile, PathSimulator
from repro.netsim.servers import MLAB_POOL
from repro.obs import metrics as obs_metrics
from repro.obs.quality import get_quality
from repro.obs.trace import span
from repro.vendors.schema import MLAB_COLUMNS, sample_test_hour, sample_test_month

__all__ = ["MLabSimulator"]

_SECONDS_PER_DAY = 86_400


class MLabSimulator:
    """Simulate M-Lab NDT measurements for one city.

    Parameters
    ----------
    city, catalog, seed:
        As for :class:`~repro.vendors.ookla.OoklaSimulator`.
    config:
        Population config; defaults to the M-Lab-calibrated tier mix
        (M-Lab skews further toward low tiers than Ookla, Tables 3/5-7).
    upload_followup_prob:
        Probability a download test is followed by an upload test from the
        same client within the join window.
    stray_upload_prob:
        Probability of an extra upload test that has no paired download
        within the window (exercises the join's earliest-match rule).
    """

    def __init__(
        self,
        city: str,
        catalog: PlanCatalog | None = None,
        config: PopulationConfig | None = None,
        profile: FlowProfile = SINGLE_FLOW_NDT_PROFILE,
        seed: int = 0,
        upload_followup_prob: float = 0.92,
        stray_upload_prob: float = 0.06,
    ):
        self.city = city.upper()
        self.catalog = catalog or city_catalog(self.city)
        # NDT is web-only: no device metadata is ever recorded.
        self.config = config or default_city_config(self.city, "mlab")
        self.profile = profile
        self.seed = seed
        self.upload_followup_prob = upload_followup_prob
        self.stray_upload_prob = stray_upload_prob
        self.population = SubscriberPopulation(
            self.city, self.catalog, self.config, seed=seed
        )
        # M-Lab's sparser pool (Section 3.2: ~500 servers worldwide)
        # sits farther from the client; the longer RTT compounds the
        # single-flow under-measurement via the Mathis term.
        self.path = PathSimulator(
            latency_model=LatencyModel(**MLAB_POOL.latency_model_kwargs()),
            seed=seed,
        )

    def generate(self, n_sessions: int) -> ColumnTable:
        """Generate records for ``n_sessions`` NDT sessions.

        A session is one user visit: one download record plus usually one
        upload record 5-90 s later (sometimes missing, sometimes
        duplicated, occasionally outside the 120 s window), so the output
        row count exceeds ``n_sessions``.
        """
        if n_sessions < 0:
            raise ValueError("n_sessions cannot be negative")
        with span(
            "vendor.mlab.generate", city=self.city, n_sessions=n_sessions
        ) as sp:
            table = self._generate(n_sessions)
            sp.set(rows=len(table))
        obs_metrics.counter("tests.generated").inc(len(table))
        quality = get_quality()
        if quality.enabled:
            # NDT records are one-directional; sketch each direction.
            speeds = np.asarray(table["speed_mbps"], dtype=float)
            is_down = table["direction"] == "download"
            quality.field("mlab.download_mbps").observe_array(
                speeds[is_down]
            )
            quality.field("mlab.upload_mbps").observe_array(
                speeds[~is_down]
            )
        return table

    def _generate(self, n_sessions: int) -> ColumnTable:
        rng = np.random.default_rng(self.seed + 2)
        users = self.population.generate_users(
            n_sessions, seed=self.seed + 3
        )
        if not users:
            return ColumnTable({name: [] for name in MLAB_COLUMNS})
        n = n_sessions
        user = np.arange(n) % len(users)
        month = sample_test_month(rng, n)
        hour = sample_test_hour(rng, n)
        day_of_year = (month - 1) * 30 + rng.integers(0, 28, n)
        timestamp = (
            day_of_year * _SECONDS_PER_DAY
            + hour * 3600
            + rng.integers(0, 3600, n)
        ).astype(float)
        # NDT routes a session to one nearby server; both directions of a
        # visit hit the same server, which is what makes the
        # same-client/same-server join of Section 3.2 work.
        server = rng.integers(1, 16, n)
        followup = np.flatnonzero(rng.random(n) < self.upload_followup_prob)
        delay = rng.uniform(5.0, 90.0, len(followup))
        # A second upload far outside the window -- the join must prefer
        # the earliest in-window candidate and ignore this.  It is a test
        # of its own, drawn after every session's test.
        stray = np.flatnonzero(rng.random(n) < self.stray_upload_prob)
        stray_delay = rng.uniform(200.0, 3000.0, len(stray))
        tests = self.path.compute(
            self.path.draw(
                self.profile,
                users,
                np.concatenate([user, user[stray]]),
                np.concatenate([hour, hour[stray]]),
                rng,
            )
        )
        # Records session by session: the download, its upload, a stray.
        session = np.concatenate([np.arange(n), followup, stray])
        kind = np.repeat([0, 1, 2], [n, len(followup), len(stray)])
        test = np.concatenate([np.arange(n), followup, n + np.arange(len(stray))])
        offset = np.concatenate([np.zeros(n), delay, stray_delay])
        order = np.lexsort((kind, session))
        session, kind, test, offset = (
            column[order] for column in (session, kind, test, offset)
        )
        is_download = kind == 0
        records = len(session)
        return ColumnTable(
            {
                "test_id": np.array(
                    [f"ndt-{self.city}-{i:08d}" for i in range(records)],
                    dtype=object,
                ),
                "client_ip": np.array(
                    [_client_ip(u.user_id) for u in users], dtype=object
                )[user[session]],
                "server_ip": np.array(
                    [f"203.0.113.{k}" for k in range(16)], dtype=object
                )[server[session]],
                "asn": np.full(records, _asn_for_isp(self.catalog.isp_name)),
                "city": np.full(records, self.city, dtype=object),
                "isp": np.full(records, self.catalog.isp_name, dtype=object),
                "direction": np.where(is_download, "download", "upload").astype(
                    object
                ),
                "speed_mbps": np.where(
                    is_download,
                    tests.download_mbps[test],
                    tests.upload_mbps[test],
                ),
                "rtt_ms": tests.rtt_ms[test],
                "timestamp_s": timestamp[session] + offset,
                "month": month[session],
                "hour": hour[session],
                "true_tier": np.asarray([u.tier for u in users])[user[session]],
            }
        )


def _stable_token(text: str, modulus: int) -> int:
    """Process-independent hash (str hash() is salted per interpreter)."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") % modulus


def _client_ip(user_id: str) -> str:
    """Deterministic per-user public IP (one IP per user in this model)."""
    token = _stable_token(user_id, 254 * 254)
    return f"198.51.{token // 254}.{token % 254 + 1}"


def _asn_for_isp(isp_name: str) -> int:
    """Stable fake ASN per ISP name."""
    return 64500 + _stable_token(isp_name, 100)
