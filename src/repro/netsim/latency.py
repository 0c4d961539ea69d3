"""RTT and loss sampling for simulated speed tests.

Speed test vendors route clients to nearby servers (Ookla has >16k,
M-Lab >500 -- Section 3), so base RTTs are short but variable.  The WiFi
hop adds both delay and loss; both feed the Mathis term of the TCP model,
which is what separates single-flow NDT from multi-flow Ookla results at
higher tiers (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["LatencyModel"]


@dataclass(frozen=True)
class LatencyModel:
    """Samples per-test RTT (ms) and packet loss probability.

    Parameters are log-space: RTT is lognormal around ``median_rtt_ms``
    with multiplicative spread ``rtt_sigma``; loss is lognormal around
    ``median_loss``.  WiFi adds a fixed extra delay range plus extra loss.
    """

    median_rtt_ms: float = 12.0
    rtt_sigma: float = 0.35
    median_loss: float = 1.2e-5
    loss_sigma: float = 0.9
    wifi_extra_rtt_range_ms: tuple[float, float] = (2.0, 10.0)
    # The crowded 2.4 GHz channel queues longer (cf. Sui et al. [45]).
    wifi_24ghz_extra_rtt_range_ms: tuple[float, float] = (4.0, 18.0)
    wifi_extra_loss: float = 2e-5

    def __post_init__(self):
        if self.median_rtt_ms <= 0:
            raise ValueError("median RTT must be positive")
        if not 0 < self.median_loss < 1:
            raise ValueError("median loss must be in (0, 1)")

    # Draw locations: the log of each median, taken once per model.
    @cached_property
    def log_median_rtt(self) -> float:
        return float(np.log(self.median_rtt_ms))

    @cached_property
    def log_median_loss(self) -> float:
        return float(np.log(self.median_loss))

    def wifi_rtt_range_ms(self, band_ghz: float | None) -> tuple[float, float]:
        """The WiFi extra-delay range: 2.4 GHz queues longer."""
        if band_ghz == 2.4:
            return self.wifi_24ghz_extra_rtt_range_ms
        return self.wifi_extra_rtt_range_ms

    @staticmethod
    def rtt_ms(log_rtt, extra_ms):
        """RTT from its log-normal draw and the WiFi extra delay drawn
        with it (0 on wired access); elementwise over arrays."""
        return np.maximum(np.exp(log_rtt) + extra_ms, 1.0)

    @staticmethod
    def loss_rate(log_loss, extra):
        """Loss from its log-normal draw and the WiFi extra loss drawn
        with it (0 on wired access); elementwise over arrays."""
        return np.minimum(np.maximum(np.exp(log_loss) + extra, 1e-7), 0.05)

    def sample_rtt_ms(
        self,
        rng: np.random.Generator,
        on_wifi: bool = False,
        band_ghz: float | None = None,
    ) -> float:
        """One test's RTT to the chosen measurement server.

        ``band_ghz`` selects the WiFi extra-delay range (2.4 GHz queues
        longer); it is ignored for wired tests.
        """
        log_rtt = rng.normal(self.log_median_rtt, self.rtt_sigma)
        extra = (
            rng.uniform(*self.wifi_rtt_range_ms(band_ghz)) if on_wifi else 0.0
        )
        return float(self.rtt_ms(log_rtt, extra))

    def sample_loss(
        self, rng: np.random.Generator, on_wifi: bool = False
    ) -> float:
        """One test's path loss probability."""
        log_loss = rng.normal(self.log_median_loss, self.loss_sigma)
        extra = rng.uniform(0.0, self.wifi_extra_loss) if on_wifi else 0.0
        return float(self.loss_rate(log_loss, extra))
