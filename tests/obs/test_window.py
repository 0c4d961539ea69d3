"""The tick-ring primitive behind every windowed statistic."""

from __future__ import annotations

import math

from repro.obs.window import TickRing


class TestTickRing:
    def test_floor_tick_matches_truncating_tick_on_bucket_edges(self):
        # Windowed instruments used int(t / bucket_s); the ring uses
        # int(t // bucket_s).  At bucket_s = 1.0 they must agree on
        # every clock value, exact bucket edges included.
        ring = TickRing(300, 1.0, float)
        grid = []
        for base in (0.0, 1.0, 59.0, 60.0, 299.0, 300.0, 1e6, 2.0**40):
            for k in range(3):
                edge = base + k
                grid += [
                    edge,
                    math.nextafter(edge, math.inf),
                    math.nextafter(edge, 0.0),
                    edge + 0.5,
                ]
        for t in grid:
            i = ring.index(t)
            assert ring.ticks[i] == int(t / 1.0)

    def test_live_skips_never_written_slots(self):
        ring = TickRing(4, 1.0, float)
        ring.add(0.5, 3.0)
        assert ring.live(0.5, 4.0) == [3.0]
        assert ring.live(2.0, 4.0) == [3.0]
        assert ring.live(4.0, 4.0) == []

    def test_a_write_resets_a_stale_slot(self):
        ring = TickRing(2, 1.0, list)
        ring.slot(0.5).append("old")
        ring.slot(2.5).append("new")  # same slot, two ticks later
        assert ring.live(2.5, 2.0) == [["new"]]
