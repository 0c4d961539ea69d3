"""Bit-identity oracle for the vectorised peak finder.

``_local_maxima`` finds plateaus as runs of equal values and
``_prominence`` takes each side's minimum with numpy reductions.  Both
must give exactly what the element-by-element walks kept below as
references give: the same integer indices, and prominences with the
same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.kde import GaussianKDE
from repro.stats.peaks import _local_maxima, _prominence, find_density_peaks


# ---------------------------------------------------------------------------
# References: the plateau walk and the outward prominence walk
# ---------------------------------------------------------------------------
def _ref_local_maxima(density: np.ndarray) -> np.ndarray:
    if density.size < 3:
        return np.array([], dtype=int)
    maxima = []
    n = density.size
    i = 0
    while i < n:
        j = i
        while j + 1 < n and density[j + 1] == density[j]:
            j += 1
        rises_left = i == 0 or density[i - 1] < density[i]
        falls_right = j == n - 1 or density[j + 1] < density[j]
        if rises_left and falls_right and not (i == 0 and j == n - 1):
            maxima.append((i + j) // 2)
        i = j + 1
    return np.asarray(maxima, dtype=int)


def _ref_prominence(density: np.ndarray, index: int) -> float:
    height = density[index]
    side_mins: list[float] = []
    if index > 0:
        left_min = height
        for i in range(index - 1, -1, -1):
            if density[i] > height:
                break
            left_min = min(left_min, density[i])
        else:
            left_min = float(density[: index + 1].min())
        side_mins.append(left_min)
    if index < density.size - 1:
        right_min = height
        for i in range(index + 1, density.size):
            if density[i] > height:
                break
            right_min = min(right_min, density[i])
        else:
            right_min = float(density[index:].min())
        side_mins.append(right_min)
    if not side_mins:
        return float(height)
    return float(height - max(side_mins))


def _check(density) -> np.ndarray:
    density = np.asarray(density, dtype=float)
    got = _local_maxima(density)
    want = _ref_local_maxima(density)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    for index in want.tolist():
        got_p = _prominence(density, index)
        want_p = _ref_prominence(density, index)
        assert type(got_p) is float
        assert np.float64(got_p).tobytes() == np.float64(want_p).tobytes()
    # Every index, maxima or not: prominence is defined for any point.
    for index in range(density.size):
        assert np.float64(_prominence(density, index)).tobytes() == (
            np.float64(_ref_prominence(density, index)).tobytes()
        )
    return got


CURVES = {
    "empty": [],
    "one": [1.0],
    "two-rising": [1.0, 2.0],
    "constant": [3.0] * 9,
    "rising": [1.0, 2.0, 3.0, 4.0],
    "falling": [4.0, 3.0, 2.0, 1.0],
    "interior-peak": [0.0, 1.0, 3.0, 1.0, 0.0],
    "plateau-odd": [0.0, 2.0, 2.0, 2.0, 0.0],
    "plateau-even": [0.0, 2.0, 2.0, 2.0, 2.0, 0.0],
    "plateau-left-edge": [5.0, 5.0, 5.0, 1.0, 0.0],
    "plateau-right-edge": [0.0, 1.0, 5.0, 5.0],
    "shoulder": [0.0, 2.0, 2.0, 3.0, 1.0],
    "valley-plateau": [3.0, 1.0, 1.0, 1.0, 3.0],
    "equal-twin-peaks": [0.0, 2.0, 0.5, 2.0, 0.0],
    "ties-in-valley": [0.0, 4.0, 1.0, 1.0, 2.0, 1.0, 1.0, 4.0, 0.0],
    "both-ends": [3.0, 1.0, 0.0, 1.0, 3.0],
    "zeros": [0.0, 0.0, 1.0, 0.0, 0.0],
    "nan-inside": [0.0, 1.0, np.nan, 2.0, 0.0, 1.0, 0.5],
    "nan-edge": [np.nan, 1.0, 0.0, 2.0, np.nan],
}


class TestPeakKernelBitIdentity:
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_shapes(self, name):
        _check(CURVES[name])

    def test_shape_expectations(self):
        assert _check(CURVES["constant"]).tolist() == []
        assert _check(CURVES["plateau-even"]).tolist() == [2]
        assert _check(CURVES["both-ends"]).tolist() == [0, 4]
        assert _check(CURVES["plateau-left-edge"]).tolist() == [1]

    @pytest.mark.parametrize("seed", range(12))
    def test_quantised_random_curves(self, seed):
        # Few distinct levels: plateaus and ties everywhere.
        rng = np.random.default_rng(seed)
        for size in (3, 4, 7, 50, 300):
            _check(rng.integers(0, 4, size=size).astype(float))

    @pytest.mark.parametrize("seed", range(6))
    def test_kde_curves(self, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate(
            [rng.normal(m, 0.1 + 0.2 * rng.random(), 300)
             for m in rng.uniform(0.0, 6.0, size=1 + seed % 5)]
        )
        grid, density = GaussianKDE(values).grid(num=512)
        _check(density)
        peaks = find_density_peaks(grid, density)
        assert all(p.prominence > 0 for p in peaks)
