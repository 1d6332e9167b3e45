"""Tests for the HotspotDetector front-end."""

import numpy as np
import pytest

from repro.data import Corpus, Record
from repro.hotspots import HotspotDetector


def clustered_corpus(seed=0, n_per=80):
    """Records around two venues and two daily peaks."""
    rng = np.random.default_rng(seed)
    records = []
    rid = 0
    for center, hour in (((2.0, 2.0), 9.0), ((12.0, 12.0), 21.0)):
        for _ in range(n_per):
            loc = rng.normal(center, 0.15, size=2)
            t = float(rng.normal(hour, 0.4) % 24.0) + 24.0 * rng.integers(0, 5)
            records.append(
                Record(
                    record_id=rid,
                    user=f"u{rid % 7}",
                    timestamp=float(t),
                    location=(float(loc[0]), float(loc[1])),
                    words=("w",),
                )
            )
            rid += 1
    return Corpus(records=records)


class TestFit:
    @pytest.fixture(scope="class")
    def detector(self):
        return HotspotDetector(
            spatial_bandwidth=1.0, temporal_bandwidth=1.0, min_support=3
        ).fit(clustered_corpus())

    def test_finds_two_spatial_hotspots(self, detector):
        assert detector.n_spatial == 2
        modes = detector.spatial_hotspots[
            np.argsort(detector.spatial_hotspots[:, 0])
        ]
        np.testing.assert_allclose(modes[0], [2, 2], atol=0.3)
        np.testing.assert_allclose(modes[1], [12, 12], atol=0.3)

    def test_finds_two_temporal_hotspots(self, detector):
        assert detector.n_temporal == 2
        hours = sorted(detector.temporal_hotspots)
        assert hours[0] == pytest.approx(9.0, abs=0.5)
        assert hours[1] == pytest.approx(21.0, abs=0.5)

    def test_unfitted_access_raises(self):
        detector = HotspotDetector()
        with pytest.raises(RuntimeError, match="not fitted"):
            _ = detector.spatial_hotspots
        with pytest.raises(RuntimeError, match="not fitted"):
            _ = detector.temporal_hotspots
        with pytest.raises(RuntimeError, match="not fitted"):
            detector.assign_spatial(np.zeros((1, 2)))


class TestAssign:
    @pytest.fixture(scope="class")
    def detector(self):
        return HotspotDetector(
            spatial_bandwidth=1.0, temporal_bandwidth=1.0
        ).fit(clustered_corpus())

    def test_assign_spatial_nearest(self, detector):
        idx = detector.assign_spatial(np.asarray([[2.1, 1.9], [11.8, 12.1]]))
        modes = detector.spatial_hotspots
        assert np.linalg.norm(modes[idx[0]] - [2, 2]) < 0.5
        assert np.linalg.norm(modes[idx[1]] - [12, 12]) < 0.5

    def test_assign_temporal_uses_circular_distance(self, detector):
        # An hour just before midnight must snap to the 21:00 hotspot, not
        # wrap incorrectly.
        idx = detector.assign_temporal(np.asarray([23.5]))
        assert detector.temporal_hotspots[idx[0]] == pytest.approx(21.0, abs=0.5)

    def test_assign_temporal_handles_absolute_timestamps(self, detector):
        same_hour = detector.assign_temporal(np.asarray([9.0, 33.0, 105.0]))
        assert len(set(same_hour.tolist())) == 1

    def test_assign_record(self, detector):
        s = detector.assign_spatial([(2.0, 2.0)])[0]
        t = detector.assign_temporal([9.2])[0]
        assert np.linalg.norm(detector.spatial_hotspots[s] - [2, 2]) < 0.5
        assert detector.temporal_hotspots[t] == pytest.approx(9.0, abs=0.5)

    def test_new_points_far_away_still_assigned(self, detector):
        idx = detector.assign_spatial(np.asarray([[100.0, 100.0]]))
        assert 0 <= idx[0] < detector.n_spatial


class TestValidation:
    def test_rejects_bad_bandwidths(self):
        with pytest.raises(ValueError):
            HotspotDetector(spatial_bandwidth=0)
        with pytest.raises(ValueError):
            HotspotDetector(temporal_bandwidth=-1)

    def test_fit_arrays_shape_checks(self):
        detector = HotspotDetector()
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            detector.fit_arrays(np.zeros((5, 3)), np.zeros(5))
        with pytest.raises(ValueError, match="equal length"):
            detector.fit_arrays(np.zeros((5, 2)), np.zeros(4))

    def test_min_support_reduces_hotspots(self):
        corpus = clustered_corpus(n_per=30)
        few = HotspotDetector(
            spatial_bandwidth=0.3, min_support=25
        ).fit(corpus)
        many = HotspotDetector(
            spatial_bandwidth=0.3, min_support=1
        ).fit(corpus)
        assert few.n_spatial <= many.n_spatial
