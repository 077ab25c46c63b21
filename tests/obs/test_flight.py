"""The flight recorder's own argument checks."""

import pytest

from repro.obs.flight import FlightRecorder


@pytest.mark.parametrize("window_s", [0.0, -1.0, float("nan")])
def test_a_non_positive_or_nan_window_is_refused(window_s, tmp_path):
    with pytest.raises(ValueError, match="window_s must be positive"):
        FlightRecorder(None, str(tmp_path), window_s=window_s)
    assert list(tmp_path.iterdir()) == []


def test_a_positive_window_is_kept(tmp_path):
    assert FlightRecorder(None, str(tmp_path), window_s=0.5).window_s == 0.5
