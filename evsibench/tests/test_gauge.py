"""The gauge kernel and the scaling of a runner's CPU seconds by its readings."""

from types import SimpleNamespace

import pytest

import gauge


def test_reading_is_positive_and_short():
    assert 0.0 < gauge.read() < 2.0


def test_operations_are_scaled_by_the_mean_of_the_readings_around_them(monkeypatch):
    assert gauge.EVERY_S == 0.5
    readings = iter([2.0, 2.0, 4.0, 1.0])
    monkeypatch.setattr(gauge, "read", lambda: next(readings) * gauge.REFERENCE_S)
    monkeypatch.setattr(gauge, "_kernel", lambda: 0.0)
    runner = SimpleNamespace(completed=0, estimate_s=0.0, oracle_s=0.0)
    scaled = gauge.ScaledTimes(runner)

    scaled()                                   # first reading: 2.0
    runner.completed, runner.estimate_s = 1, 1.0
    scaled()                                   # 1 s since the last reading: 2.0
    runner.oracle_s = 0.2
    scaled()                                   # 0.2 s, under EVERY_S: no reading
    runner.oracle_s = 3.0
    scaled()                                   # 3 s since: 4.0
    runner.completed, runner.estimate_s = 2, 2.0
    scaled.close()                             # always reads: 1.0

    completed, estimate_s, oracle_s = scaled.totals()
    assert completed == 2
    assert estimate_s == pytest.approx(1.0 / 2.0 + 1.0 / 2.5)
    assert oracle_s == pytest.approx(3.0 / 3.0)
