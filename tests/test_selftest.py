"""The CLI's fast invariant suite passes on the shipped code."""

from mlpicard.selftest import run_selftest


def test_selftest_passes():
    assert run_selftest(out=lambda _: None) is True
