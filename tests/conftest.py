"""Fixtures shared by the release gate and the replay tests."""

import pytest
from test_acceptance import replay_report


class ShippedReports(dict):
    """Report bytes by REPLAY_CONFIGS name, each run as shipped under root on
    first read and kept."""

    def __init__(self, root):
        super().__init__()
        self.root = root

    def __missing__(self, name: str) -> bytes:
        self[name] = replay_report(name, self.root)
        return self[name]


@pytest.fixture(scope="session")
def shipped_reports(tmp_path_factory) -> ShippedReports:
    """One shipped pass of the replay configs per session, which the goldens,
    the dense replay and the reproducibility gate read."""
    return ShippedReports(tmp_path_factory.mktemp("shipped"))
