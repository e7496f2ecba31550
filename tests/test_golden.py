"""Golden reports: the behaviour oracle for changes that move arithmetic.

tests/golden/ holds the report of every REPLAY_CONFIGS entry of the release
gate, as written by the code when the entry was added, and each is compared
with the session's shipped pass of its entry (``shipped_reports`` in
conftest.py). The first goldens predate singular vectors from certified
subspace iteration. A change that alters arithmetic on purpose must keep
counts (trials, valid, violations) exactly and every rate and ratio quantile
within RTOL relative plus ATOL absolute. Regenerating a golden is a logged
change.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest
from test_acceptance import REPLAY_CONFIGS

GOLDEN = Path(__file__).parent / "golden"
COUNTS = ("trials", "valid", "violations")
VALUES = ("rate", "ratio_p50", "ratio_p90", "ratio_p99")
RTOL = 1e-6
ATOL = 1e-6


def _rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        for key in COUNTS:
            row[key] = int(row[key])
        for key in VALUES:
            row[key] = float(row[key]) if row[key] else None
        rows.append(row)
    return rows


def _close(a, b, rtol: float, atol: float) -> bool:
    # None is an empty cell; JSON reports spell non-finite values as text
    if a is None or b is None or isinstance(a, str) or isinstance(b, str):
        return a == b
    if not (math.isfinite(a) and math.isfinite(b)):
        return str(a) == str(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def report_rows(name: str, report: bytes) -> list[dict]:
    """The rows of a report of REPLAY_CONFIGS[name]."""
    return _rows(report.decode(), REPLAY_CONFIGS[name]["format"])


def assert_rows_match(got: list[dict], want: list[dict], rtol: float, atol: float) -> None:
    """Counts exactly, every rate and ratio quantile within rtol relative plus atol."""
    assert [r["theorem_id"] for r in got] == [r["theorem_id"] for r in want]
    for row, ref in zip(got, want):
        tid = row["theorem_id"]
        for key in COUNTS:
            assert row[key] == ref[key], (tid, key)
        for key in VALUES:
            assert _close(row[key], ref[key], rtol, atol), (tid, key, row[key], ref[key])


@pytest.mark.parametrize("name", sorted(REPLAY_CONFIGS))
def test_report_matches_golden(name, shipped_reports):
    fmt = REPLAY_CONFIGS[name]["format"]
    want = _rows((GOLDEN / f"{name}.{fmt}").read_text(), fmt)
    assert_rows_match(report_rows(name, shipped_reports[name]), want, RTOL, ATOL)
