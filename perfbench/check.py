"""Report checks: structure for any seed, pinned values for the default seed.

Counts (trials, valid, violations) must match the pinned report exactly.
Rates and ratio quantiles must agree within ``|a - b| <= RTOL * max(|a|, |b|)
+ ATOL``. ATOL covers the rows whose ratio is a round-off deviation measured
against a 1e-8 or 1e-9 tolerance (``selftest:*``, ``phi_identity``,
``dense_match``, ``uphiu``): a change of summation order moves those by more
than any relative tolerance, and a ratio of 1e-6 is far from the violation
threshold of 1. A change that alters arithmetic on purpose therefore passes
as long as its values agree.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

COLUMNS = (
    "theorem_id",
    "trials",
    "valid",
    "violations",
    "rate",
    "ratio_p50",
    "ratio_p90",
    "ratio_p99",
)
COUNTS = ("trials", "valid", "violations")
VALUES = ("rate", "ratio_p50", "ratio_p90", "ratio_p99")
RTOL = 1e-6
ATOL = 1e-6


class ReportError(ValueError):
    pass


def parse(data: bytes) -> list[dict]:
    """Rows of a CSV report, with counts as ints and empty cells as None."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader, None)
    if tuple(header or ()) != COLUMNS:
        raise ReportError(f"unexpected header {header}")
    rows = []
    for cells in reader:
        if len(cells) != len(COLUMNS):
            raise ReportError(f"row has {len(cells)} cells: {cells}")
        row = dict(zip(COLUMNS, cells))
        for key in COUNTS:
            row[key] = int(row[key])
        for key in VALUES:
            row[key] = float(row[key]) if row[key] else None
        rows.append(row)
    return rows


def structure_problems(rows: list[dict], trials: int) -> list[str]:
    """Checks that hold for every seed of every workload."""
    problems = []
    if not rows:
        problems.append("report has no rows")
    for row in rows:
        tid = row["theorem_id"]
        if row["trials"] != trials:
            problems.append(f"{tid}: {row['trials']} trials, configured {trials}")
        if not 0 <= row["violations"] <= row["valid"] <= row["trials"]:
            problems.append(f"{tid}: counts out of order")
        if row["violations"]:
            problems.append(f"{tid}: {row['violations']} violations")
        if (row["rate"] is None) != (row["valid"] == 0):
            problems.append(f"{tid}: rate present iff valid > 0 does not hold")
    return problems


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def reference_problems(rows: list[dict], pinned: list[dict]) -> list[str]:
    """Differences from the pinned report of the default seed."""
    ids = [r["theorem_id"] for r in rows]
    want = [r["theorem_id"] for r in pinned]
    if ids != want:
        return [f"theorem ids {ids} differ from pinned {want}"]
    problems = []
    for row, ref in zip(rows, pinned):
        tid = row["theorem_id"]
        for key in COUNTS:
            if row[key] != ref[key]:
                problems.append(f"{tid}: {key} {row[key]} != pinned {ref[key]}")
        for key in VALUES:
            if not _close(row[key], ref[key]):
                problems.append(f"{tid}: {key} {row[key]!r} != pinned {ref[key]!r}")
    return problems


def valid_share(reports: list[bytes]) -> float:
    """Sum of valid over sum of trials across the rows of `reports`."""
    valid = trials = 0
    for data in reports:
        for row in parse(data):
            valid += row["valid"]
            trials += row["trials"]
    return valid / trials if trials else 0.0


def reference_dir(root: Path, workload: str) -> Path:
    return root / "perfbench" / "reference" / workload
