"""Dense replay: every certified fact the reports read, checked against LAPACK
end to end.

Each replay config of the release gate is compared in two in-process runs:
the session's shipped pass (``shipped_reports`` in conftest.py, which the
goldens read too), and a run with the certified paths switched off, so that
every ``leading_svd`` falls back to a full LAPACK SVD and every top singular
value (the noise norm, the (r+1)-th observed value) comes from the dense
eigensolve. The two reports must agree in every count exactly and in every
rate and ratio quantile within RTOL relative, four orders tighter than the
goldens: a certificate that passes a wrong value fails here, whatever the
goldens were pinned from.

Three 900 x 900 configs are skipped, since each dense pass at that size
costs about a second; bounds-every-kind reads the same facts there (the
noise norm, the (r+1)-th observed value through wedin:2 and the trailing
spectrum), and bounds-tall-mirsky reads them on a tall model.
"""

import pytest
from test_acceptance import REPLAY_CONFIGS, replay_report
from test_golden import assert_rows_match, report_rows

from svperturb import matcore, models

RTOL = 1e-9
SKIPPED = ("bounds-heavy", "bounds-heavy-mirsky", "bounds-inner-window")


@pytest.mark.parametrize("name", sorted(set(REPLAY_CONFIGS) - set(SKIPPED)))
def test_dense_path_matches_certified(name, tmp_path, monkeypatch, shipped_reports):
    shipped = report_rows(name, shipped_reports[name])  # before the certificates go
    monkeypatch.setattr(matcore, "_wedin", lambda a, factors: None)
    # models binds the name at import, so both copies are raised
    for module in (matcore, models):
        monkeypatch.setattr(module, "TOP_DENSE_MAX", 10**9)
    dense = report_rows(name, replay_report(name, tmp_path))
    assert_rows_match(dense, shipped, RTOL, 0.0)
