"""Pinned corpus of ``leading_svd`` results: the SHA-256 of the triplets it
returns on fixed draws of the release gate's models and a few small
certifying matrices.

A change to ``leading_svd`` that keeps every certified result and every
fallback must leave each digest as it is. The digests were recorded with
OpenBLAS at one BLAS thread; another BLAS or CPU kernel may round the same
products differently. So each case also pins the digest of the full LAPACK
SVD of its matrix, a path ``leading_svd`` only falls back to: where that
digest differs, the platform rounds differently and the case is checked to
1e-9 relative on its held values and on whether it is certified; where it
matches, a differing ``leading_svd`` digest fails.

Needs numpy and pytest only. ``python tests/test_leading_corpus.py`` writes
the corpus anew from the code it imports; re-pinning is a logged change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from svperturb.matcore import leading_svd, svd, wedin_certificate
from svperturb.models import (
    GmmSpec,
    LowRankSpec,
    SubmatrixSpec,
    haar_basis,
    low_rank_from_rng,
    plant_submatrices,
    sample_gmm,
)
from svperturb.seeding import derive_seed

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "leading_svd_corpus.json"


def _observed(shape, singulars, seed):
    """A bounds trial's observed matrix and start block, drawn as the bounds
    scenario draws them for the trial seed."""
    rng = np.random.default_rng(seed)
    fac = low_rank_from_rng(LowRankSpec(*shape, tuple(singulars)), rng)
    observed = (fac.left * fac.singulars) @ fac.right.T
    observed += rng.standard_normal(shape)
    return observed, len(singulars), fac.right


def _submatrix_600():
    spec = SubmatrixSpec(
        600,
        600,
        (tuple(range(100)), tuple(range(100, 200))),
        (tuple(range(100)), tuple(range(100, 200))),
        (6500.0, -6500.0),
    )
    return plant_submatrices(spec, derive_seed(0x5EED_0011, 0)), 2, None


def _gmm_50x300():
    spec = GmmSpec(50, 300, 3, 9.0e4 * np.eye(3, 50))
    return sample_gmm(spec, derive_seed(0x5EED_0010, 0)), 3, None


def _near_tie():
    doc = json.loads((DATA / "leading_svd_near_tie.json").read_text())
    return np.array(doc["a"]), doc["k"], None


def _two_spikes():
    rng = np.random.default_rng(33)
    left, right = haar_basis(rng, 50, 2), haar_basis(rng, 40, 2)
    a = (left * np.array([1e4, 5e3])) @ right.T + rng.standard_normal((50, 40))
    return a, 2, None


def _tied():
    rng = np.random.default_rng(32)
    a = (haar_basis(rng, 60, 3) * 1e4) @ haar_basis(rng, 50, 3).T
    return a + 1e-3 * rng.standard_normal(a.shape), 3, None


# name: a function giving (matrix, k, start block or None for the fixed one)
CASES = {
    "bounds-900": lambda: _observed((900, 900), (2.0e5, 1.2e5), derive_seed(0x5EED_0900, 0)),
    "bounds-900-rank3": lambda: _observed((900, 900), (3.6e5, 2.4e5, 1.2e5), derive_seed(778, 0)),
    "submatrix-600": _submatrix_600,
    "gmm-50x300": _gmm_50x300,
    "near-tie-10x10": _near_tie,
    "two-spikes-50x40": _two_spikes,
    "tied-60x50": _tied,
    # the general-noise gate's model: the certificate fails, LAPACK answers
    "general-200": lambda: _observed(
        (200, 200), (400.0, 300.0, 200.0, 100.0), derive_seed(0x5EED_0007, 0)
    ),
}


def _digest(f) -> str:
    h = hashlib.sha256()
    for x in (f.left, f.singulars, f.right):
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def _record(name: str) -> dict:
    a, k, start = CASES[name]()
    got = leading_svd(a, k, start=start)
    return {
        "k": k,
        "certified": got.singulars.size == k,
        "held": got.singulars[:k].tolist(),
        "digest": _digest(got),
        "lapack_digest": _digest(svd(a)),
    }


@pytest.fixture(scope="module")
def corpus() -> dict:
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_case(corpus):
    assert set(corpus) == set(CASES)
    # the gate models, the mixture and the small matrices certify
    assert [name for name, case in corpus.items() if not case["certified"]] == ["general-200"]


@pytest.mark.parametrize("name", CASES)
def test_leading_svd_matches_its_pinned_digest(name, corpus):
    pinned = corpus[name]
    a, k, start = CASES[name]()
    got = leading_svd(a, k, start=start)
    if _digest(got) == pinned["digest"]:
        return
    # a platform that rounds LAPACK's own SVD as the recording one did must
    # give the pinned bits
    assert _digest(svd(a)) != pinned["lapack_digest"], f"{name}: leading_svd changed its bits"
    assert (got.singulars.size == k) == pinned["certified"]
    assert np.allclose(got.singulars[:k], pinned["held"], rtol=1e-9, atol=0.0)
    assert (wedin_certificate(a, got) is not None) == pinned["certified"]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({name: _record(name) for name in CASES}, indent=1) + "\n")
