"""The benchmark's workloads: fixed lists of scenario jobs, seeded per run.

Each job is an ``svperturb`` configuration without its ``base_seed``. A run
turns a workload seed into one base seed per job, writes each config to a
JSON file and hands the program only that file (``--config``) and an output
path (``--out``), as a user of the command line would.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Seed whose reports are pinned under perfbench/reference/.
DEFAULT_SEED = 0

_GAUSS_GATE = (
    "gauss_sin_theta:operator",
    "gauss_sv_location:1",
    "gauss_2inf",
    "gauss_bilinear",
    "gauss_weighted",
    "mirsky:operator",
    "wedin:1:operator",
    "spectral_norm_event",
)

# Every theorem kind the bounds scenario accepts, on the rank-3 CLI model.
_EVERY_KIND = (
    "mirsky:operator",
    "mirsky:frobenius",
    "mirsky:nuclear",
    "mirsky:kyfan2",
    "mirsky:schatten3",
    "wedin:1:operator",
    "wedin:2:frobenius",
    "gauss_sin_theta:operator",
    "gauss_sin_theta:frobenius",
    "gauss_sin_theta_simplified",
    "gauss_sv_location:1",
    "gauss_sv_location:2",
    "gauss_sv_location:3",
    "gauss_2inf",
    "gauss_vector_inf",
    "gauss_matrix_2inf",
    "gauss_2inf_aligned",
    "gauss_linear",
    "gauss_bilinear",
    "gauss_weighted",
    "gauss_weighted_corollary",
    "general_sv:1",
    "general_sin_theta:2:operator",
    "spectral_norm_event",
)

WORKLOADS: dict[str, dict[str, dict]] = {
    # Release-gate regime: LAPACK on 900x900 and 600x600 matrices is nearly
    # all the work, so factorization and BLAS changes show here.
    "gate-heavy": {
        "bounds-900": {
            "scenario": "bounds",
            "trials": 2,
            "theorems": list(_GAUSS_GATE),
            "model": {
                "n_rows": 900,
                "n_cols": 900,
                "singulars": [2.0e5, 1.2e5],
                "k_lo": 1,
                "k_hi": 1,
            },
        },
        "submatrix-600": {
            "scenario": "submatrix",
            "trials": 4,
            "model": {
                "n_rows": 600,
                "n_cols": 600,
                "amplitudes": [6500.0, -6500.0],
                "block_rows": 100,
                "block_cols": 100,
                "restarts": 10,
            },
        },
    },
    # CLI size: each LAPACK call takes microseconds and Python dispatch in
    # bounds, subspace, resolvent and the harness dominates.
    "small-sweep": {
        "bounds-80x60": {
            "scenario": "bounds",
            "trials": 40,
            "theorems": list(_EVERY_KIND),
            "model": {
                "n_rows": 80,
                "n_cols": 60,
                "singulars": [40.0, 30.0, 20.0],
                "k_lo": 1,
                "k_hi": 3,
            },
        },
        "resolvent-60x40": {
            "scenario": "resolvent",
            "trials": 20,
            "model": {"n_rows": 60, "n_cols": 40, "dense": True},
        },
        "selftest": {"scenario": "selftest", "trials": 4},
    },
    # Gate-strength mixture: the only workload where k-means is a large share,
    # with two SVDs of the same small wide matrix per trial.
    "gmm-recovery": {
        "gmm-3x50x300": {
            "scenario": "gmm",
            "trials": 40,
            "model": {
                "n_features": 50,
                "n_samples": 300,
                "n_clusters": 3,
                "center_mode": "orthogonal",
                "center_scale": 9.0e4,
                "restarts": 10,
            },
        },
    },
}


@dataclass(frozen=True)
class Job:
    """One materialized job: its config file, its output path and its argv."""

    name: str
    scenario: str
    trials: int
    config_path: Path
    out_path: Path

    @property
    def argv(self) -> list[str]:
        return [
            self.scenario,
            "--config",
            str(self.config_path),
            "--out",
            str(self.out_path),
        ]


def base_seed(seed: int, job_name: str) -> int:
    """The job's base seed, a fixed function of the workload seed."""
    return random.Random(f"{seed}/{job_name}").getrandbits(32)


def materialize(workload: str, seed: int, directory: Path) -> list[Job]:
    """Write the workload's configs for `seed` under `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, spec in WORKLOADS[workload].items():
        config = dict(spec, base_seed=base_seed(seed, name), format="csv", threads=1)
        config_path = directory / f"{name}.config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        jobs.append(
            Job(
                name=name,
                scenario=spec["scenario"],
                trials=spec["trials"],
                config_path=config_path,
                out_path=directory / f"{name}.csv",
            )
        )
    return jobs
