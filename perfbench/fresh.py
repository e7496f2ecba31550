"""Work that needs a fresh interpreter: set-up time and peak memory.

    python3 perfbench/fresh.py setup SRC JOBS_JSON
    python3 perfbench/fresh.py rss SRC JOBS_JSON

JOBS_JSON is a JSON list of argv lists for ``svperturb.harness.main``. The
result is one JSON object on standard output.

``setup`` times importing svperturb, then each job up to its first trial:
parsing the config file, building the ExperimentConfig and validating the
model and theorem tokens. The first trial is recognized by its first draw of
a trial seed (``derive_seed`` as the harness binds it) or its first random
generator, whichever comes first; the job is stopped there.

``rss`` runs every job to completion and reports the peak resident memory of
the process.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class FirstTrial(BaseException):
    """Raised at the first trial; BaseException so the harness lets it pass."""


def _stop(*args, **kwargs):
    raise FirstTrial


def setup(harness, np, jobs) -> dict:
    import_s = time.perf_counter() - _T0
    saved = [(np.random, "default_rng", np.random.default_rng)]
    if hasattr(harness, "derive_seed"):
        saved.append((harness, "derive_seed", harness.derive_seed))
    for owner, attr, _ in saved:
        setattr(owner, attr, _stop)
    jobs_s = []
    codes = []
    try:
        for argv in jobs:
            t0 = time.perf_counter()
            try:
                codes.append(harness.main(argv))
            except FirstTrial:
                codes.append(None)
            jobs_s.append(time.perf_counter() - t0)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    return {"setup_s": import_s + sum(jobs_s), "import_s": import_s, "codes": codes}


def rss(harness, jobs) -> dict:
    codes = [harness.main(argv) for argv in jobs]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"peak_rss_mb": peak_kib / 1024.0, "codes": codes}


def main() -> None:
    mode, src, jobs_path = sys.argv[1:4]
    sys.path.insert(0, src)
    import numpy as np
    from svperturb import harness

    with open(jobs_path) as fh:
        jobs = json.load(fh)
    result = setup(harness, np, jobs) if mode == "setup" else rss(harness, jobs)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
