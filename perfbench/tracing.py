"""Spans and counts around the calls into each svperturb layer.

Every module of the package is a layer. The tracer replaces module and class
attributes with wrappers while it is installed, so no file of the program
changes. Modules import with ``from .matcore import svd``, which gives each
consumer its own binding, so each binding gets its own wrapper:
``svperturb.models.svd``, ``svperturb.clustering.svd`` and so on. A few names
are also wrapped in their defining module, because calls from inside that
module (``clustering.kmeans``) or from a function-local import
(``clustering.misclassification`` in the selftest) resolve them there.

A wrapped call records a span (id, parent id, job tag, name, start, end) and
adds its exclusive time, its duration minus the durations of its direct
child spans, to its name. Summing exclusive times by layer therefore
accounts for every instant of the root spans exactly once. Tiny hot helpers
are counted but not timed; their time stays with their caller.

Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "svperturb"
LAYERS = (
    "matcore",
    "subspace",
    "models",
    "bounds",
    "resolvent",
    "clustering",
    "harness",
    "seeding",
)

# Cross-layer names each consumer module binds at import time.
BINDINGS = {
    "subspace": ("apply_norm", "check_orthonormal", "gauge", "singular_values"),
    "models": ("as_matrix", "effective_rank", "svd"),
    "bounds": (
        "apply_norm",
        "gauge",
        "procrustes_align",
        "sin_theta_norm",
        "singular_values",
        "two_inf_residual",
    ),
    "resolvent": ("as_matrix", "check_orthonormal", "svd"),
    "clustering": ("as_matrix", "derive_seed", "svd"),
    "harness": (
        "aligned_distance",
        "apply_norm",
        "cross_term_norm",
        "dense_resolvent_bilinear",
        "derive_seed",
        "embedding_gap",
        "empirical_quantity",
        "entrywise_bound",
        "gauge",
        "gauss_subspace_bound",
        "gauss_subspace_simplified",
        "gauss_sv_location_check",
        "gen_gaussian",
        "general_subspace_bound",
        "general_sv_bounds",
        "haar_basis",
        "kyfan",
        "linear_bilinear_bound",
        "linearized_basis",
        "linearized_noise",
        "local_law_bound",
        "local_law_gap",
        "low_rank_from_rng",
        "match_labels",
        "min_abs_z",
        "mirsky_check",
        "norm_spec_from_token",
        "perturb",
        "phi_from_eta",
        "phi_values",
        "plant_submatrices",
        "principal_angles",
        "procrustes_align",
        "resolvent_bilinear",
        "sample_gmm",
        "schatten",
        "sin_theta_norm",
        "singular_values",
        "solve_zj",
        "spectral_gmm",
        "spectral_norm_report",
        "spectral_submatrix",
        "svd",
        "two_inf_residual",
        "uphiu_deviation",
        "wedin_check",
        "weighted_bound",
    ),
}

# Names wrapped in their defining module as well.
OWN = (
    "matcore.svd",
    "matcore.singular_values",
    "matcore.as_matrix",
    "matcore.check_orthonormal",
    "clustering.kmeans",
    "clustering.misclassification",
    "harness.emit_report",
)

# Class attributes called across layers.
METHODS = (
    "bounds.BoundReport.build",
    "bounds.BoundReport.with_empirical",
    "bounds.IncoherenceStats.from_instance",
    "resolvent.LinearizationSpectrum.from_noise",
)

COUNTED_ONLY = frozenset(
    {"matcore.as_matrix", "matcore.check_orthonormal", "seeding.derive_seed"}
)

ROOT = "harness.main"
MATCH = "clustering.match_labels"


def _elements(args, kwargs) -> int:
    """N * n of the matrix handed to an SVD."""
    a = args[0] if args else next(iter(kwargs.values()))
    return math.prod(getattr(a, "shape", ()))


ELEMENTS = {"matcore.svd": _elements, "matcore.singular_values": _elements}


@dataclass
class Pass:
    """What one traced pass recorded."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    failed: dict = field(default_factory=lambda: defaultdict(int))
    elements: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    total_s: dict = field(default_factory=lambda: defaultdict(float))
    exact: int = 0
    spans: list = field(default_factory=list)


def canonical(fn) -> str:
    """'layer.qualname' of a function defined in the package."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Installs wrappers, records spans and counts, and restores the originals."""

    def __init__(self):
        self.current = Pass()
        self.job = None
        self.missing: list[str] = []
        self.unlisted: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording --------------------------------------------------------

    def start_pass(self) -> None:
        self.current = Pass()
        self._next_id = 0

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.current.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        tracer = self
        stack = self._stack
        elements = ELEMENTS.get(name)
        is_match = name == MATCH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.current
            rec.calls[name] += 1
            if elements is not None:
                rec.elements[name] += elements(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.failed[name] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                rec.self_s[name] += duration - frame[0]
                rec.total_s[name] += duration
                if stack:
                    stack[-1][0] += duration
                rec.spans.append((span_id, parent, tracer.job, name, start, end))
            if is_match:
                tracer._count_exact(result)
            return result

        return wrapper

    def _count_exact(self, result) -> None:
        exact = getattr(result, "exact", None)
        if exact is None:
            name = f"{PACKAGE}.clustering.RecoveryResult.exact"
            if name not in self.missing:
                self.missing.append(name)
        else:
            self.current.exact += bool(exact)

    def wrap(self, name, fn):
        if name in COUNTED_ONLY:
            return self._counted(name, fn)
        return self._timed(name, fn)

    def call(self, job: str, main, argv):
        """Run ``main(argv)`` as the root span of `job`."""
        self.job = job
        try:
            return self.wrap(ROOT, main)(argv)
        finally:
            self.job = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed name; list the ones that no longer exist."""
        self.missing = []
        self.unlisted = []
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        seen = set()
        for consumer, names in BINDINGS.items():
            for attr in names:
                self._patch_function(modules[consumer], consumer, attr, seen)
        for entry in OWN:
            layer, attr = entry.split(".")
            self._patch_function(modules[layer], layer, attr, seen)
        for entry in METHODS:
            layer, cls_name, attr = entry.split(".")
            self._patch_method(modules[layer], layer, cls_name, attr)
        # Cross-layer bindings added after the lists above were written are
        # wrapped too, so their time lands in the right layer, and listed.
        for consumer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (consumer, attr) in seen or not inspect.isfunction(value):
                    continue
                owner = value.__module__.rsplit(".", 1)[-1]
                if value.__module__.startswith(PACKAGE + ".") and owner != consumer:
                    self.unlisted.append(f"{PACKAGE}.{consumer}.{attr}")
                    self._set(module, attr, value, self.wrap(canonical(value), value))

    def _patch_function(self, module, layer, attr, seen) -> None:
        seen.add((layer, attr))
        value = vars(module).get(attr)
        if not inspect.isfunction(value):
            self.missing.append(f"{PACKAGE}.{layer}.{attr}")
            return
        self._set(module, attr, value, self.wrap(canonical(value), value))

    def _patch_method(self, module, layer, cls_name, attr) -> None:
        cls = vars(module).get(cls_name)
        raw = vars(cls).get(attr) if inspect.isclass(cls) else None
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if not inspect.isfunction(fn):
            self.missing.append(f"{PACKAGE}.{layer}.{cls_name}.{attr}")
            return
        wrapped = self.wrap(canonical(fn), fn)
        self._set(cls, attr, raw, classmethod(wrapped) if fn is not raw else wrapped)

    def _set(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(rec: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass (valid_share and overhead aside)."""
    m: dict[str, float] = {}
    for layer in LAYERS:
        names = [n for n in rec.calls if layer_of(n) == layer and n != ROOT]
        m[f"{layer}.calls"] = sum(rec.calls[n] for n in names)
        m[f"{layer}.self_s"] = sum(
            rec.self_s[n] for n in rec.self_s if layer_of(n) == layer
        )
        m[f"{layer}.failed"] = sum(rec.failed[n] for n in names)
    for fn in ("matcore.svd", "matcore.singular_values", "clustering.kmeans"):
        m[f"{fn}.calls"] = rec.calls.get(fn, 0)
        m[f"{fn}.self_s"] = rec.self_s.get(fn, 0.0)
    for fn in ELEMENTS:
        m[f"{fn}.elements"] = rec.elements.get(fn, 0)
    attempts = rec.calls.get(MATCH, 0)
    m["clustering.exact_share"] = rec.exact / attempts if attempts else 0.0
    m["harness.emit_s"] = rec.total_s.get("harness.emit_report", 0.0)
    m["trace.wall_s"] = rec.total_s.get(ROOT, 0.0)
    return m
