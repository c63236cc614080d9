"""Outside-in per-layer self time.

The benchmark never edits ``src/``: it wraps the public functions each
pipeline layer is entered through and keeps a self-time stack.  A
layer's self time is the elapsed time of its frames minus the time of
the frames nested inside them, so the self times of all layers add up
to the elapsed time of the outermost frame.

Generators are timed per resumption: every ``next()`` on a wrapped
generator opens a frame of its layer, so a layer that a consumer pulls
lazily is charged for its own work, not the consumer.  Closing a
wrapped generator closes the wrapped one inside a frame of its layer,
so an early exit runs the program's own ``finally`` blocks at the same
point it would without the wrapper.

Names are wrapped in the module that looks them up: ``from x import f``
binds ``f`` at import time, so patching ``x.f`` alone would miss the
caller's copy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: (layer, module, attribute path) for every entry point the traced run
#: wraps.  A path with a dot names a method (``Class.method``).
#: ``certification.prover`` is added per Prover subclass at install time
#: and ``certification.decoder`` wraps the closures ``memoized_decide``
#: returns; see :func:`install`.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("engine.core", "repro.engine.core", "decide_hiding"),
    ("engine.core", "repro.campaign.driver", "decide_hiding"),
    ("campaign.driver", "repro.campaign.driver", "run_campaign"),
    ("symmetry.orderly", "repro.neighborhood.aviews", "all_graphs_up_to"),
    ("symmetry.orderly", "repro.neighborhood.aviews", "all_graphs_exactly"),
    ("symmetry.orderly", "repro.engine.backends", "warm_graph_families"),
    ("symmetry.prune", "repro.symmetry.groups", "automorphism_group"),
    ("symmetry.prune", "repro.symmetry.prune", "base_signature"),
    ("symmetry.prune", "repro.symmetry.prune", "instance_stabilizer"),
    ("neighborhood.aviews", "repro.neighborhood.aviews", "labeled_yes_instances"),
    ("neighborhood.aviews", "repro.engine.backends", "yes_instances_up_to"),
    ("neighborhood.aviews", "repro.engine.backends", "yes_instances_between"),
    (
        "certification.enumeration",
        "repro.neighborhood.aviews",
        "unanimously_accepted_labelings",
    ),
    ("kernel.batch", "repro.kernel.batch", "batch_unanimous_labelings"),
    ("local.views", "repro.perf.cache", "ViewLayoutCache.layouts_for"),
    ("local.views", "repro.perf.cache", "ViewLayoutCache.labeled_views"),
    (
        "neighborhood.ngraph",
        "repro.engine.backends",
        "build_neighborhood_graph_auto",
    ),
    (
        "neighborhood.streaming",
        "repro.neighborhood.streaming",
        "StreamingHidingEngine.on_view",
    ),
    (
        "neighborhood.streaming",
        "repro.neighborhood.streaming",
        "StreamingHidingEngine.on_edge",
    ),
    (
        "neighborhood.streaming",
        "repro.neighborhood.streaming",
        "StreamingHidingEngine.verdict",
    ),
    ("engine.stores", "repro.engine.stores", "DiskVerdictStore.load"),
    ("engine.stores", "repro.engine.stores", "DiskVerdictStore.store"),
    ("engine.verdict", "repro.engine.verdict", "Verdict.decision_fingerprint"),
)

PROVER_LAYER = "certification.prover"
DECODER_LAYER = "certification.decoder"

#: Every layer the traced run reports, in pipeline order.
LAYERS: tuple[str, ...] = (
    "engine.core",
    "campaign.driver",
    "symmetry.orderly",
    "symmetry.prune",
    "neighborhood.aviews",
    PROVER_LAYER,
    "certification.enumeration",
    "kernel.batch",
    "local.views",
    DECODER_LAYER,
    "neighborhood.ngraph",
    "neighborhood.streaming",
    "engine.stores",
    "engine.verdict",
)


class LayerTimer:
    """A self-time stack: ``push`` opens a frame of a layer, ``pop``
    closes the innermost one and charges its elapsed time, minus the
    time of the frames closed inside it, to its layer."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[list] = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    def push(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def pop(self) -> None:
        layer, start, nested = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def count(self, layer: str) -> None:
        self.calls[layer] = self.calls.get(layer, 0) + 1

    def total(self) -> float:
        return sum(self.self_s.values())

    def timed_function(self, layer: str, fn):
        """*fn* with every call timed as one frame of *layer*."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(layer)
            self.push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop()

        return wrapper

    def timed_generator(self, layer: str, fn):
        """Generator function *fn* with each resumption timed as one
        frame of *layer*; closing the wrapper closes the wrapped
        generator inside a frame of *layer*.  Values sent or thrown
        into the wrapper are not forwarded (the program only iterates
        and closes its generators)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(layer)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self.push(layer)
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        self.pop()
                    yield item
            finally:
                self.push(layer)
                try:
                    inner.close()
                finally:
                    self.pop()

        return wrapper

    def wrap(self, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self.timed_generator(layer, fn)
        return self.timed_function(layer, fn)


@dataclass(frozen=True)
class Reconciliation:
    """How the layer self times of one traced operation add up."""

    wall_s: float
    attributed_s: float
    root_self_s: float

    @property
    def error(self) -> float:
        """``|wall - Σ self| / wall``."""
        return abs(self.wall_s - self.attributed_s) / self.wall_s

    @property
    def unattributed_share(self) -> float:
        """Share of the wall time no named layer below the root
        accounts for: the root layer's self time plus any time outside
        every frame."""
        named = self.attributed_s - self.root_self_s
        return max(0.0, self.wall_s - named) / self.wall_s


def reconcile(timer: LayerTimer, wall_s: float, root: str) -> Reconciliation:
    if wall_s <= 0.0:
        raise ValueError(f"wall time must be positive, got {wall_s}")
    return Reconciliation(
        wall_s=wall_s,
        attributed_s=timer.total(),
        root_self_s=timer.self_s.get(root, 0.0),
    )


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for ``module:path``; raises
    ``AttributeError``/``ImportError`` when the target is gone."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attribute not in vars(owner):
        raise AttributeError(f"{module_name}.{path}")
    return owner, attribute


def _prover_classes():
    """Every Prover subclass that defines its own ``all_certifications``
    (the registry's schemes are imported first so all are present)."""
    importlib.import_module("repro.core.registry")
    prover = importlib.import_module("repro.certification.prover").Prover
    found, pending = [], [prover]
    while pending:
        cls = pending.pop()
        if "all_certifications" in vars(cls):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


@contextmanager
def install(timer: LayerTimer):
    """Wrap every target for the duration of the block; yields the list
    of targets that no longer exist (reported, never fatal, so a
    refactor that renames an entry point degrades the layer table
    instead of the benchmark)."""
    patches: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def patch(owner, attribute, replacement):
        patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    try:
        for layer, module_name, path in TARGETS:
            try:
                owner, attribute = _resolve(module_name, path)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{path}")
                continue
            patch(owner, attribute, timer.wrap(layer, vars(owner)[attribute]))
        for cls in _prover_classes():
            patch(
                cls,
                "all_certifications",
                timer.wrap(PROVER_LAYER, vars(cls)["all_certifications"]),
            )
        try:
            ngraph, attribute = _resolve("repro.neighborhood.ngraph", "memoized_decide")
        except (ImportError, AttributeError):
            missing.append("repro.neighborhood.ngraph.memoized_decide")
        else:
            factory = vars(ngraph)[attribute]

            @functools.wraps(factory)
            def timed_factory(*args, **kwargs):
                return timer.timed_function(DECODER_LAYER, factory(*args, **kwargs))

            patch(ngraph, attribute, timed_factory)
        yield missing
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)
