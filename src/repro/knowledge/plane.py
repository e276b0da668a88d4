"""The knowledge plane: one versioned store of per-stage performance facts.

The paper's "smartness" claim is that decisions -- shard sizes, EET/ETT
estimates, hire-vs-wait -- come from profiled facts in the knowledge base
(Sections I, III-A.1), and Section VI's future work is to refine those
facts online.  Before this module the repo was open-loop: the scheduler's
estimator read static :class:`~repro.apps.base.ApplicationModel`
coefficients, the shard advisor and the learning allocator each kept
private side-channels, and log ingestion was an offline afterthought.

:class:`KnowledgePlane` closes that loop.  It is an epoch-stamped store of
:class:`StageFact` records (coefficients + provenance + sample counts +
confidence), saved and compared as a JSON snapshot (:meth:`snapshot`,
:func:`diff_snapshots`), and queried by *all three* consumers through one
:class:`EstimateProvider` protocol:

- the scheduler's :class:`~repro.scheduler.estimator.PipelineEstimator`
  (EET/ETT, Eq. 2) -- whose memo is invalidated by plane epoch bumps
  exactly like :class:`~repro.ontology.triples.TripleStore` epochs
  invalidate the SPARQL result cache;
- the broker's :class:`~repro.knowledge.advisor.ShardAdvisor` (shard
  sizing);
- :class:`~repro.scheduler.learning.LearnedAllocation` (cold-start
  priors, via the estimator).

:class:`OnlineRefitter` provides the feedback path: it subscribes to
:class:`~repro.core.bus.StageCompleted` events and periodically re-fits
the linear coefficients from realised durations, installing new facts
(which bumps the epoch).  Two providers ship behind the plugin registry,
both built over a :class:`~repro.workflows.compiled.CompiledWorkflow` (a
plain application passes ``chain_of(app)``): ``static`` (the default --
bit-identical to the pre-plane behaviour, so golden sweep fixtures pin
it) and ``adaptive`` (serves refit facts per node scope).
:class:`FactProvider` is the broker's view: one application's installed
facts, with no workflow behind them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.analysis.amdahl import amdahl_time
from repro.analysis.regression import fit_linear
from repro.apps.base import ApplicationModel, StageModel
from repro.core.bus import EventBus, StageCompleted
from repro.core.errors import KnowledgeBaseError
from repro.core.plugins import Registry

__all__ = [
    "StageFact",
    "RefitRecord",
    "KnowledgePlane",
    "OnlineRefitter",
    "EstimateProvider",
    "StaticEstimateProvider",
    "AdaptiveEstimateProvider",
    "FactProvider",
    "ESTIMATE_PROVIDERS",
    "make_estimate_provider",
    "fit_stage_fact",
    "diff_snapshots",
    "drifted_model",
]


@dataclass(frozen=True)
class StageFact:
    """One stage's performance model, with its pedigree.

    ``a``/``b`` are the Eq. 2 linear execution-time coefficients and ``c``
    the Amdahl parallel fraction, exactly as in
    :class:`~repro.apps.base.StageModel` -- except ``a``/``b`` are kept
    *unclamped* (raw regression output) so :meth:`predict` reproduces
    :meth:`~repro.knowledge.profiles.StageProfile.predict` float-for-float.
    ``c`` is ``None`` when no multi-threaded evidence exists.
    """

    app: str
    stage: int
    a: float
    b: float
    c: Optional[float]
    ram_gb: float = 4.0
    #: Where the coefficients came from: ``"model"`` (seeded from an
    #: analytical ApplicationModel), ``"profile"`` (offline KB regression)
    #: or ``"refit"`` (online refit from realised durations).
    provenance: str = "model"
    #: Observations behind the fit (0 for analytical seeds).
    samples: int = 0
    #: Fit quality in [0, 1]: r-squared for regressions, 1.0 for seeds.
    confidence: float = 1.0
    #: Plane epoch at which this fact was installed.
    epoch: int = 0

    def predict(self, input_gb: float, threads: int = 1) -> float:
        """Predicted execution time; mirrors ``StageProfile.predict``."""
        base = max(self.a * input_gb + self.b, 1e-6)
        if threads == 1 or self.c is None:
            return base
        return amdahl_time(base, threads, self.c)

    def to_stage_model(self, name: str = "") -> StageModel:
        """Export as a (clamped) :class:`StageModel` for Eq. 1/2 consumers."""
        return StageModel(
            index=self.stage,
            name=name or f"{self.app}-stage{self.stage}",
            a=max(self.a, 0.0),
            b=self.b,
            c=min(max(self.c if self.c is not None else 0.0, 0.0), 1.0),
            ram_gb=self.ram_gb,
        )

    def as_dict(self) -> dict[str, Any]:
        """A JSON-able record (``scan-sim kb`` output rows)."""
        return {
            "app": self.app,
            "stage": self.stage,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "ram_gb": self.ram_gb,
            "provenance": self.provenance,
            "samples": self.samples,
            "confidence": self.confidence,
            "epoch": self.epoch,
        }


@dataclass(frozen=True)
class RefitRecord:
    """Audit record of one refit: what changed, when, from how much data."""

    time: float
    app: str
    stage: int
    old_a: float
    old_b: float
    new_a: float
    new_b: float
    samples: int
    epoch: int


class KnowledgePlane:
    """Versioned store of stage facts shared by every estimate consumer.

    Every :meth:`install` bumps :attr:`epoch`; consumers that memoise
    derived values (the EET memo, the adaptive provider's model table)
    compare their stored epoch against the plane's and rebuild on
    mismatch -- the same contract as ``TripleStore.epoch`` and the SPARQL
    result cache.
    """

    def __init__(self) -> None:
        self._facts: Dict[Tuple[str, int], StageFact] = {}
        self._epoch = 0
        self.history: List[RefitRecord] = []

    @property
    def epoch(self) -> int:
        """Version counter, bumped by every :meth:`install`."""
        return self._epoch

    def __len__(self) -> int:
        return len(self._facts)

    # -- writing ------------------------------------------------------------
    def install(self, facts: Iterable[StageFact]) -> int:
        """Install *facts* as one atomic snapshot; returns the new epoch.

        Installing an empty iterable is a no-op (the epoch does not move,
        so downstream memos stay warm).
        """
        staged = list(facts)
        if not staged:
            return self._epoch
        self._epoch += 1
        for fact in staged:
            self._facts[(fact.app, fact.stage)] = replace(
                fact, epoch=self._epoch
            )
        return self._epoch

    def seed_from_workflow(self, workflow: Any) -> int:
        """Seed model facts for the compiled *workflow*'s nodes that have none.

        Each node's believed coefficients land under its fact key
        ``(node.scope, node.app_stage)``; nodes that already carry a fact
        (profiled, refit or seeded earlier) are left alone, so seeding an
        already-covered workflow leaves the epoch where it was.
        """
        return self.install(
            StageFact(
                app=node.scope,
                stage=node.app_stage,
                a=node.model.a,
                b=node.model.b,
                c=node.model.c,
                ram_gb=node.model.ram_gb,
                provenance="model",
                samples=0,
                confidence=1.0,
            )
            for node in workflow
            if self.get(node.scope, node.app_stage) is None
        )

    def seed_from_profiles(self, kb: Any, app: str) -> int:
        """Seed facts from a knowledge base's fitted stage profiles.

        Only stages with a usable linear fit produce facts; raw slopes and
        intercepts are kept unclamped so plane predictions match
        ``StageProfile.predict`` exactly.  Stages already carrying an
        online ``refit`` fact are left alone -- on a shared plane the
        refitter's trace-derived coefficients outrank offline profile
        fits, so a broker reseed never rolls them back.
        """
        if not kb.has_profile(app):
            return self._epoch
        profile = kb.profile(app)
        facts = []
        for index in profile.stage_indices:
            current = self._facts.get((app, index))
            if current is not None and current.provenance == "refit":
                continue
            stage = profile.stage(index)
            if not stage.has_linear_fit:
                continue
            fit = stage.linear_fit
            ram = 4.0
            for obs in stage.observations:
                ram = max(ram, obs.ram_gb)
            facts.append(
                StageFact(
                    app=app,
                    stage=index,
                    a=fit.slope,
                    b=fit.intercept,
                    c=stage.parallel_fraction,
                    ram_gb=ram,
                    provenance="profile",
                    samples=len(stage),
                    confidence=max(min(fit.r_squared, 1.0), 0.0),
                )
            )
        return self.install(facts)

    # -- reading ------------------------------------------------------------
    def get(self, app: str, stage: int) -> Optional[StageFact]:
        """The fact for (*app*, *stage*), or None."""
        return self._facts.get((app, stage))

    def facts(self, app: Optional[str] = None) -> list[StageFact]:
        """All facts (optionally one app's), sorted by (app, stage)."""
        rows = [
            fact
            for key, fact in self._facts.items()
            if app is None or key[0] == app
        ]
        return sorted(rows, key=lambda f: (f.app, f.stage))

    def apps(self) -> list[str]:
        """Applications with at least one fact, sorted."""
        return sorted({app for app, _ in self._facts})

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able snapshot: epoch + every fact (``scan-sim kb``)."""
        return {
            "epoch": self._epoch,
            "facts": [fact.as_dict() for fact in self.facts()],
        }


def diff_snapshots(
    before: dict[str, Any], after: dict[str, Any], rel_tol: float = 1e-12
) -> list[str]:
    """Human-readable changes between two :meth:`KnowledgePlane.snapshot`\\ s."""

    def _index(snap: dict[str, Any]) -> dict[tuple[str, int], dict[str, Any]]:
        return {(f["app"], f["stage"]): f for f in snap.get("facts", ())}

    old, new = _index(before), _index(after)
    lines: list[str] = []
    if before.get("epoch") != after.get("epoch"):
        lines.append(
            f"epoch: {before.get('epoch')} -> {after.get('epoch')}"
        )
    for key in sorted(set(old) | set(new)):
        app, stage = key
        if key not in old:
            fact = new[key]
            lines.append(
                f"+ {app} stage {stage}: a={fact['a']:.6g} b={fact['b']:.6g} "
                f"({fact['provenance']}, n={fact['samples']})"
            )
            continue
        if key not in new:
            lines.append(f"- {app} stage {stage}: removed")
            continue
        changes = []
        for field_name in ("a", "b", "c", "provenance", "samples"):
            ov, nv = old[key][field_name], new[key][field_name]
            if isinstance(ov, float) and isinstance(nv, float):
                scale = max(abs(ov), abs(nv), 1e-12)
                if abs(ov - nv) / scale <= rel_tol:
                    continue
                changes.append(f"{field_name}: {ov:.6g} -> {nv:.6g}")
            elif ov != nv:
                changes.append(f"{field_name}: {ov} -> {nv}")
        if changes:
            lines.append(f"~ {app} stage {stage}: " + ", ".join(changes))
    return lines


# -- online refitting --------------------------------------------------------
#: One retained observation: (input_gb, threads, duration).
_Obs = Tuple[float, int, float]


def _single_threaded(row: _Obs, c: Optional[float]) -> float:
    """*row*'s duration normalised to one thread through Amdahl fraction *c*."""
    _, threads, duration = row
    if threads == 1 or c is None:
        return duration
    return duration / max(c / threads + (1.0 - c), 1e-9)


class _Window:
    """One fact scope's retained observations, kept ready to fit.

    ``rows`` stays sorted (new rows are placed with :func:`bisect.insort`
    semantics, after any equal rows), with the fit columns ``xs``/``ys``
    aligned to it; ``ys`` are de-Amdahled under :attr:`c`.  The columns
    are ``array("d")`` so :func:`~repro.analysis.regression.fit_linear`
    reads them through the buffer protocol instead of unboxing each
    float.  ``sizes`` counts rows per distinct input size and
    ``arrivals`` remembers arrival order, so evicting the oldest row is a
    bisect, not a rebuild.

    Because equal rows keep their arrival order, the columns are exactly
    what sorting the retained rows (a stable sort) and de-Amdahling them
    would give -- which is what makes the incremental fit bit-identical
    to the batch one.
    """

    __slots__ = ("c", "rows", "xs", "ys", "sizes", "arrivals")

    def __init__(self, c: Optional[float]) -> None:
        self.c = c
        self.rows: List[_Obs] = []
        self.xs = array("d")
        self.ys = array("d")
        self.sizes: Dict[float, int] = {}
        self.arrivals: Deque[_Obs] = deque()

    def add(self, row: _Obs) -> None:
        at = bisect_right(self.rows, row)
        self.rows.insert(at, row)
        self.xs.insert(at, row[0])
        self.ys.insert(at, _single_threaded(row, self.c))
        self.sizes[row[0]] = self.sizes.get(row[0], 0) + 1
        self.arrivals.append(row)

    def evict_oldest(self) -> None:
        row = self.arrivals.popleft()
        # The oldest arrival is the first of its equal rows.
        at = bisect_left(self.rows, row)
        del self.rows[at], self.xs[at], self.ys[at]
        left = self.sizes[row[0]] - 1
        if left:
            self.sizes[row[0]] = left
        else:
            del self.sizes[row[0]]

    def fit(
        self, app: str, stage: int, prior: Optional[StageFact], min_samples: int
    ) -> Optional[StageFact]:
        """The refit fact for this window under *prior*, or None."""
        if len(self.rows) < max(min_samples, 2):
            return None
        c = prior.c if prior is not None else None
        if c != self.c:
            self.c = c
            self.ys = array("d", [_single_threaded(row, c) for row in self.rows])
        if len(self.sizes) < 2:
            return None
        try:
            fit = fit_linear(self.xs, self.ys)
        except ValueError:
            return None
        return StageFact(
            app=app,
            stage=stage,
            a=fit.slope,
            b=fit.intercept,
            c=c,
            ram_gb=prior.ram_gb if prior is not None else 4.0,
            provenance="refit",
            samples=len(self.rows),
            confidence=max(min(fit.r_squared, 1.0), 0.0),
        )


def fit_stage_fact(
    app: str,
    stage: int,
    observations: Iterable[_Obs],
    prior: Optional[StageFact] = None,
    min_samples: int = 4,
) -> Optional[StageFact]:
    """Batch-fit one stage's fact from (input_gb, threads, duration) triples.

    The fit is *deterministically order-independent*: observations are
    fitted in sorted order, so any permutation of the same multiset
    produces bit-identical coefficients (the Hypothesis property in the
    test suite pins this).  :class:`OnlineRefitter` keeps the same sorted
    window incrementally and fits it with the same arithmetic, so its
    installed facts equal this function's over the retained rows.

    Multi-threaded durations are normalised back to single-threaded
    equivalents through the prior's Amdahl fraction ``c`` (online runs
    rarely execute at ``threads=1``, so the de-Amdahl step is what lets a
    production trace correct a mis-profiled ``a``/``b``).  Returns ``None``
    when the data cannot support a fit (too few points, one distinct
    size) -- the caller keeps the prior fact.
    """
    window = _Window(prior.c if prior is not None else None)
    for row in observations:
        window.add(row)
    return window.fit(app, stage, prior, min_samples)


class OnlineRefitter:
    """Streams realised stage durations back into the knowledge plane.

    Subscribe it to a bus (:meth:`attach`) and every
    :class:`~repro.core.bus.StageCompleted` event is retained; every
    ``refit_every`` completions the affected stages are re-fit and the
    new facts installed, bumping the plane epoch so EET memos and
    provider model tables rebuild.

    Each fact scope keeps a sorted window of its last ``max_observations``
    rows with the fit columns alongside, so a refit is one
    :func:`~repro.analysis.regression.fit_linear` call per touched stage,
    bit-identical to :func:`fit_stage_fact` over the same rows.

    The refitter is a passive bus subscriber: it never draws simulation
    randomness or schedules events, so attaching it cannot perturb a run's
    trajectory -- only its *estimates*.
    """

    def __init__(
        self,
        plane: KnowledgePlane,
        refit_every: int = 8,
        min_samples: int = 4,
        max_observations: int = 4096,
        metrics: Any = None,
        clock: Any = None,
        per_tier: bool = False,
    ) -> None:
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if max_observations < min_samples:
            raise ValueError("max_observations must be >= min_samples")
        self.plane = plane
        self.refit_every = refit_every
        self.min_samples = min_samples
        self.max_observations = max_observations
        #: When True, observations tagged with a tier are *also* folded
        #: into a tier-scoped fact (``app@tier``), so the plane learns
        #: per-tier coefficient sets (e.g. serverless cold environments
        #: running systematically slower than reserved metal).  A scope
        #: without a fact of its own borrows the unscoped fact's Amdahl
        #: ``c`` and RAM, and the cadence counts completions, not scopes.
        self.per_tier = per_tier
        self._clock = clock
        self._windows: Dict[Tuple[str, int], _Window] = {}
        self._dirty: set[Tuple[str, int]] = set()
        self._since_refit = 0
        self.observed = 0
        self.refits = 0
        self._refit_counter = None
        self._epoch_gauge = None
        self._error_hist = None
        if metrics is not None:
            self._refit_counter = metrics.counter(
                "knowledge_refits", "Online refits installed into the plane"
            )
            self._epoch_gauge = metrics.gauge(
                "knowledge_plane_epoch", "Current knowledge-plane epoch"
            )
            self._error_hist = metrics.histogram(
                "estimate_error_ratio",
                "Realised duration / plane-predicted duration per stage",
                buckets=(0.25, 0.5, 0.75, 0.9, 1.1, 1.25, 1.5, 2.0, 4.0),
            )

    def attach(self, bus: EventBus) -> "OnlineRefitter":
        """Subscribe to *bus*'s :class:`StageCompleted` events."""
        bus.subscribe(StageCompleted, self.on_stage_completed)
        return self

    def on_stage_completed(self, event: StageCompleted) -> None:
        self.observe(
            event.app,
            event.stage,
            event.input_gb,
            event.threads,
            event.duration,
            tier=getattr(event, "tier", ""),
        )

    def _prior(
        self, app: str, stage: int, own: Optional[StageFact]
    ) -> Optional[StageFact]:
        """The fact a scope's fit builds on: *own*, else the unscoped one."""
        if own is None and "@" in app:
            return self.plane.get(app.split("@", 1)[0], stage)
        return own

    def _fold(self, key: Tuple[str, int], row: _Obs) -> None:
        window = self._windows.get(key)
        if window is None:
            app, stage = key
            prior = self._prior(app, stage, self.plane.get(app, stage))
            window = self._windows[key] = _Window(
                prior.c if prior is not None else None
            )
        window.add(row)
        if len(window.rows) > self.max_observations:
            window.evict_oldest()
        self._dirty.add(key)

    def observe(
        self,
        app: str,
        stage: int,
        input_gb: float,
        threads: int,
        duration: float,
        tier: str = "",
    ) -> None:
        """Fold one realised duration in; refit when the cadence is due.

        With ``per_tier`` and a *tier*, the row also lands in the
        ``app@tier`` scope; either way it is one completion towards the
        ``refit_every`` cadence.
        """
        if self._error_hist is not None:
            prior = self.plane.get(app, stage)
            if prior is not None:
                predicted = prior.predict(input_gb, threads)
                if predicted > 0:
                    self._error_hist.observe(duration / predicted)
        row = (float(input_gb), int(threads), float(duration))
        self._fold((app, stage), row)
        if self.per_tier and tier:
            self._fold((f"{app}@{tier}", stage), row)
        self.observed += 1
        self._since_refit += 1
        if self._since_refit >= self.refit_every:
            self.refit()

    def refit(self) -> int:
        """Re-fit every stage touched since the last refit; returns epoch."""
        self._since_refit = 0
        facts: list[StageFact] = []
        priors: list[Optional[StageFact]] = []
        for key in sorted(self._dirty):
            app, stage = key
            own = self.plane.get(app, stage)
            fact = self._windows[key].fit(
                app, stage, self._prior(app, stage, own), self.min_samples
            )
            if fact is not None:
                facts.append(fact)
                priors.append(own)
        if not facts:
            return self.plane.epoch
        now = float(self._clock()) if self._clock is not None else 0.0
        epoch = self.plane.install(facts)
        for fact, prior in zip(facts, priors):
            self._dirty.discard((fact.app, fact.stage))
            self.plane.history.append(
                RefitRecord(
                    time=now,
                    app=fact.app,
                    stage=fact.stage,
                    old_a=prior.a if prior is not None else float("nan"),
                    old_b=prior.b if prior is not None else float("nan"),
                    new_a=fact.a,
                    new_b=fact.b,
                    samples=fact.samples,
                    epoch=epoch,
                )
            )
        self.refits += 1
        if self._refit_counter is not None:
            self._refit_counter.inc()
        if self._epoch_gauge is not None:
            self._epoch_gauge.set(float(epoch))
        return epoch

    def flush(self) -> int:
        """Force a refit of everything pending (end-of-run, tests)."""
        return self.refit()


# -- providers ----------------------------------------------------------------
class EstimateProvider(Protocol):
    """The one read interface every estimate consumer goes through.

    ``eet(stage, ...)`` must be a pure function of the object
    ``stage_model(stage)`` returns (plus size and threads), and that
    object may only change when ``epoch`` moves.  Consumers rely on it:
    after an epoch bump the estimator's EET memo keeps the entries of
    every stage whose ``stage_model`` is the *same object* as before and
    drops the rest.  A provider that builds a fresh model on every call
    is therefore always correct -- it merely invalidates everything.
    """

    @property
    def epoch(self) -> int:
        """Model version; consumers invalidate memos when it moves."""
        ...

    @property
    def n_stages(self) -> int: ...

    def stage_model(self, stage: int) -> StageModel:
        """The current (clamped) model for *stage*."""
        ...

    def eet(self, stage: int, size_gb: float, threads: int) -> float:
        """Estimated execution time T_i(t, d) under the current facts."""
        ...


#: Plugin registry of estimate providers (``static`` / ``adaptive``).
ESTIMATE_PROVIDERS: "Registry[EstimateProvider]" = Registry("estimates")


@ESTIMATE_PROVIDERS.register("static")
class StaticEstimateProvider:
    """Frozen profiled coefficients, one model per compiled node.

    ``stage_model`` maps a node index to the node's believed
    :class:`StageModel` object itself.  A compiled chain's nodes alias
    the application's stage objects, so a chain serves the exact
    profiled floats the golden sweep fixtures pin.  The epoch never
    moves, so EET memos built over this provider are never invalidated.
    """

    def __init__(self, workflow: Any, plane: Any = None, **_: Any) -> None:
        self.workflow = workflow

    @property
    def epoch(self) -> int:
        return 0

    @property
    def n_stages(self) -> int:
        return self.workflow.n_nodes

    def stage_model(self, stage: int) -> StageModel:
        return self.workflow.node(stage).model

    def eet(self, stage: int, size_gb: float, threads: int) -> float:
        return self.workflow.node(stage).model.threaded_time(threads, size_gb)


@ESTIMATE_PROVIDERS.register("adaptive")
class AdaptiveEstimateProvider:
    """Serves the knowledge plane's latest facts; re-reads after refits.

    Each compiled node reads the fact installed under
    ``(node.scope, node.app_stage)``.  A chain's scope is the
    application's name; a spec workflow's is ``"{workflow}/{step}"``, so
    two branches running the *same* tool own separate facts and the
    online refitter sharpens them independently (the scheduler publishes
    ``StageCompleted`` events under the node scope, which is all the
    refitter keys on).  Nodes without facts are seeded from their
    believed model (:meth:`KnowledgePlane.seed_from_workflow`).

    Stage models are materialised once per plane epoch (a refit bumps
    the epoch, the next read rebuilds the table); a node whose fact
    object did not change keeps its model object, so EET memos over
    untouched nodes survive the bump.
    """

    def __init__(self, workflow: Any, plane: KnowledgePlane, **_: Any) -> None:
        if plane is None:
            raise KnowledgeBaseError(
                "adaptive estimate provider requires a knowledge plane"
            )
        self.workflow = workflow
        self.plane = plane
        plane.seed_from_workflow(workflow)
        self._models: Dict[int, StageModel] = {}
        self._facts: Dict[int, StageFact] = {}
        self._models_epoch = -1

    @property
    def epoch(self) -> int:
        return self.plane.epoch

    @property
    def n_stages(self) -> int:
        return self.workflow.n_nodes

    def _refresh(self) -> None:
        if self._models_epoch == self.plane.epoch:
            return
        # Every node has a fact (seeded at construction; facts are never
        # removed), so each model comes from the plane.
        for node in self.workflow:
            fact = self.plane.get(node.scope, node.app_stage)
            if self._facts.get(node.index) is not fact:
                self._facts[node.index] = fact
                self._models[node.index] = fact.to_stage_model(
                    name=node.model.name
                )
        self._models_epoch = self.plane.epoch

    def stage_model(self, stage: int) -> StageModel:
        self._refresh()
        return self._models[stage]

    def eet(self, stage: int, size_gb: float, threads: int) -> float:
        self._refresh()
        return self._models[stage].threaded_time(threads, size_gb)


class FactProvider:
    """An :class:`EstimateProvider` view over one app's plane facts alone.

    The broker side has no :class:`ApplicationModel` in scope (it knows
    applications by name), so its provider is backed purely by installed
    facts.  ``eet`` uses the *unclamped* :meth:`StageFact.predict`
    arithmetic, which reproduces the knowledge base's profile-fit
    predictions float-for-float -- the shard advisor's historical numbers.
    """

    def __init__(self, plane: KnowledgePlane, app: str) -> None:
        self.plane = plane
        self.app = app

    @property
    def epoch(self) -> int:
        return self.plane.epoch

    @property
    def n_stages(self) -> int:
        return len(self.plane.facts(self.app))

    def stages(self) -> list[int]:
        """Stage indices with installed facts, sorted."""
        return [fact.stage for fact in self.plane.facts(self.app)]

    def stage_model(self, stage: int) -> StageModel:
        fact = self.plane.get(self.app, stage)
        if fact is None:
            raise KnowledgeBaseError(
                f"no fact for {self.app!r} stage {stage} in the plane"
            )
        return fact.to_stage_model()

    def eet(self, stage: int, size_gb: float, threads: int) -> float:
        fact = self.plane.get(self.app, stage)
        if fact is None:
            raise KnowledgeBaseError(
                f"no fact for {self.app!r} stage {stage} in the plane"
            )
        return fact.predict(size_gb, threads)


def drifted_model(app: ApplicationModel, factor: float) -> ApplicationModel:
    """*app* with every stage's linear coefficients scaled by *factor*.

    Models ground-truth drift: the platform plans with the profiled
    coefficients while execution follows the drifted ones (the scheduler's
    ``actual_app`` seam).  Amdahl fractions and RAM footprints are left
    alone -- drift in a/b is what the online refitter can recover from
    production traces.
    """
    if factor <= 0:
        raise ValueError(f"drift factor must be positive, got {factor}")
    if factor == 1.0:
        return app
    stages = tuple(
        replace(stage, a=stage.a * factor, b=stage.b * factor)
        for stage in app.stages
    )
    return replace(app, stages=stages)


def make_estimate_provider(
    kind: Any,
    workflow: Any,
    plane: Optional[KnowledgePlane] = None,
    **kwargs: Any,
) -> EstimateProvider:
    """Instantiate the estimate provider registered under *kind*.

    *workflow* is the :class:`~repro.workflows.compiled.CompiledWorkflow`
    being estimated; a plain application passes ``chain_of(app)``.
    """
    return ESTIMATE_PROVIDERS.create(
        kind, workflow=workflow, plane=plane, **kwargs
    )
