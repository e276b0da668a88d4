"""Streaming, resumable sweep results.

A sweep of the full Table I grid runs for hours, so its progress lives in
an append-only ledger, the same substrate the service plane's queue store
uses: :func:`~repro.sim.sweep.run_sweep` appends every repetition as it
lands, folds it into an incremental aggregator, and on resume skips the
repetitions the ledger already holds.

- :class:`ResultRecord` -- one completed (or dead-lettered) repetition of
  one grid cell: the atomic unit of sweep progress.
- :class:`ResultStore` -- the sink: a replay function over one
  :mod:`repro.core.ledger` ledger (``memory`` / ``jsonl`` / ``sqlite``),
  the same substrate as the service plane's queue store.  Open one with
  ``ResultStore(open_ledger(spec, fsync))``.
- :class:`SweepAggregator` -- folds per-repetition records into
  :class:`~repro.sim.sweep.SweepRow` summaries cell by cell, holding only
  in-flight cells' run values; a finished cell collapses to its summary
  statistics immediately, so peak memory tracks the number of
  *incomplete* cells, not the grid.
- :func:`open_result_stream` -- the resume protocol: a fresh store gets a
  header pinning the sweep's identity (grid/config fingerprints, seeds);
  a resumed store must match it, and reports the completed keys so the
  executor schedules only the remainder.  Dead-lettered repetitions are
  recorded as ``failed`` and are *not* in the completed set -- a resume
  retries them instead of silently skipping.

Aggregation is exact, not approximate: a cell's summary is one
:func:`~repro.analysis.stats.aggregate_runs` call on its per-run dicts in
repetition order, whatever order they landed in and whether or not they
came back from disk, so a resumed sweep's report is byte-identical to an
uninterrupted one (the golden equivalence suite enforces this).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.errors import ConfigurationError, SCANError
from repro.core.ledger import Ledger

__all__ = [
    "RESULT_SCHEMA",
    "ResultRecord",
    "SweepMeta",
    "RecoveredResults",
    "ResultStore",
    "grid_fingerprint",
    "sweep_meta",
    "open_result_stream",
    "SweepAggregator",
    "records_from_runs",
    "failed_records",
]

#: Ledger schema identifier, bumped on incompatible record changes.
RESULT_SCHEMA = "scan-sim-sweep-results/1"


@dataclass(frozen=True)
class ResultRecord:
    """One repetition's outcome: the unit the sink appends as work lands.

    ``status`` is ``"completed"`` (``metrics`` holds the run's metric
    dict) or ``"failed"`` (a dead-lettered task; ``error`` says why and
    ``metrics`` is empty).  A later completed record for the same
    ``(cell_index, rep_index)`` key supersedes a failed one -- that is
    the retry path writing its success over the post-mortem.
    """

    cell_index: int
    rep_index: int
    seed: int
    status: str
    metrics: Dict[str, float] = field(default_factory=dict)
    error: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("completed", "failed"):
            raise ValueError(f"status must be completed/failed, got {self.status!r}")
        if self.cell_index < 0 or self.rep_index < 0:
            raise ValueError("cell_index and rep_index must be >= 0")

    @property
    def key(self) -> tuple[int, int]:
        return (self.cell_index, self.rep_index)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "cell_index": self.cell_index,
            "rep_index": self.rep_index,
            "seed": self.seed,
            "status": self.status,
            "metrics": dict(self.metrics),
        }
        if self.error:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ResultRecord":
        return cls(
            cell_index=int(data["cell_index"]),
            rep_index=int(data["rep_index"]),
            seed=int(data["seed"]),
            status=data["status"],
            metrics=dict(data.get("metrics", {})),
            error=data.get("error", ""),
        )


def _canonical_cell(cell: dict[str, Any]) -> dict[str, Any]:
    """A grid cell's parameters as plain JSON values (enums to strings)."""
    return {k: getattr(v, "value", v) for k, v in cell.items()}


def grid_fingerprint(cells: Sequence[dict[str, Any]]) -> str:
    """SHA-256 over the canonical serialization of the whole grid."""
    text = json.dumps([_canonical_cell(c) for c in cells], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class SweepMeta:
    """The sweep's identity, pinned in the ledger header.

    A resume must present an *equal* meta: same grid (fingerprinted, so a
    reordered or edited spec is caught), same base config (duration,
    workload, ... -- anything that changes the metrics), same seed
    derivation.  Mixing records from two different sweeps would produce a
    report that is silently wrong, which is worse than refusing.
    """

    cells: int
    repetitions: int
    base_seed: int
    seed_mode: str
    grid_fingerprint: str
    config_fingerprint: str
    schema: str = RESULT_SCHEMA

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "cells": self.cells,
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
            "seed_mode": self.seed_mode,
            "grid_fingerprint": self.grid_fingerprint,
            "config_fingerprint": self.config_fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepMeta":
        return cls(
            cells=int(data["cells"]),
            repetitions=int(data["repetitions"]),
            base_seed=int(data["base_seed"]),
            seed_mode=data["seed_mode"],
            grid_fingerprint=data["grid_fingerprint"],
            config_fingerprint=data["config_fingerprint"],
            schema=data.get("schema", RESULT_SCHEMA),
        )


def sweep_meta(
    base: Any,
    cells: Sequence[dict[str, Any]],
    repetitions: int,
    base_seed: int,
) -> SweepMeta:
    """The :class:`SweepMeta` of one (config, spec, seeds) sweep.

    ``seed_mode`` is always ``"crn"`` (repetition *k* uses ``base_seed +
    k`` in every cell); it stays in the header so older ledgers resume.
    """
    # The `results` section configures the sink, not the simulation --
    # moving the ledger or toggling fsync must not invalidate a resume.
    payload = base.to_dict()
    payload.pop("results", None)
    return SweepMeta(
        cells=len(cells),
        repetitions=repetitions,
        base_seed=base_seed,
        seed_mode="crn",
        grid_fingerprint=grid_fingerprint(cells),
        config_fingerprint=hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest(),
    )


@dataclass
class RecoveredResults:
    """What a store replay yields: which keys resolved, and how."""

    meta: Optional[SweepMeta] = None
    #: (cell, rep) -> first completed record.  The resume skip-set.
    completed: Dict[tuple[int, int], ResultRecord] = field(default_factory=dict)
    #: (cell, rep) -> latest failed record with no completed successor.
    #: NOT skipped on resume: these are the dead-lettered retry candidates.
    failed: Dict[tuple[int, int], ResultRecord] = field(default_factory=dict)
    #: Torn final fragments the ledger read skipped (JSONL only).
    corrupt_records: int = 0
    #: Completed records for an already-completed key (ignored, first wins).
    duplicate_records: int = 0


class ResultStore:
    """The sweep's result log: sweep header and per-repetition records in,
    :class:`RecoveredResults` out, over any
    :class:`~repro.core.ledger.Ledger` medium.

    Writers are driver-side only (one process, possibly many threads);
    worker processes return their runs to the driver, which appends.
    """

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger

    def write_meta(self, meta: SweepMeta) -> None:
        self.ledger.append({"op": "meta", "meta": meta.to_dict()})

    def record(self, record: ResultRecord) -> None:
        self.ledger.append({"op": "result", "record": record.to_dict()})

    def load(self) -> RecoveredResults:
        records, torn = self.ledger.read()
        state = _replay(records)
        state.corrupt_records = torn
        return state

    def close(self) -> None:
        """Release the ledger; reopening its spec resumes the sweep."""
        self.ledger.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _replay(records: Iterable[dict]) -> RecoveredResults:
    """Fold result-ledger records into live state."""
    state = RecoveredResults()
    for raw in records:
        op = raw.get("op")
        if op == "meta":
            meta = SweepMeta.from_dict(raw["meta"])
            if state.meta is not None and state.meta != meta:
                raise SCANError(
                    "result ledger contains two conflicting sweep headers"
                )
            state.meta = meta
        elif op == "result":
            rec = ResultRecord.from_dict(raw["record"])
            if rec.status == "completed":
                if rec.key in state.completed:
                    state.duplicate_records += 1
                else:
                    state.completed[rec.key] = rec
                    state.failed.pop(rec.key, None)
            else:
                if rec.key not in state.completed:
                    state.failed[rec.key] = rec
        else:
            raise SCANError(f"unknown result-ledger op {op!r}")
    return state


def open_result_stream(
    store: ResultStore, meta: SweepMeta, resume: bool = False
) -> RecoveredResults:
    """Bind *store* to one sweep and report what is already done.

    Fresh store: the header is written and an empty state returned.
    Non-empty store: ``resume=True`` is required (refusing beats silently
    interleaving two sweeps), and the stored header must equal *meta* --
    same grid, same base config, same seed derivation.
    """
    state = store.load()
    if state.meta is None:
        if state.completed or state.failed:
            raise SCANError(
                "result store holds records but no sweep header; "
                "it is not a scan-sim result ledger"
            )
        store.write_meta(meta)
        state.meta = meta
        return state
    if not resume:
        raise ConfigurationError(
            f"result store already holds a sweep "
            f"({len(state.completed)} completed repetition(s)); "
            f"pass --resume to continue it or use a fresh path"
        )
    if state.meta != meta:
        mismatched = [
            name
            for name in (
                "schema", "cells", "repetitions", "base_seed",
                "seed_mode", "grid_fingerprint", "config_fingerprint",
            )
            if getattr(state.meta, name) != getattr(meta, name)
        ]
        raise ConfigurationError(
            f"result store belongs to a different sweep "
            f"(mismatched: {', '.join(mismatched)}); resuming it with "
            f"this grid/config would corrupt the report"
        )
    return state


# -- incremental aggregation --------------------------------------------------


class SweepAggregator:
    """Fold per-repetition records into per-cell rows, incrementally.

    Holds the raw per-run metric dicts only for *incomplete* cells; the
    moment a cell's last repetition lands it collapses to a
    :class:`~repro.sim.sweep.SweepRow` (summary statistics), optionally
    handed to ``on_cell`` and -- unless ``retain_rows=False`` -- kept for
    :meth:`rows`.  The fold is order-invariant (runs are sorted by
    repetition index before aggregation) and exact: the finalize step is
    :func:`~repro.sim.sweep.row_from_runs` on the cell's runs.
    """

    def __init__(
        self,
        cells: Sequence[dict[str, Any]],
        repetitions: int,
        on_cell: Optional[Callable[[int, Any], None]] = None,
        retain_rows: bool = True,
    ) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self._cells = [dict(cell) for cell in cells]
        self._reps = repetitions
        self._on_cell = on_cell
        self._retain = retain_rows
        #: cell_index -> {rep_index: per-run metrics} for in-flight cells.
        self._partial: Dict[int, Dict[int, Dict[str, float]]] = {}
        self._rows: Dict[int, Any] = {}
        self._finalized: set[int] = set()
        #: Completed records for an already-folded key (ignored).
        self.duplicates = 0

    @property
    def cells(self) -> int:
        return len(self._cells)

    @property
    def repetitions(self) -> int:
        return self._reps

    @property
    def done_cells(self) -> int:
        return len(self._finalized)

    def add(self, record: ResultRecord) -> Optional[Any]:
        """Fold one record; returns the cell's row when it completes."""
        if record.status != "completed":
            return None
        return self._add_run(
            record.cell_index, record.rep_index, dict(record.metrics)
        )

    def add_all(self, records: Iterable[ResultRecord]) -> List[Any]:
        """Fold many records; returns the rows completed by them."""
        rows = []
        for record in records:
            row = self.add(record)
            if row is not None:
                rows.append(row)
        return rows

    def _add_run(
        self, cell_index: int, rep_index: int, metrics: Dict[str, float]
    ) -> Optional[Any]:
        if not 0 <= cell_index < len(self._cells):
            raise SCANError(
                f"record cell_index {cell_index} outside grid of "
                f"{len(self._cells)} cells"
            )
        if not 0 <= rep_index < self._reps:
            raise SCANError(
                f"record rep_index {rep_index} outside {self._reps} "
                f"repetitions"
            )
        if cell_index in self._finalized or rep_index in self._partial.get(
            cell_index, ()
        ):
            self.duplicates += 1
            return None
        slot = self._partial.setdefault(cell_index, {})
        slot[rep_index] = metrics
        if len(slot) < self._reps:
            return None
        del self._partial[cell_index]
        return self._finalize(cell_index, slot)

    def _finalize(
        self, cell_index: int, runs: Dict[int, Dict[str, float]]
    ) -> Any:
        from repro.sim.sweep import row_from_runs

        row = row_from_runs(
            self._cells[cell_index], [runs[k] for k in sorted(runs)]
        )
        self._finalized.add(cell_index)
        if self._retain:
            self._rows[cell_index] = row
        if self._on_cell is not None:
            self._on_cell(cell_index, row)
        return row

    def missing_keys(self) -> List[tuple[int, int]]:
        """The (cell, rep) keys not yet folded, in grid order."""
        out = []
        for cell_index in range(len(self._cells)):
            if cell_index in self._finalized:
                continue
            have = self._partial.get(cell_index, ())
            out.extend(
                (cell_index, k) for k in range(self._reps) if k not in have
            )
        return out

    def rows(self) -> List[Any]:
        """All rows in grid order; every cell must be complete."""
        if not self._retain:
            raise SCANError("aggregator built with retain_rows=False")
        missing = self.missing_keys()
        if missing:
            raise SCANError(
                f"sweep incomplete: {len(missing)} repetition(s) missing "
                f"(first: cell {missing[0][0]} rep {missing[0][1]})"
            )
        return [self._rows[i] for i in range(len(self._cells))]


def records_from_runs(
    cell_index: int,
    rep_indices: Sequence[int],
    seeds: Sequence[int],
    per_run: Sequence[Dict[str, float]],
) -> List[ResultRecord]:
    """Completed records for one executed slice of a cell."""
    if not len(rep_indices) == len(seeds) == len(per_run):
        raise ValueError("rep_indices, seeds and per_run must align")
    return [
        ResultRecord(
            cell_index=cell_index,
            rep_index=rep_index,
            seed=seed,
            status="completed",
            metrics=dict(metrics),
        )
        for rep_index, seed, metrics in zip(rep_indices, seeds, per_run)
    ]


def failed_records(
    cell_index: int,
    rep_indices: Sequence[int],
    seeds: Sequence[int],
    error: str,
) -> List[ResultRecord]:
    """Failed (dead-letter) records for one exhausted slice of a cell."""
    return [
        ResultRecord(
            cell_index=cell_index,
            rep_index=rep_index,
            seed=seed,
            status="failed",
            error=error,
        )
        for rep_index, seed in zip(rep_indices, seeds)
    ]
