"""Property-based tests for the streaming sweep-result layer.

Three load-bearing properties of :mod:`repro.sim.results`:

1. **Order invariance.**  The incremental aggregator sorts each cell's
   runs by repetition index before the ``aggregate_runs`` call, so
   folding any permutation of a record set must yield bit-identical
   rows.  This is what makes a resumed sweep's report
   byte-equal to an uninterrupted one regardless of completion order.

2. **Round-trip.**  record -> persist -> reopen -> load must reproduce
   the completed/failed key sets and exact metric floats on both durable
   backends; the resume skip-set computed from a reopened store equals
   the one computed live.

3. **Torn-tail safety.**  Truncating a JSONL ledger at *any* byte
   position can lose at most the final, unacknowledged record -- every
   record before the cut survives with its metrics intact.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ledger import JsonlLedger, SqliteLedger
from repro.sim.results import ResultRecord, ResultStore, SweepAggregator

CELLS = [{"cell": i} for i in range(4)]
REPS = 3

_metric_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def _record_sets(draw, min_cells=1):
    """A set of completed records covering whole cells (unique keys)."""
    cell_indices = draw(
        st.sets(
            st.integers(min_value=0, max_value=len(CELLS) - 1),
            min_size=min_cells,
            max_size=len(CELLS),
        )
    )
    records = []
    for ci in sorted(cell_indices):
        for rep in range(REPS):
            records.append(
                ResultRecord(
                    cell_index=ci,
                    rep_index=rep,
                    seed=rep,
                    status="completed",
                    metrics={
                        "profit": draw(_metric_floats),
                        "latency": draw(_metric_floats),
                    },
                )
            )
    return records


def rows_bytes(agg):
    """Canonical bytes of the finalized rows (cells may be a subset)."""
    return json.dumps(
        [agg._rows[i].as_flat_dict() for i in sorted(agg._rows)],
        sort_keys=True,
    )


class TestOrderInvariance:
    @given(records=_record_sets(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_permutation_folds_identically(self, records, data):
        shuffled = data.draw(st.permutations(records))
        a = SweepAggregator(CELLS, REPS)
        a.add_all(records)
        b = SweepAggregator(CELLS, REPS)
        b.add_all(shuffled)
        assert rows_bytes(a) == rows_bytes(b)


@st.composite
def _mixed_records(draw):
    """Records with unique keys, mixed completed/failed statuses."""
    keys = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=REPS - 1),
            ),
            min_size=1,
            max_size=10,
        )
    )
    records = []
    for ci, rep in sorted(keys):
        if draw(st.booleans()):
            records.append(
                ResultRecord(ci, rep, rep, "completed",
                             {"m": draw(_metric_floats)})
            )
        else:
            records.append(ResultRecord(ci, rep, rep, "failed", error="x"))
    return records


class TestRoundTrip:
    @given(records=_mixed_records(), backend=st.sampled_from(["jsonl",
                                                              "sqlite"]))
    @settings(max_examples=30, deadline=None)
    def test_persist_reopen_restores_state(self, tmp_path_factory, records,
                                           backend):
        tmp = tmp_path_factory.mktemp("store")
        medium = {"jsonl": JsonlLedger, "sqlite": SqliteLedger}[backend]
        path = str(tmp / f"r.{backend}")
        store = ResultStore(medium(path))
        for rec in records:
            store.record(rec)
        live = store.load()
        store.close()
        reopened = ResultStore(medium(path))
        state = reopened.load()
        reopened.close()
        want_completed = {
            r.key: r.metrics for r in records if r.status == "completed"
        }
        want_failed = {
            r.key for r in records if r.status == "failed"
        }
        assert {
            k: v.metrics for k, v in state.completed.items()
        } == want_completed
        assert set(state.failed) == want_failed
        # The resume skip-set survives the round trip bit-for-bit.
        assert set(state.completed) == set(live.completed)


class TestTornTail:
    @given(
        records=_record_sets(min_cells=1),
        cut_back=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_truncation_loses_at_most_final_record(self, tmp_path_factory,
                                                   records, cut_back):
        tmp = tmp_path_factory.mktemp("torn")
        path = tmp / "r.jsonl"
        store = ResultStore(JsonlLedger(str(path)))
        for rec in records:
            store.record(rec)
        store.close()
        raw = path.read_bytes()
        cut = max(0, len(raw) - cut_back)
        path.write_bytes(raw[:cut])
        state = ResultStore(JsonlLedger(str(path))).load()
        committed = {r.key: r for r in records}
        # Every surviving key is genuine, with exact metrics...
        for key, rec in state.completed.items():
            assert rec.metrics == committed[key].metrics
        # ...and every record whose line survived the cut intact is
        # recovered: only the torn final fragment may be dropped.  One
        # line == one unique completed record in this ledger.
        complete_lines = raw[:cut].count(b"\n")
        assert len(state.completed) == complete_lines
