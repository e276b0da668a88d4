"""Property-based invariants over randomized workflow DAGs.

Specs are drawn as random edge sets over index-ordered steps (always
acyclic by construction) with Cytoscape everywhere -- its CSV-in/CSV-out
signature makes every topology format-valid, so the properties exercise
shape alone:

- the spec's topological order puts every parent before its children;
- compiled node indices respect every edge (the estimator's reverse
  sweep depends on it);
- executing a compiled DAG job in ANY released-step order the fan-in
  barrier admits completes all nodes without ever running a node before
  its parents;
- the estimator's critical-path ETT equals, bit for bit, the original
  sweep kept below as ``reference_critical_path``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import ExecutionPlan
from repro.scheduler.estimator import PipelineEstimator
from repro.scheduler.tasks import Job, StageRecord
from repro.workflows.compiled import compile_spec
from repro.workflows.spec import WorkflowSpec, WorkflowStep


@st.composite
def dag_specs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(candidates)))
    return WorkflowSpec(
        "prop",
        [WorkflowStep(f"s{i}", "cytoscape") for i in range(n)],
        [(f"s{i}", f"s{j}") for i, j in sorted(edges)],
    )


@given(spec=dag_specs())
@settings(max_examples=60, deadline=None)
def test_topological_order_respects_edges(spec):
    order = {name: i for i, name in enumerate(spec.topological_order)}
    assert len(order) == len(spec)
    for step in spec.topological_order:
        for child in spec.children(step):
            assert order[step] < order[child]


@given(spec=dag_specs())
@settings(max_examples=60, deadline=None)
def test_compiled_indices_respect_edges(spec):
    wf = compile_spec(spec)
    for node in wf:
        assert all(p < node.index for p in node.parents)
        assert all(c > node.index for c in node.children)
        # parents/children agree with each other.
        for p in node.parents:
            assert node.index in wf.node(p).children


@given(spec=dag_specs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_admitted_execution_order_respects_edges(spec, data):
    wf = compile_spec(spec)
    app = spec.registry.get("cytoscape")
    job = Job(app=app, size=2.0, submit_time=0.0, workflow=wf)
    frontier = list(job.start_steps())
    executed = []
    while frontier:
        pick = data.draw(
            st.integers(min_value=0, max_value=len(frontier) - 1),
            label="frontier pick",
        )
        stage = frontier.pop(pick)
        # The barrier only ever releases nodes whose parents all ran.
        assert all(p in job.completed_steps for p in wf.node(stage).parents)
        t = float(len(executed))
        job.record_stage(
            StageRecord(
                stage=stage, queued_at=t, started_at=t,
                finished_at=t + 1.0, threads=1, tier="private",
            )
        )
        executed.append(stage)
        frontier.extend(job.ready_after(stage))
    assert len(executed) == wf.n_nodes
    assert set(executed) == set(range(wf.n_nodes))


def reference_critical_path(estimator, job, threads_per_stage=None):
    """The original ``PipelineEstimator._critical_path``, kept literally
    as an oracle for the lean sweep."""
    wf = estimator.workflow
    done = job.completed_steps
    downstream = [0.0] * wf.n_nodes
    best = 0.0
    for i in range(wf.n_nodes - 1, -1, -1):
        if i in done:
            continue
        node = wf.node(i)
        if threads_per_stage is not None:
            threads = threads_per_stage[i]
        else:
            threads = job.planned_threads(i)
        cost = estimator.eqt(i) + estimator.eet(
            i, wf.node_input_gb(i, job.input_gb), threads
        )
        tail = 0.0
        for child in node.children:
            if child not in done and downstream[child] > tail:
                tail = downstream[child]
        downstream[i] = cost + tail
        if downstream[i] > best and all(p in done for p in node.parents):
            best = downstream[i]
    return best


_threads = st.sampled_from((1, 2, 4, 8, 16))


@st.composite
def scaled_dag_specs(draw):
    """Like :func:`dag_specs`, with random output ratios, so node input
    scales other than 1.0 occur."""
    n = draw(st.integers(min_value=2, max_value=6))
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(candidates)))
    ratios = draw(
        st.lists(
            st.sampled_from((1.0, 0.5, 0.01, 2.5, 1.0 / 3.0)),
            min_size=n, max_size=n,
        )
    )
    return WorkflowSpec(
        "prop",
        [
            WorkflowStep(f"s{i}", "cytoscape", output_ratio=ratios[i])
            for i in range(n)
        ],
        [(f"s{i}", f"s{j}") for i, j in sorted(edges)],
    )


@given(spec=scaled_dag_specs(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_critical_path_matches_the_reference_sweep(spec, data):
    wf = compile_spec(spec)
    app = spec.registry.get("cytoscape")
    estimator = PipelineEstimator(app, workflow=wf)
    size = data.draw(st.floats(min_value=0.01, max_value=500.0), label="gb")
    job = Job(app=app, size=size, submit_time=0.0, workflow=wf)
    if data.draw(st.booleans(), label="planned"):
        job.plan = ExecutionPlan(
            tuple(data.draw(st.lists(_threads, min_size=wf.n_nodes,
                                     max_size=wf.n_nodes), label="plan"))
        )
    # Any done set, closed under parents or not: the sweeps must agree
    # on every input, not only on the ones a run produces.  (A chain-shaped
    # spec makes a chain job, which keeps no done set until given one.)
    job._done = data.draw(
        st.sets(st.integers(0, wf.n_nodes - 1)), label="done"
    )
    eqts = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=50.0),
                 min_size=wf.n_nodes, max_size=wf.n_nodes),
        label="eqt",
    )
    for i, wait in enumerate(eqts):
        if wait:
            estimator.observe_queue_wait(i, wait)
    threads = data.draw(
        st.none() | st.lists(_threads, min_size=wf.n_nodes,
                             max_size=wf.n_nodes),
        label="threads_per_stage",
    )
    expected = reference_critical_path(estimator, job, threads)
    assert estimator._critical_path(job, threads) == expected
