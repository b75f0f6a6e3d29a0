"""Invariants of the per-task lifecycle: state transitions and the workflow
announcements the executor keeps up to date as tasks complete."""

from __future__ import annotations

import itertools

import pytest

from repro.agents.base import AgentInterface, WorkUnit
from repro.baselines.unoptimized import RescanWorkflowExecutor
from repro.core.execution import WorkflowExecutor
from repro.core.multitenant import TenantSubmission, run_submissions
from repro.core.runtime import MurakkabRuntime
from repro.core.task import Task, TaskState
from repro.loadgen import default_registry

# --------------------------------------------------------------------- #
# Task.mark
# --------------------------------------------------------------------- #


def _list_rule_accepts(current: TaskState, target: TaskState) -> bool:
    """The transition rule as first written: a list of forward states and
    two ``index`` lookups."""
    order = [TaskState.PENDING, TaskState.READY, TaskState.RUNNING, TaskState.COMPLETED]
    if target in (TaskState.FAILED, TaskState.CANCELLED):
        return True
    if current in order and order.index(target) < order.index(current):
        return False
    return True


@pytest.mark.parametrize(
    "current,target",
    list(itertools.product(TaskState, TaskState)),
    ids=lambda state: state.value,
)
def test_mark_accepts_or_raises_exactly_as_the_list_rule(current, target):
    task = Task(
        task_id="t",
        description="t",
        interface=AgentInterface.CALCULATION,
        work=WorkUnit(kind="item"),
        state=current,
    )
    if _list_rule_accepts(current, target):
        task.mark(target)
        assert task.state is target
    else:
        with pytest.raises(ValueError, match="back to"):
            task.mark(target)
        assert task.state is current


# --------------------------------------------------------------------- #
# Announcements stay equal to a fresh rescan after every event
# --------------------------------------------------------------------- #

_ARRIVALS = (
    (0.0, "newsfeed"),
    (0.4, "video-understanding"),
    (0.8, "chain-of-thought"),
    (1.2, "document-qa"),
    (1.6, "newsfeed"),
)


def _fresh_demand(executor) -> dict:
    return {
        interface.value: count
        for interface, count in executor._graph.pending_counts_by_interface().items()
        if count > 0
    }


def _check_announcements(manager, executors) -> int:
    """Compare every stored announcement, and the aggregate, with a rescan
    of the announcing executor's graph; returns how many were checked."""
    by_id = {executor.workflow_id: executor for executor in executors}
    expected_ids = [
        executor.workflow_id
        for executor in executors
        if executor._graph is not None and executor.finished_at is None
    ]
    records = manager._announcements
    assert sorted(records) == sorted(expected_ids)
    aggregate: dict = {}
    for workflow_id, record in records.items():
        executor = by_id[workflow_id]
        graph = executor._graph
        assert record.workflow_id == workflow_id
        assert record.completed_tasks == len(graph.completed())
        assert record.total_tasks == len(graph)
        assert record.upcoming_demand == _fresh_demand(executor)
        for name, count in _fresh_demand(executor).items():
            aggregate[name] = aggregate.get(name, 0) + count
    assert manager.aggregate_upcoming_demand() == aggregate
    return len(records)


@pytest.mark.parametrize(
    "executor_class", [WorkflowExecutor, RescanWorkflowExecutor], ids=lambda c: c.__name__
)
def test_announcements_match_a_rescan_after_every_event(executor_class, monkeypatch):
    executors = []

    class Recording(executor_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            executors.append(self)

    runtime = MurakkabRuntime()
    runtime.executor_class = Recording
    engine = runtime.engine
    checked = []

    def stepped_run(until=None, max_events=None):
        assert until is None and max_events is None
        while engine.step():
            checked.append(_check_announcements(runtime.cluster_manager, executors))
        return engine.now

    monkeypatch.setattr(engine, "run", stepped_run)
    registry = default_registry()
    submissions = [
        TenantSubmission(at, registry.build(workload, f"life-{index}-{workload}"))
        for index, (at, workload) in enumerate(_ARRIVALS)
    ]
    report = run_submissions(runtime, submissions)

    assert report.completed_jobs == len(_ARRIVALS)
    assert len(executors) == len(_ARRIVALS)
    # The jobs overlapped: several announcements were live at once.
    assert max(checked) > 1
    assert checked[-1] == 0
    assert runtime.cluster_manager.aggregate_upcoming_demand() == {}
