"""Unit tests for tasks and the task graph."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.base import AgentInterface, WorkUnit
from repro.core.dag import TaskGraph
from repro.core.task import Task, TaskState


def _task(task_id, interface=AgentInterface.SPEECH_TO_TEXT, **metadata):
    return Task(
        task_id=task_id,
        description=task_id,
        interface=interface,
        work=WorkUnit(kind="scene", quantity=1.0),
        metadata=metadata,
    )


def test_task_requires_id_and_defaults_stage():
    with pytest.raises(ValueError):
        _task("")
    task = _task("t0")
    assert task.stage == "speech_to_text"
    assert task.state is TaskState.PENDING


def test_task_state_transitions():
    task = _task("t0")
    task.mark(TaskState.READY)
    task.mark(TaskState.RUNNING)
    task.mark(TaskState.COMPLETED)
    assert task.state.is_terminal
    with pytest.raises(ValueError):
        task.mark(TaskState.RUNNING)


def test_task_can_fail_from_any_state():
    task = _task("t0")
    task.mark(TaskState.RUNNING)
    task.mark(TaskState.FAILED)
    assert task.state is TaskState.FAILED


def test_task_duration_requires_both_timestamps():
    task = _task("t0")
    assert task.duration is None
    task.started_at, task.finished_at = 1.0, 3.5
    assert task.duration == pytest.approx(2.5)


def test_graph_add_and_lookup():
    graph = TaskGraph("wf")
    graph.add_task(_task("a"))
    assert "a" in graph and len(graph) == 1
    with pytest.raises(ValueError):
        graph.add_task(_task("a"))
    with pytest.raises(KeyError):
        graph.task("missing")


def test_graph_dependencies_and_cycle_rejection():
    graph = TaskGraph()
    graph.add_task(_task("a"))
    graph.add_task(_task("b"))
    graph.add_dependency("a", "b")
    with pytest.raises(ValueError):
        graph.add_dependency("b", "a")
    with pytest.raises(ValueError):
        graph.add_dependency("a", "a")
    with pytest.raises(KeyError):
        graph.add_dependency("a", "zzz")


def test_graph_validate_empty_raises():
    with pytest.raises(ValueError):
        TaskGraph().validate()


def test_topological_order_respects_dependencies():
    graph = TaskGraph()
    for name in ("c", "b", "a"):
        graph.add_task(_task(name))
    graph.add_dependency("a", "b")
    graph.add_dependency("b", "c")
    order = [task.task_id for task in graph.topological_order()]
    assert order.index("a") < order.index("b") < order.index("c")


def test_ready_tasks_track_completion():
    graph = TaskGraph()
    graph.add_task(_task("a"))
    graph.add_task(_task("b"))
    graph.add_dependency("a", "b")
    assert [t.task_id for t in graph.ready_tasks()] == ["a"]
    graph.task("a").mark(TaskState.COMPLETED)
    assert [t.task_id for t in graph.ready_tasks()] == ["b"]
    graph.task("b").mark(TaskState.COMPLETED)
    assert graph.is_complete()


def test_roots_and_leaves():
    graph = TaskGraph()
    for name in ("a", "b", "c"):
        graph.add_task(_task(name))
    graph.add_dependency("a", "b")
    graph.add_dependency("a", "c")
    assert [t.task_id for t in graph.roots()] == ["a"]
    assert {t.task_id for t in graph.leaves()} == {"b", "c"}


def test_counts_by_interface_and_pending_counts():
    graph = TaskGraph()
    graph.add_task(_task("stt-0"))
    graph.add_task(_task("stt-1"))
    graph.add_task(_task("sum-0", interface=AgentInterface.SCENE_SUMMARIZATION))
    counts = graph.counts_by_interface()
    assert counts[AgentInterface.SPEECH_TO_TEXT] == 2
    graph.task("stt-0").mark(TaskState.COMPLETED)
    pending = graph.pending_counts_by_interface()
    assert pending[AgentInterface.SPEECH_TO_TEXT] == 1
    assert pending[AgentInterface.SCENE_SUMMARIZATION] == 1


def test_critical_path_uses_durations():
    graph = TaskGraph()
    for name in ("a", "b", "c", "d"):
        graph.add_task(_task(name))
    graph.add_dependency("a", "b")
    graph.add_dependency("a", "c")
    graph.add_dependency("b", "d")
    graph.add_dependency("c", "d")
    durations = {"a": 1.0, "b": 5.0, "c": 1.0, "d": 2.0}
    length, path = graph.critical_path(lambda task: durations[task.task_id])
    assert length == pytest.approx(8.0)
    assert [t.task_id for t in path] == ["a", "b", "d"]


def test_critical_path_rejects_negative_duration():
    graph = TaskGraph()
    graph.add_task(_task("a"))
    with pytest.raises(ValueError):
        graph.critical_path(lambda task: -1.0)


def test_stage_order_and_describe():
    graph = TaskGraph("wf")
    first = _task("a", interface=AgentInterface.FRAME_EXTRACTION)
    second = _task("b")
    graph.add_task(first)
    graph.add_task(second)
    graph.add_dependency("a", "b")
    assert graph.stage_order() == ["frame_extraction", "speech_to_text"]
    assert "2 tasks" in graph.describe()


# --------------------------------------------------------------------- #
# Parity with networkx: the dict-adjacency graph must answer every
# structure query exactly as a networkx DiGraph built from the same calls.
# --------------------------------------------------------------------- #
_NAMES = st.text(alphabet="abcxyz019/", min_size=1, max_size=4)


@st.composite
def _build_calls(draw):
    names = draw(st.lists(_NAMES, min_size=1, max_size=12, unique=True))
    ids = [f"w/{name}" for name in names]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=40
        )
    )
    return ids, pairs


def _staged(task_id):
    """A task whose stage is the last character of its id."""
    task = _task(task_id)
    task.stage = task_id[-1]
    return task


def _build_both(ids, pairs):
    """Replay the same calls on a TaskGraph and a networkx oracle."""
    graph = TaskGraph("w")
    oracle = nx.DiGraph()
    for task_id in ids:
        graph.add_task(_staged(task_id))
        oracle.add_node(task_id)
    for upstream, downstream in pairs:
        oracle_rejects = upstream == downstream
        if not oracle_rejects:
            oracle.add_edge(upstream, downstream)
            if not nx.is_directed_acyclic_graph(oracle):
                oracle.remove_edge(upstream, downstream)
                oracle_rejects = True
        try:
            graph.add_dependency(upstream, downstream)
        except ValueError:
            assert oracle_rejects, f"rejected acyclic edge {upstream} -> {downstream}"
        else:
            assert not oracle_rejects, f"accepted cyclic edge {upstream} -> {downstream}"
    return graph, oracle


def _structure(graph, ids):
    return {
        "topo": [t.task_id for t in graph.topological_order()],
        "edges": graph.edges(),
        "pred": {t: [p.task_id for p in graph.predecessors(t)] for t in ids},
        "succ": {t: [s.task_id for s in graph.successors(t)] for t in ids},
        "roots": [t.task_id for t in graph.roots()],
        "leaves": [t.task_id for t in graph.leaves()],
        "stages": graph.stage_order(),
    }


@given(_build_calls())
@settings(max_examples=200, deadline=None)
def test_graph_matches_networkx_oracle(calls):
    ids, pairs = calls
    graph, oracle = _build_both(ids, pairs)
    graph.validate()
    topo = list(nx.lexicographical_topological_sort(oracle))
    assert _structure(graph, ids) == {
        "topo": topo,
        "edges": list(oracle.edges()),
        "pred": {t: list(oracle.predecessors(t)) for t in ids},
        "succ": {t: list(oracle.successors(t)) for t in ids},
        "roots": [t for t in oracle.nodes if oracle.in_degree(t) == 0],
        "leaves": [t for t in oracle.nodes if oracle.out_degree(t) == 0],
        "stages": list(dict.fromkeys(task_id[-1] for task_id in topo)),
    }


@given(_build_calls(), st.sampled_from(["w", "job-7", "a-much-longer-job-id", "v"]))
@settings(max_examples=100, deadline=None)
def test_stamp_equals_graph_built_under_new_ids(calls, new_id):
    ids, pairs = calls
    graph, _ = _build_both(ids, pairs)
    rename = {task_id: new_id + task_id[1:] for task_id in ids}
    stamped = graph.stamp("w", new_id, [_staged(rename[t]) for t in ids])
    rebuilt = TaskGraph(new_id)
    for task_id in ids:
        rebuilt.add_task(_staged(rename[task_id]))
    for upstream, downstream in pairs:
        try:
            rebuilt.add_dependency(rename[upstream], rename[downstream])
        except ValueError:
            pass  # rejected on the source graph too
    new_ids = [rename[t] for t in ids]
    assert stamped.workflow_id == new_id
    assert _structure(stamped, new_ids) == _structure(rebuilt, new_ids)
    # Stamped tasks are the ones handed in; the source graph keeps its own.
    assert all(stamped.task(t) is not graph.task(o) for o, t in rename.items())


def test_stamp_rejects_mismatched_tasks():
    graph = TaskGraph("w")
    graph.add_task(_task("w/a"))
    with pytest.raises(ValueError):
        graph.stamp("w", "v", [])
    with pytest.raises(ValueError):
        graph.stamp("w", "v", [_task("x/a")])
