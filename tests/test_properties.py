"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import hashlib
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.base import AgentInterface, ExecutionMode, HardwareConfig, WorkUnit
from repro.agents.calculator import evaluate_expression
from repro.agents.speech_to_text import WhisperSTT
from repro.agents.summarizer import NvlmSummarizer
from repro.agents.synthetic import (
    stable_embedding,
    stable_fraction,
    stable_hash,
    stable_subset,
)
from repro.agents.vectordb import VectorCollection, VectorRecord
from repro.core.constraints import Constraint, ConstraintSet
from repro.core.dag import TaskGraph
from repro.core.quality import cascade_quality
from repro.core.task import Task
from repro.sim.energy import DevicePowerModel, EnergyAccountant
from repro.sim.events import EventQueue
from repro.sim.trace import ExecutionTrace

# --------------------------------------------------------------------------- #
# Simulation substrate
# --------------------------------------------------------------------------- #


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_event_queue_pops_in_nondecreasing_time_order(times):
    queue = EventQueue()
    for time in times:
        queue.push(time, lambda: None)
    popped = []
    while queue:
        event = queue.pop()
        if event is None:
            break
        popped.append(event.time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_power_model_monotonic_in_utilization(idle, spread, utilization):
    model = DevicePowerModel(idle_w=idle, active_w=idle + spread, peak_w=idle + 2 * spread)
    assert model.busy_power(utilization) >= model.busy_power(0.0)
    assert model.dynamic_power(utilization) >= 0.0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=0,
        max_size=20,
    ),
    st.integers(min_value=0, max_value=16),
)
def test_energy_is_non_negative_and_monotone_in_provisioning(intervals, provisioned):
    trace = ExecutionTrace()
    for index, (start, length, gpus, utilization) in enumerate(intervals):
        trace.add(
            f"t{index}",
            f"t{index}",
            "cat",
            start,
            start + length,
            gpu_ids=tuple(f"g{i}" for i in range(gpus)),
            gpu_utilization=utilization,
        )
    accountant = EnergyAccountant(DevicePowerModel(75.0, 280.0, 400.0))
    breakdown = accountant.account(trace, provisioned_gpus=provisioned)
    more = accountant.account(trace, provisioned_gpus=provisioned + 1)
    assert breakdown.gpu_wh >= 0.0
    assert more.idle_wh >= breakdown.idle_wh


# --------------------------------------------------------------------------- #
# DAG invariants
# --------------------------------------------------------------------------- #


@st.composite
def random_dags(draw):
    """Random DAGs built by only adding edges from earlier to later nodes."""
    count = draw(st.integers(min_value=1, max_value=12))
    tasks = [
        Task(
            task_id=f"t{i}",
            description=f"t{i}",
            interface=AgentInterface.CALCULATION,
            work=WorkUnit(kind="item"),
        )
        for i in range(count)
    ]
    graph = TaskGraph("random")
    for task in tasks:
        graph.add_task(task)
    for later in range(1, count):
        parents = draw(
            st.lists(st.integers(min_value=0, max_value=later - 1), max_size=3, unique=True)
        )
        for earlier in parents:
            graph.add_dependency(f"t{earlier}", f"t{later}")
    return graph


@given(random_dags())
def test_topological_order_respects_every_edge(graph):
    order = {task.task_id: index for index, task in enumerate(graph.topological_order())}
    for upstream, downstream in graph.edges():
        assert order[upstream] < order[downstream]


@given(random_dags())
def test_ready_tasks_have_no_pending_predecessors(graph):
    from repro.core.task import TaskState

    ready = graph.ready_tasks()
    assert ready  # a DAG always has at least one root
    for task in ready:
        assert not graph.predecessors(task.task_id)
    # Completing everything in topological order always keeps >=1 ready task
    # available until the graph is complete.
    while not graph.is_complete():
        candidates = graph.ready_tasks()
        assert candidates
        candidates[0].mark(TaskState.COMPLETED)


@given(random_dags())
def test_critical_path_bounded_by_total_work(graph):
    length, path = graph.critical_path(lambda task: 1.0)
    assert 1.0 <= length <= len(graph)
    assert len(path) == int(length)


# --------------------------------------------------------------------------- #
# Agents and profiles
# --------------------------------------------------------------------------- #


@given(st.floats(min_value=0.0, max_value=64.0))
def test_whisper_estimate_scales_linearly_with_scenes(scenes):
    whisper = WhisperSTT()
    work = WorkUnit(kind="scene", quantity=scenes)
    single = whisper.estimate(WorkUnit(kind="scene", quantity=1.0), HardwareConfig(gpus=1))
    many = whisper.estimate(work, HardwareConfig(gpus=1))
    assert many.seconds == pytest.approx(single.seconds * scenes)


@given(st.integers(min_value=1, max_value=16), st.booleans())
def test_summarizer_estimates_are_positive_and_batched_is_never_slower(gpus, batched):
    summarizer = NvlmSummarizer()
    config = HardwareConfig(gpus=max(4, gpus))
    mode = ExecutionMode(batched=batched)
    sequential = summarizer.estimate(WorkUnit(kind="scene", quantity=1.0), config)
    selected = summarizer.estimate(WorkUnit(kind="scene", quantity=1.0), config, mode)
    assert selected.seconds > 0
    assert selected.seconds <= sequential.seconds + 1e-9


@given(st.integers(min_value=1, max_value=5))
def test_effective_quality_monotone_in_paths_and_bounded(paths):
    agent = WhisperSTT()
    quality = agent.effective_quality(ExecutionMode(speculative_paths=paths))
    more = agent.effective_quality(ExecutionMode(speculative_paths=paths + 1))
    assert agent.quality <= quality <= more <= 1.0


# --------------------------------------------------------------------------- #
# Synthetic helpers and the vector database
# --------------------------------------------------------------------------- #

_words = st.text(alphabet=string.ascii_lowercase + " ", min_size=1, max_size=40)


@given(_words)
def test_stable_fraction_is_deterministic_and_bounded(text):
    assert stable_fraction(text) == stable_fraction(text)
    assert 0.0 <= stable_fraction(text) < 1.0


@given(st.lists(_words, max_size=20, unique=True), st.floats(min_value=0.0, max_value=1.0))
def test_stable_subset_is_subset_and_deterministic(items, fraction):
    subset = stable_subset(items, fraction, "seed")
    assert set(subset) <= set(items)
    assert subset == stable_subset(items, fraction, "seed")
    assert stable_subset(items, 1.0, "seed") == list(items)
    assert stable_subset(items, 0.0, "seed") == []


def _uncached_hash(*parts):
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _uncached_fraction(*parts):
    return (_uncached_hash(*parts) % 10_000_000) / 10_000_000.0


def _uncached_subset(items, keep_fraction, *seed_parts):
    return [
        item
        for index, item in enumerate(items)
        if _uncached_fraction(item, index, *seed_parts) < keep_fraction
    ]


#: Parts that are equal as dict keys but render differently (1, 1.0, True,
#: ...), mixed with arbitrary values.
_mixed_parts = st.lists(
    st.one_of(
        st.sampled_from([1, 1.0, True, 0, 0.0, False, "1", "1.0", "True", -0.0]),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=6),
    ),
    max_size=4,
)
_keep_fractions = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0, 1, True]))


@given(_mixed_parts, st.lists(_mixed_parts, min_size=1, max_size=4), _keep_fractions)
def test_memoized_synthetic_helpers_equal_an_uncached_reference(items, seeds, keep_fraction):
    for seed in seeds + seeds[::-1]:
        assert stable_hash(*seed) == _uncached_hash(*seed)
        assert stable_fraction(*seed) == _uncached_fraction(*seed)
        kept = stable_subset(items, keep_fraction, *seed)
        assert kept == _uncached_subset(items, keep_fraction, *seed)
        assert [type(item) for item in kept] == [
            type(item) for item in _uncached_subset(items, keep_fraction, *seed)
        ]


@given(
    st.permutations([1, 1.0, True]),
    st.lists(st.sampled_from(["x", "y", "z", "w", 1, 1.0, True]), max_size=8),
)
def test_keys_that_compare_equal_but_render_differently_stay_apart(order, items):
    for seed in order:
        for other in (seed, "tail"):
            assert stable_hash(seed, other) == _uncached_hash(seed, other)
            assert stable_fraction(other, seed) == _uncached_fraction(other, seed)
            assert stable_subset(items, 0.5, seed, other) == _uncached_subset(
                items, 0.5, seed, other
            )


def test_stable_subset_keeps_one_and_one_point_zero_apart():
    items = ["x", "y", "z", "w"]
    assert stable_subset(items, 0.5, 1) == ["x", "y", "z"]
    assert stable_subset(items, 0.5, 1.0) == ["x"]
    assert stable_subset(items, 0.5, 1) == ["x", "y", "z"]


@given(st.lists(_words, max_size=12), st.floats(min_value=0.0, max_value=1.0), _words)
def test_mutating_a_returned_subset_never_changes_a_later_result(items, fraction, seed):
    first = stable_subset(items, fraction, seed)
    expected = list(first)
    first.append("intruder")
    first.reverse()
    assert stable_subset(items, fraction, seed) == expected
    assert stable_subset(items, fraction, seed) is not stable_subset(items, fraction, seed)


@given(_words)
def test_stable_embedding_is_unit_norm_and_deterministic(text):
    vector = stable_embedding(text, dimension=32)
    assert vector.shape == (32,)
    assert np.linalg.norm(vector) == pytest.approx(1.0)
    assert np.allclose(vector, stable_embedding(text, dimension=32))


@given(st.lists(_words, min_size=1, max_size=15, unique=True))
@settings(deadline=None)
def test_vectordb_query_always_returns_exact_match_first(texts):
    collection = VectorCollection("prop")
    for index, text in enumerate(texts):
        collection.insert(VectorRecord(f"r{index}", stable_embedding(text), text))
    target = texts[0]
    matches = collection.query(stable_embedding(target), top_k=len(texts))
    assert matches[0][0].text == target
    scores = [score for _record, score in matches]
    assert scores == sorted(scores, reverse=True)


# --------------------------------------------------------------------------- #
# Constraints, quality, and the calculator
# --------------------------------------------------------------------------- #


@given(st.permutations(list(Constraint)))
def test_constraint_set_accepts_any_priority_permutation(priorities):
    constraint_set = ConstraintSet(priorities=tuple(priorities))
    assert constraint_set.primary is priorities[0]
    assert len(constraint_set.secondary_objectives()) == len(priorities) - 1


@given(st.dictionaries(_words, st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_cascade_quality_bounded_by_weakest_link(stage_qualities):
    combined = cascade_quality(stage_qualities)
    assert 0.0 <= combined <= min(stage_qualities.values())


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
    st.sampled_from(["+", "-", "*"]),
)
def test_calculator_matches_python_semantics(a, b, op):
    expression = f"{a} {op} {b}"
    assert evaluate_expression(expression) == eval(expression)  # noqa: S307 - trusted input
