"""The columnar arrival boundary: ArrivalColumns validation, the numpy shard
partition and admission order against their per-object oracles, and serving
a trace given as columns."""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture import payload_checksum
from repro.loadgen import default_registry
from repro.service import AIWorkflowService
from repro.sharding import ShardedService, ShardRouter
from repro.workloads.arrival import ArrivalColumns, JobArrival, uniform_arrivals

NON_FINITE = [math.nan, math.inf, -math.inf]


# --------------------------------------------------------------------- #
# The per-object algorithms the columnar ones replaced (the oracles)
# --------------------------------------------------------------------- #


def oracle_partition(
    router: ShardRouter, arrivals: List[JobArrival]
) -> Dict[int, Tuple[List[int], List[JobArrival]]]:
    """``ShardRouter.partition_arrivals`` as it was: one dict lookup and one
    append per arrival object."""
    owner: Dict[str, int] = {}
    assignment: Dict[int, Tuple[List[int], List[JobArrival]]] = {}
    for index, arrival in enumerate(arrivals):
        shard = owner.get(arrival.workload)
        if shard is None:
            shard = router.shard_for(arrival.workload)
            owner[arrival.workload] = shard
        indices, subset = assignment.setdefault(shard, ([], []))
        indices.append(index)
        subset.append(arrival)
    return assignment


def oracle_admission_order(times: List[float]) -> List[int]:
    """Trace indices by arrival time, ties in trace order, from ``sorted``."""
    return sorted(range(len(times)), key=times.__getitem__)


def _objects(columns: ArrivalColumns) -> List[JobArrival]:
    """The trace as arrival objects again (the inverse of ``from_arrivals``)."""
    names = columns.names
    return [
        JobArrival(time, names[code])
        for time, code in zip(columns.times.tolist(), columns.codes.tolist())
    ]


NAMES = ["newsfeed", "document-qa", "chain-of-thought", "video-understanding", "w4", "w5"]

#: Traces with many tied times: times come from a handful of values.
traces = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 1e6]) | st.floats(0.0, 1e9),
        st.sampled_from(NAMES),
    ),
    min_size=1,
    max_size=60,
).map(lambda rows: [JobArrival(time, name) for time, name in rows])


# --------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("time", NON_FINITE, ids=["nan", "+inf", "-inf"])
def test_job_arrival_rejects_non_finite_times(time):
    with pytest.raises(ValueError, match="finite"):
        JobArrival(time, "x")


@pytest.mark.parametrize("time", NON_FINITE, ids=["nan", "+inf", "-inf"])
def test_arrival_columns_reject_non_finite_times(time):
    with pytest.raises(ValueError, match="finite"):
        ArrivalColumns([0.0, time, 1.0], [0, 0, 0], ("x",))


def test_arrival_columns_reject_negative_times_and_bad_codes():
    with pytest.raises(ValueError, match="non-negative"):
        ArrivalColumns([0.0, -1.0], [0, 0], ("x",))
    with pytest.raises(ValueError, match="indexes names"):
        ArrivalColumns([0.0, 1.0], [0, 1], ("x",))
    with pytest.raises(ValueError, match="indexes names"):
        ArrivalColumns([0.0], [-1], ("x",))
    with pytest.raises(ValueError, match="indexes names"):
        ArrivalColumns([0.0], [0.0], ("x",))
    # A code past the compact dtype's range is rejected, never wrapped.
    with pytest.raises(ValueError, match="indexes names"):
        ArrivalColumns([0.0], [256], ("x",))
    with pytest.raises(ValueError, match="one length"):
        ArrivalColumns([0.0, 1.0], [0], ("x",))
    with pytest.raises(ValueError, match="distinct"):
        ArrivalColumns([0.0], [0], ("x", "x"))


def test_arrival_columns_hold_float64_times_and_compact_codes():
    columns = ArrivalColumns.from_arrivals(uniform_arrivals(3, 1.0, ("a", "b")))
    assert columns.times.dtype == np.float64
    assert columns.codes.dtype == np.uint8
    assert columns.names == ("a", "b")
    assert columns.codes.tolist() == [0, 1, 0]
    assert ArrivalColumns.of(columns) is columns


# --------------------------------------------------------------------- #
# Properties of the columnar boundary
# --------------------------------------------------------------------- #


@settings(max_examples=150, deadline=None)
@given(arrivals=traces, shards=st.integers(1, 4))
def test_numpy_partition_matches_the_object_partition(arrivals, shards):
    router = ShardRouter(shards)
    columns = ArrivalColumns.from_arrivals(arrivals)
    expected = oracle_partition(router, arrivals)
    partition = router.partition(columns)
    assert sorted(partition) == sorted(expected)
    for shard, indices in partition.items():
        oracle_indices, oracle_subset = expected[shard]
        assert indices.tolist() == oracle_indices
        subset = columns.take(indices)
        assert _objects(subset) == oracle_subset
        # A sub-trace names exactly the workloads it holds.
        assert set(subset.names) == {arrival.workload for arrival in oracle_subset}


@settings(max_examples=150, deadline=None)
@given(arrivals=traces)
def test_stable_argsort_is_the_admission_order(arrivals):
    columns = ArrivalColumns.from_arrivals(arrivals)
    times = [arrival.arrival_time for arrival in arrivals]
    order = columns.admission_order()
    assert order.tolist() == oracle_admission_order(times)


@settings(max_examples=150, deadline=None)
@given(arrivals=traces)
def test_from_arrivals_round_trips(arrivals):
    columns = ArrivalColumns.from_arrivals(arrivals)
    assert len(columns) == len(arrivals)
    back = _objects(columns)
    assert back == arrivals
    assert all(type(arrival.arrival_time) is float for arrival in back)
    again = ArrivalColumns.from_arrivals(back)
    assert again.times.tobytes() == columns.times.tobytes()
    assert again.codes.tolist() == columns.codes.tolist()
    assert again.names == columns.names


# --------------------------------------------------------------------- #
# Serving columns
# --------------------------------------------------------------------- #


def _trace() -> List[JobArrival]:
    return uniform_arrivals(
        count=40, interval_s=20.0, workloads=("newsfeed", "chain-of-thought", "document-qa")
    )


def _renamed(arrivals: List[JobArrival]) -> ArrivalColumns:
    """The same trace numbered with reversed names and an unused one."""
    columns = ArrivalColumns.from_arrivals(arrivals)
    names = ("unused",) + tuple(reversed(columns.names))
    code_of = {name: code for code, name in enumerate(names)}
    remap = np.array([code_of[name] for name in columns.names])
    return ArrivalColumns(columns.times, remap[columns.codes], names)


def _canonical(report) -> str:
    return payload_checksum(report.canonical_dict())


@pytest.mark.parametrize("mode", ["grouped", "multiplex"])
def test_columns_and_objects_serve_identically(mode):
    registry = default_registry()
    arrivals = _trace()
    checksums = []
    for trace in (arrivals, ArrivalColumns.from_arrivals(arrivals), _renamed(arrivals)):
        service = AIWorkflowService()
        report = service.submit_trace(trace, registry=registry, mode=mode)
        checksums.append(_canonical(report))
        service.shutdown()
    assert checksums[0] == checksums[1] == checksums[2]


def test_recording_key_ignores_how_the_names_are_numbered(tmp_path):
    registry = default_registry()
    arrivals = _trace()
    cold_service = AIWorkflowService(warm_cache=tmp_path)
    cold = cold_service.submit_trace(arrivals, registry=registry)
    cold_service.shutdown()
    warm_service = AIWorkflowService(warm_cache=tmp_path)
    warm = warm_service.submit_trace(_renamed(arrivals), registry=registry)
    warm_service.shutdown()
    assert not cold.warm_trace and warm.warm_trace
    assert warm.job_summaries == cold.job_summaries
    assert warm.groups == {
        name: {"simulated": 0, "replayed": counters["simulated"] + counters["replayed"]}
        for name, counters in cold.groups.items()
    }
    assert list(warm.groups) == list(cold.groups)


def test_sharded_service_serves_columns_like_objects():
    registry = default_registry()
    arrivals = _trace()
    checksums = []
    for trace in (arrivals, _renamed(arrivals)):
        with ShardedService(shards=2, backend="inline") as sharded:
            checksums.append(_canonical(sharded.submit_trace(trace, registry=registry)))
    assert checksums[0] == checksums[1]


def test_report_fields_hold_no_numpy_scalars():
    registry = default_registry()
    service = AIWorkflowService()
    report = service.submit_trace(ArrivalColumns.from_arrivals(_trace()), registry=registry)
    service.shutdown()
    found = []

    def walk(value, path):
        if isinstance(value, np.generic):
            found.append(path)
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(key, f"{path}.<key>")
                walk(item, f"{path}.{key}")
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item, f"{path}[]")

    walk(report.canonical_dict(), "report")
    walk(dict(service.stats.per_job), "per_job")
    walk(dict(service.runtime.engine.watermarks), "watermarks")
    assert not found
