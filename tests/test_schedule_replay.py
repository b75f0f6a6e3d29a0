"""Replayed single submissions (repro.core.schedule): a replayed call equals
the simulated one bit for bit, in its result and in every piece of state it
leaves behind."""

from __future__ import annotations

import pytest

from repro.baselines.unoptimized import unoptimized_runtime
from repro.agents.base import AgentInterface
from repro.agents.library import default_library
from repro.cluster.allocator import ResourceRequest
from repro.core.constraints import Constraint
from repro.core.execution import ServerPool, WorkflowExecutor
from repro.core.job import Job
from repro.core.planner import PlannerOverride
from repro.core.runtime import MurakkabRuntime
from repro.core.schedule import _SHARED_SCHEDULES, schedule_memo_info
from repro.loadgen import default_registry
from repro.spec import compile_spec

#: One session: each workflow under a few objectives, a repeat, and a
#: submission whose planning fails.
SESSION = (
    ("video-understanding", None, None),
    ("newsfeed", "min_latency", None),
    ("document-qa", None, 0.9),
    ("chain-of-thought", "min_energy", None),
    ("unplannable", None, None),
    ("newsfeed", "min_latency", None),
    ("video-understanding", "min_cost", None),
    ("document-qa", "min_latency", None),
    ("chain-of-thought", None, None),
    ("newsfeed", None, 0.9),
)


class _NeverReplays(WorkflowExecutor):
    replayable = False


def _submit(runtime, registry, workflow, constraint, quality, job_id, pool):
    if workflow == "unplannable":
        job = registry.build("newsfeed", job_id)
        override = PlannerOverride(agent_name="no-such-agent")
        return runtime.submit(
            job, overrides={AgentInterface.TEXT_GENERATION: override}, server_pool=pool
        )
    if workflow == "failing-calculation":
        # Fails in its dataflow, after its whole schedule ran.
        job = Job(
            description="calculate the expression",
            inputs=[{"expression": "1/0"}],
            job_id=job_id,
        )
        return runtime.submit(job, server_pool=pool)
    spec = registry.spec(workflow).with_overrides(
        constraints=Constraint(constraint) if constraint else None,
        quality_target=quality,
    )
    job = compile_spec(spec, inputs=registry.materialized_inputs(workflow), job_id=job_id)
    return runtime.submit(job, server_pool=pool)


def _result_view(result):
    """Every field of a JobResult, with its objects spelled out."""
    return {
        "fields": {
            name: getattr(result, name)
            for name in (
                "job_id", "makespan_s", "started_at", "finished_at", "energy", "cost",
                "quality", "provisioned_gpus", "transfer_s", "transferred_bytes",
                "cross_rack_bytes", "transfer_wh", "transfer_events",
            )
        },
        "output": repr(result.output),
        "task_results": [(task_id, repr(vars(r))) for task_id, r in result.task_results.items()],
        "trace": [(i, i.metadata) for i in result.trace],
        "plan": result.plan.describe(),
        "graph": [
            (t.task_id, t.state, t.started_at, t.finished_at, t.retries) for t in result.graph
        ],
        "react_trace": repr(result.react_trace),
    }


def _state_view(runtime, pool):
    """The cluster manager's, allocator's, nodes', pool's and engine's state."""
    manager = runtime.cluster_manager
    allocator = manager.allocator
    return {
        "log": list(manager._events),
        "instances": {name: list(insts) for name, insts in manager._instances.items()},
        "announced": dict(manager._announcements),
        "active": list(allocator._active.items()),
        "by_owner": {owner: list(held.items()) for owner, held in allocator._by_owner.items()},
        "next_id": repr(allocator._counter),
        "nodes": [
            (
                node.node_id,
                sorted(node._free_gpu_slots),
                [gpu.allocated_to for gpu in node.gpus],
                dict(node._allocated_cpu_cores),
            )
            for node in runtime.cluster
        ],
        "pool": [
            (key, h.slots, h.active, h.dead, h.instance) for key, h in pool._handles.items()
        ]
        if pool is not None
        else None,
        "now": runtime.engine.now,
        "watermarks": dict(runtime.engine.watermarks),
        "queued": len(runtime.engine._queue),
        "next_sequence": runtime.engine._queue._next_sequence,
    }


def _serve(make_runtime, policy, keep_warm, session=SESSION, sessions=4):
    """Serve SESSION ``sessions`` times on fresh runtimes; one view per call.

    A job is stamped from a template from its second sighting on, so its
    schedule is first recorded in the second session, confirmed in the
    third and replayed in the fourth."""
    registry = default_registry()
    views = []
    for number in range(sessions):
        runtime = make_runtime()
        runtime.set_policy(policy)
        pool = ServerPool(runtime.cluster_manager, runtime.library) if keep_warm else None
        for index, call in enumerate(session):
            try:
                result = _submit(runtime, registry, *call, f"s{number}-c{index}", pool)
                outcome = _result_view(result)
            except Exception as error:  # the failing submission
                outcome = ("failed", type(error).__name__, str(error))
            views.append((outcome, _state_view(runtime, pool)))
    return views


def _never_replays():
    runtime = MurakkabRuntime()
    runtime.executor_class = _NeverReplays
    return runtime


@pytest.mark.parametrize("policy", ["default", "energy_first"])
@pytest.mark.parametrize("keep_warm", [True, False], ids=["keep-warm", "per-job-pool"])
def test_replayed_calls_match_simulation_and_the_oracle(policy, keep_warm):
    replayed = _serve(MurakkabRuntime, policy, keep_warm)
    counts = schedule_memo_info()
    assert counts["replayed"] >= len(SESSION) - 1
    assert counts["refused"] == counts["fallbacks"] == 0
    simulated = _serve(_never_replays, policy, keep_warm)
    assert schedule_memo_info()["replayed"] == counts["replayed"]
    oracle = _serve(unoptimized_runtime, policy, keep_warm)
    assert sum(1 for outcome, _ in replayed if isinstance(outcome, tuple)) == 4
    for index, (replay_call, simulated_call, oracle_call) in enumerate(
        zip(replayed, simulated, oracle)
    ):
        assert replay_call == simulated_call, f"call {index} differs from simulation"
        assert replay_call == oracle_call, f"call {index} differs from the oracle"


def test_a_failure_after_its_schedule_ran_leaves_replays_exact():
    # The failing job aborts after every task completed, between replays of
    # the other calls.  (The oracle's eager dataflow fails at the task's own
    # completion, before its release, so only simulation is compared.)
    session = SESSION[:4] + (("failing-calculation", None, None),) + SESSION[5:]
    replayed = _serve(MurakkabRuntime, "default", True, session)
    assert schedule_memo_info()["replayed"] >= len(session) - 2
    assert replayed == _serve(_never_replays, "default", True, session)


def test_a_replay_skips_the_executor_and_its_events():
    # A job is stamped from a template from its second sighting on: its
    # schedule is recorded then, confirmed at the third and replayed after.
    registry = default_registry()
    fired = []
    for session in range(4):
        runtime = MurakkabRuntime()
        before = schedule_memo_info()["replayed"]
        runtime.submit(registry.build("newsfeed", f"newsfeed-{session}"))
        fired.append(runtime.engine.events_fired)
        assert schedule_memo_info()["replayed"] - before == (session == 3)
    assert fired[0] == fired[1] == fired[2] > 0 and fired[3] == 0
    counts = schedule_memo_info()
    assert (counts["fresh"], counts["candidates"], counts["confirmed"]) == (1, 1, 1)


def test_a_corrupted_confirmation_refuses_its_key_for_good():
    registry = default_registry()
    runtime = MurakkabRuntime()
    for index in range(2):
        runtime.submit(registry.build("chain-of-thought", f"cot-{index}"))
    (entry,) = _SHARED_SCHEDULES._entries.values()
    entry.payload = bytes(byte ^ 0xFF for byte in entry.payload)
    for index in range(2, 6):
        runtime.submit(registry.build("chain-of-thought", f"cot-{index}"))
    counts = schedule_memo_info()
    assert (counts["candidates"], counts["refused"], counts["confirmed"]) == (1, 1, 0)
    assert (counts["replayed"], counts["fresh"]) == (0, 4)


def test_recomputed_times_out_of_order_fall_back_to_simulation(monkeypatch):
    # A schedule whose recomputed times no longer keep the recorded ties is
    # not replayed: the call simulates, and still equals a simulated call.
    import repro.core.schedule as schedule

    registry = default_registry()
    replay = schedule._replay

    def untied(plan, *args):
        events, ties, *rest = plan
        return replay((events, tuple(not tie for tie in ties), *rest), *args)

    results = []
    for session in range(4):
        if session == 3:
            monkeypatch.setattr(schedule, "_replay", untied)
        runtime = MurakkabRuntime()
        results.append(_result_view(runtime.submit(registry.build("newsfeed", "feed"))))
    counts = schedule_memo_info()
    assert (counts["replayed"], counts["fallbacks"]) == (0, 1)
    assert results[0] == results[1] == results[2] == results[3]


def test_ineligible_submissions_simulate():
    # Dynamics, a fabric, or an engine with work queued: never replayed.
    from repro.cluster.dynamics import DynamicsConfig

    registry = default_registry()
    for make in (
        lambda: MurakkabRuntime(fabric="datacenter-3tier"),
        lambda: _with_dynamics(MurakkabRuntime(), DynamicsConfig()),
    ):
        for index in range(3):
            make().submit(registry.build("newsfeed", f"feed-{index}"))
    busy = MurakkabRuntime()
    busy.engine.schedule(1e6, lambda: None)
    busy.submit(registry.build("newsfeed", "feed-busy"))
    counts = schedule_memo_info()
    assert counts["fresh"] == 7 and counts["entries"] == 0


def _with_dynamics(runtime, config):
    runtime.attach_dynamics(config)
    return runtime


def test_placement_policies_with_state_are_not_replayed():
    from repro.policies.placement import WorkflowAwarePolicy

    class Counting(WorkflowAwarePolicy):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def choose(self, request, candidates, owned):
            self.calls += 1
            return super().choose(request, candidates, owned)

    registry = default_registry()
    for index in range(3):
        MurakkabRuntime(placement_policy=Counting()).submit(
            registry.build("newsfeed", f"feed-{index}")
        )
    assert schedule_memo_info()["fresh"] == 3


def _pools_apart(make_runtime):
    """Per session: a call on its own warm pool, the same call on a fresh
    pool while the first pool's instances stay warm, and the same call on
    a runtime where an outside owner holds four GPUs of one node or, every
    other session, of the other."""
    registry = default_registry()
    views = []
    for number in range(6):
        runtime = make_runtime()
        warm = ServerPool(runtime.cluster_manager, runtime.library)
        _submit(runtime, registry, "document-qa", None, None, f"k{number}-a", warm)
        own = _submit(runtime, registry, "document-qa", None, None, f"k{number}-b", warm)
        other = ServerPool(runtime.cluster_manager, runtime.library)
        foreign = _submit(runtime, registry, "document-qa", None, None, f"k{number}-c", other)
        held = make_runtime()
        node = ("node0", "node1")[number % 2]
        held.cluster_manager.claim(ResourceRequest("outsider", gpus=4), node)
        around = _submit(held, registry, "document-qa", None, None, f"k{number}-d", None)
        views.append(
            (
                _result_view(own),
                _result_view(foreign),
                _state_view(runtime, other),
                _result_view(around),
                _state_view(held, None),
            )
        )
    return views


def test_the_key_tells_warm_pools_and_claims_apart():
    # The call on a fresh pool sees the same claims as the call on the warm
    # pool but no handles: it must deploy its own instances around the warm
    # ones.  The calls around an outside owner plan alike on either node but
    # deploy on different GPUs.  Each may replay only its own recording.
    replayed = _pools_apart(MurakkabRuntime)
    assert schedule_memo_info()["replayed"] >= 3
    assert schedule_memo_info()["refused"] == 0
    assert replayed == _pools_apart(_never_replays)


def _slower_library():
    """The stock library with ``seconds_per_item`` doubled on each instance
    that has it: the same fingerprint, longer tasks."""
    library = default_library()
    for name in library.names():
        implementation = library.get(name)
        if hasattr(implementation, "seconds_per_item"):
            implementation.seconds_per_item *= 2
    return library


def test_libraries_that_estimate_differently_never_share_schedules():
    # Equal fingerprints, so the two libraries share templates, profiles
    # and plan decisions; only their implementations' parameters tell
    # their schedules apart.
    registry = default_registry()

    def calls(make_runtime):
        return [
            _result_view(make_runtime().submit(registry.build("newsfeed", "feed")))
            for _ in range(4)
        ]

    stock = calls(MurakkabRuntime)
    assert schedule_memo_info()["replayed"] == 1
    assert _slower_library().fingerprint() == default_library().fingerprint()
    slower = calls(lambda: MurakkabRuntime(library=_slower_library()))
    counts = schedule_memo_info()
    assert (counts["candidates"], counts["confirmed"], counts["replayed"]) == (2, 2, 3)

    def never_replays():
        runtime = MurakkabRuntime(library=_slower_library())
        runtime.executor_class = _NeverReplays
        return runtime

    assert slower == calls(never_replays)
    assert slower[-1]["fields"]["makespan_s"] > stock[-1]["fields"]["makespan_s"]


def test_a_library_with_an_unhashable_parameter_simulates():
    registry = default_registry()

    def listed_library():
        library = default_library()
        library.get("distilbert-sentiment").labels = ["positive", "negative"]
        return library

    results = [
        _result_view(
            MurakkabRuntime(library=listed_library()).submit(registry.build("newsfeed", "feed"))
        )
        for _ in range(4)
    ]
    counts = schedule_memo_info()
    assert (counts["fresh"], counts["entries"], counts["replayed"]) == (4, 0, 0)
    assert results[0] == results[3]
