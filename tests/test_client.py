"""Tests for the stable client facade (``repro.client``)."""

import pytest

from repro import MurakkabClient
from repro.client import JobHandle, TraceHandle
from repro.core.constraints import Constraint, MIN_ENERGY
from repro.core.job import Job
from repro.spec import SpecError, WorkflowBuilder
from repro.workflows.newsfeed import newsfeed_spec
from repro.workloads.arrival import uniform_arrivals


@pytest.fixture(scope="module")
def client():
    instance = MurakkabClient()
    yield instance
    instance.shutdown()


# --------------------------------------------------------------------- #
# Workload forms
# --------------------------------------------------------------------- #


def test_submit_accepts_a_spec(client):
    handle = client.submit(newsfeed_spec(), job_id="client-spec")
    assert isinstance(handle, JobHandle)
    assert handle.job_id == "client-spec"
    assert handle.spec is not None and handle.spec.name == "newsfeed"
    assert handle.quality > 0
    assert "sentiment_analysis" in handle.describe_plan()
    assert handle.wait() is handle.result
    assert set(handle.metrics()) == {"makespan_s", "energy_wh", "cost", "quality"}


def test_submit_accepts_a_registered_workload_name(client):
    handle = client.submit("chain-of-thought", job_id="client-name")
    assert handle.spec is not None
    assert handle.spec.name == "chain-of-thought"
    assert handle.result.job_id == "client-name"


def test_submit_accepts_a_prebuilt_job(client):
    job = Job(description="Generate social media newsfeed for Zoe",
              quality_target=0.5, job_id="client-job")
    handle = client.submit(job)
    assert handle.job_id == "client-job"
    assert handle.spec is None


def test_submit_rejects_overrides_on_a_prebuilt_job(client):
    job = Job(description="Generate social media newsfeed for Zoe",
              quality_target=0.5, job_id="client-job-override")
    jobs_before = client.stats.jobs_completed
    with pytest.raises(ValueError, match="carries its own"):
        client.submit(job, quality_target=0.9)
    with pytest.raises(ValueError, match="carries its own"):
        client.submit(job, constraints=MIN_ENERGY)
    assert client.stats.jobs_completed == jobs_before


def test_submit_accepts_a_bare_description(client):
    handle = client.submit(
        "Generate social media newsfeed for Kim", job_id="client-desc"
    )
    assert handle.job_id == "client-desc"
    assert handle.result.makespan_s > 0


def test_submit_typod_workload_name_fails_loudly(client):
    from repro.loadgen import UnknownWorkloadError

    # A whitespace-free string reads as a workload name: a typo must raise
    # listing what exists, never silently run as a one-word description.
    with pytest.raises(UnknownWorkloadError, match="newsfeed"):
        client.submit("newsfed")
    try:
        client.submit("newsfed")
    except UnknownWorkloadError as error:
        # KeyError.__str__ would repr-quote the message; ours stays clean.
        assert str(error).startswith("unknown workload 'newsfed'")


def test_invalid_spec_fails_eagerly_without_executing(client):
    jobs_before = client.stats.jobs_completed
    with pytest.raises(SpecError):
        client.submit(
            WorkflowBuilder("bad").describe("x").stage("telepathy").build()
        )
    assert client.stats.jobs_completed == jobs_before


# --------------------------------------------------------------------- #
# Sessions
# --------------------------------------------------------------------- #


def test_session_defaults_apply_to_submissions(client):
    with client.session(
        constraints=MIN_ENERGY, quality_target=0.6, job_prefix="sess"
    ) as session:
        handle = session.submit("newsfeed")
        assert handle.job_id.startswith("sess-")
        constraint_set = handle.result.plan.constraint_set
        assert constraint_set.primary is Constraint.MIN_ENERGY
        assert constraint_set.quality_floor == 0.6
        # Per-call settings still win over the session defaults.
        explicit = session.submit("newsfeed", quality_target=0.7)
        assert explicit.result.plan.constraint_set.quality_floor == 0.7


def test_session_policy_scopes_every_submission(client):
    with client.session(policy="energy_first") as session:
        session.submit("newsfeed", job_id="sess-policy")
        assert client.service.policy is not None
        assert client.service.policy.name == "energy_first"
    # Leaving the session restores the prior control plane (here: none was
    # installed, so the byte-identical `default` bundle takes its place).
    assert client.service.policy is None or client.service.policy.name == "default"


def test_open_policy_session_does_not_leak_into_default_submissions(client):
    session = client.session(policy="energy_first")
    session.submit("chain-of-thought", job_id="leak-sess")
    assert client.service.policy.name == "energy_first"
    # A default-session submission while the policy session is still open
    # must reassert the client's base control plane, not inherit the
    # session's bundle.
    client.submit("chain-of-thought", job_id="leak-default")
    assert client.service.policy is None or client.service.policy.name == "default"
    session.close()


def test_non_lifo_session_close_never_restores_a_closed_sessions_policy(client):
    s1 = client.session(policy="latency_first")
    s1.submit("chain-of-thought", job_id="nl-1")
    s2 = client.session(policy="energy_first")
    s2.submit("chain-of-thought", job_id="nl-2")
    s1.close()
    s2.close()
    # s2 must not reinstate s1's (already closed) bundle; the surrounding
    # scope is the client's base control plane.
    assert client.service.policy is None or client.service.policy.name == "default"
    # And with s2 still open, closing s1 leaves s2's bundle in force.
    s1 = client.session(policy="latency_first")
    s1.submit("chain-of-thought", job_id="nl-3")
    s2 = client.session(policy="energy_first")
    s2.submit("chain-of-thought", job_id="nl-4")
    s1.close()
    assert client.service.policy.name == "energy_first"
    s2.close()


def test_pure_spec_client_never_builds_the_registry():
    with MurakkabClient() as scoped:
        scoped.submit(newsfeed_spec(), job_id="lazy-spec")
        assert scoped._registry is None, "explicit-spec submit must stay registry-free"
        assert "newsfeed" in scoped.workloads()  # first touch builds it
        assert scoped._registry is not None


def test_direct_service_set_policy_is_respected(client):
    # A policy installed through the public service API is not session
    # scope: default-session submissions must run under it, and closing an
    # unrelated session must not clobber it.
    installed = client.service.set_policy("latency_first")
    client.submit("chain-of-thought", job_id="direct-policy")
    assert client.service.policy is installed
    session = client.session(policy="energy_first")
    session.submit("chain-of-thought", job_id="direct-policy-sess")
    client.service.set_policy("latency_first")
    session.close()  # must not clobber the direct switch
    assert client.service.policy.name == "latency_first"
    client.service.set_policy(None)


def test_session_trace_uses_client_registry(client):
    arrivals = uniform_arrivals(count=4, interval_s=1.0, workloads=("newsfeed",))
    handle = client.submit_trace(arrivals)
    assert isinstance(handle, TraceHandle)
    assert handle.jobs == 4
    assert handle.failed_jobs == 0
    assert "newsfeed" in handle.group_counters()
    assert handle.summary()["jobs"] == 4
    assert handle.wait() is handle.report


# --------------------------------------------------------------------- #
# Registry surface
# --------------------------------------------------------------------- #


def test_register_workload_makes_spec_trace_servable(client):
    spec = (
        WorkflowBuilder("client-custom")
        .describe("Which documents discuss energy efficiency?")
        .inputs("documents", count=4)
        .stage("embedding", "Embed each document")
        .then("vector_db", "Insert the embeddings into a vector database")
        .then("question_answering", "Answer the question from the documents")
        .build()
    )
    name = client.register_workload(spec)
    assert name == "client-custom"
    assert name in client.workloads()
    assert client.workload_spec(name) == spec
    arrivals = uniform_arrivals(count=3, interval_s=1.0, workloads=(name,))
    handle = client.submit_trace(arrivals)
    assert handle.jobs == 3


def test_validate_reports_issues_without_raising(client):
    from repro.spec import StageSpec, WorkflowSpec

    bad = WorkflowSpec(
        name="bad",
        description="Generate a newsfeed",
        stages=(StageSpec(interface="text_generation", after=("missing",)),),
    )
    issues = client.validate(bad)
    assert any(issue.code == "dangling-edge" for issue in issues)
    assert client.validate(newsfeed_spec()) == []


def test_validate_covers_the_decomposition_cross_check(client):
    from repro.spec import StageSpec, WorkflowSpec

    # Structurally clean, but the prompt-less web_search stage is never
    # derived: validate() must report exactly what submit() would raise.
    dropped = WorkflowSpec(
        name="dropped",
        description="Generate a newsfeed",
        stages=(
            StageSpec(interface="sentiment_analysis",
                      prompt="Run sentiment analysis on the posts"),
            StageSpec(interface="web_search"),
            StageSpec(interface="text_generation",
                      prompt="Compose a newsfeed from the posts"),
        ),
    )
    assert dropped.issues() == []
    issues = client.validate(dropped)
    assert any(issue.code == "dropped-stage" for issue in issues)


def test_by_name_submit_shares_the_registry_corpus(client, monkeypatch):
    # Unmodified by-name submissions go through the registry factory (which
    # shares the inputs materialized once at registration); regenerating
    # the corpus per submission here would be a performance regression.
    import repro.spec.compiler as compiler

    def _boom(spec):
        raise AssertionError("by-name submit must not re-materialize inputs")

    monkeypatch.setattr(compiler, "materialize_inputs", _boom)
    handle = client.submit("newsfeed", job_id="corpus-shared")
    assert handle.job_id == "corpus-shared"
    # Constraint/quality overrides change the compiled job but never the
    # corpus: the registry's materialized inputs are still shared.
    overridden = client.submit("newsfeed", job_id="corpus-fresh", quality_target=0.8)
    assert overridden.result.plan.constraint_set.quality_floor == 0.8


def test_client_context_manager_shuts_down():
    with MurakkabClient() as scoped:
        scoped.submit("chain-of-thought", job_id="ctx")
    assert scoped.stats.jobs_completed == 1


@pytest.mark.parametrize("nodes", [None, 1], ids=["paper-testbed", "one-node"])
def test_keep_warm_session_serves_every_combination(nodes):
    """A warm pool that never gives devices back fails once idle instances
    hold every GPU; one that yields serves every (workflow, constraint,
    quality target) combination, even on a single node."""
    import itertools

    from repro.cluster.cluster import paper_testbed
    from repro.core.runtime import MurakkabRuntime
    from repro.loadgen import default_registry

    combinations = itertools.product(
        ("video-understanding", "newsfeed", "document-qa", "chain-of-thought"),
        (None, "min_latency", "min_energy", "min_cost"),
        (None, 0.9),
    )
    runtime = MurakkabRuntime(cluster=paper_testbed(node_count=nodes))
    with MurakkabClient(runtime=runtime, registry=default_registry()) as client:
        for workflow, constraint, quality in combinations:
            handle = client.submit(
                workflow,
                constraints=Constraint(constraint) if constraint else None,
                quality_target=quality,
            )
            assert handle.result.makespan_s > 0
        assert client.stats.jobs_completed == 32
