"""AI Workflows-as-a-Service and quality control (paper §5).

Demonstrates the paper's forward-looking discussion in runnable form,
through the stable client facade:

1. a long-lived **AIWaaS** endpoint (one :class:`MurakkabClient`) serves
   declarative workloads, keeps models warm between them, and transparently
   adopts a newly registered speech-to-text model without any change to the
   submitted specs;
2. the **quality controller** analyses a cheap plan's quality cascade, finds
   the stage with the greatest end-to-end impact, proposes the cheapest
   single-stage upgrade that reaches a quality target, and places
   correctness checkpoints after the most load-bearing stages;
3. a **trace** of bursty arrivals is served through the batched-admission
   path in one call.

Run with::

    python examples/aiwaas_service.py
"""

from __future__ import annotations

from repro import MurakkabClient
from repro.agents.base import AgentInterface
from repro.agents.speech_to_text import _BaseSTT
from repro.core.constraints import ConstraintSet, MIN_COST
from repro.core.decomposer import JobDecomposer
from repro.core.planner import ConfigurationPlanner
from repro.core.quality import cascade_quality
from repro.core.quality_control import QualityController, plan_checkpoints
from repro.spec import compile_spec
from repro.workflows.video_understanding import video_understanding_spec


class WhisperV4(_BaseSTT):
    """A hypothetical next-generation speech-to-text model."""

    name = "whisper-v4"
    quality = 0.99
    description = "Next-generation speech-to-text (faster and more accurate)."
    gpu_seconds_per_scene = 1.2
    cpu_seconds_per_scene = 5.0


def serve_jobs(client: MurakkabClient) -> None:
    print("=== AIWaaS: serving declarative workloads ===")
    spec = video_understanding_spec()
    first = client.submit(spec, job_id="aiwaas-before")
    stt = first.result.plan.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    print(f"job 1: {first.makespan_s:.1f}s using {stt.agent_name} on {stt.config.describe()}")

    print("registering a new model: whisper-v4 (no spec changes needed)")
    client.register_agent(WhisperV4())

    second = client.submit(spec, job_id="aiwaas-after")
    stt = second.result.plan.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    print(f"job 2: {second.makespan_s:.1f}s using {stt.agent_name} on {stt.config.describe()}")
    print(f"jobs served: {client.stats.jobs_completed}, "
          f"total GPU energy {client.stats.total_energy_wh:.1f} Wh, "
          f"warm deployments: {', '.join(client.warm_agents())}")


def quality_control(client: MurakkabClient) -> None:
    print()
    print("=== Quality control (cost/quality trade-offs, checkpoints) ===")
    runtime = client.service.runtime
    job = compile_spec(video_understanding_spec(), job_id="aiwaas-quality")
    graph, _ = JobDecomposer().decompose(job)
    planner = ConfigurationPlanner(runtime.profile_store, runtime.library)
    cheap_plan = planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=0.0))
    controller = QualityController(runtime.profile_store)

    current = cascade_quality(cheap_plan.stage_qualities())
    print(f"cheapest plan end-to-end quality: {current:.3f}")
    weakest = controller.most_impactful_interface(cheap_plan)
    print(f"stage with the greatest impact:   {weakest.value}")

    proposal = controller.propose_upgrade(cheap_plan, quality_target=min(1.0, current + 0.05))
    if proposal is not None:
        print(
            f"cheapest single-stage upgrade:    {proposal.interface.value} -> "
            f"{proposal.upgraded_agent} (quality {proposal.projected_workflow_quality:.3f}, "
            f"+{proposal.extra_cost_per_unit:.4f} $-units per work unit)"
        )

    print("correctness checkpoints:")
    for checkpoint in plan_checkpoints(graph, max_checkpoints=2):
        print(f"  after {checkpoint.after_interface.value}: {checkpoint.reason}")


def serve_a_trace() -> None:
    print()
    print("=== Trace-driven serving (batched admission) ===")
    from repro.workloads.arrival import bursty_arrivals

    with MurakkabClient() as client:
        arrivals = bursty_arrivals(
            burst_rate_per_s=2.0,
            burst_duration_s=30.0,
            idle_duration_s=60.0,
            horizon_s=600.0,
            workloads=("newsfeed", "chain-of-thought"),
            seed=11,
        )
        trace = client.submit_trace(arrivals)
        report = trace.report
        print(f"served {trace.jobs} bursty arrivals "
              f"({report.simulated_jobs} simulated to steady state, "
              f"{report.replayed_jobs} accounted incrementally)")
        print(f"harness throughput: {trace.wall_jobs_per_second:,.0f} jobs/s wall-clock; "
              f"mean queue delay {report.queue_delay_s.mean:.1f}s, "
              f"mean makespan {report.makespan_s.mean:.1f}s")


def main() -> None:
    with MurakkabClient() as client:
        serve_jobs(client)
        quality_control(client)
    serve_a_trace()


if __name__ == "__main__":
    main()
