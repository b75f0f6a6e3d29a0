"""Ablation: how much each Murakkab lever contributes to the end-to-end gain.

The paper attributes Murakkab's gains to three optimisations (§4): DAG-level
parallelism across scenes, intra-scene (batched) summarisation, and the
profile-driven Speech-to-Text configuration choice.  This harness enables
them cumulatively to show each lever's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.agents.base import AgentInterface, HardwareConfig, SEQUENTIAL_MODE
from repro.baselines.omagent import OmAgentBaseline
from repro.core.constraints import MIN_COST
from repro.core.job import JobResult
from repro.core.planner import PlannerOverride
from repro.core.runtime import MurakkabRuntime
from repro.experiments.configs import paper_quality_target, stt_override
from repro.policies import PolicyBundle, get_bundle, pinned_bundle
from repro.spec import compile_spec
from repro.telemetry.reporting import render_table
from repro.workflows.video_understanding import video_understanding_spec
from repro.workloads.video import SyntheticVideo, paper_videos


@dataclass
class AblationStep:
    """One cumulative configuration of the ablation."""

    label: str
    makespan_s: float
    energy_wh: float
    cost: float

    def as_cells(self) -> List[str]:
        return [
            self.label,
            f"{self.makespan_s:.1f}",
            f"{self.energy_wh:.1f}",
            f"{self.cost:.4f}",
        ]


def ablation_bundles() -> List[Tuple[str, PolicyBundle]]:
    """The cumulative ablation levers, each expressed as a policy bundle.

    Every lever is the ``default`` control plane with progressively fewer
    pinned choices: pinning lives in the bundle, so the levers run through
    exactly the entry points production jobs use (``MurakkabRuntime(policy=...)``)
    instead of hand-threading override dicts per call site.
    """
    # DAG parallelism only: Murakkab scheduling, but summarisation stays
    # frame-by-frame (sequential mode) and STT stays on the baseline GPU.
    dag_only = dict(stt_override("gpu"))
    dag_only[AgentInterface.SCENE_SUMMARIZATION] = PlannerOverride(
        agent_name="nvlm-summarizer",
        config=HardwareConfig(gpus=8),
        mode=SEQUENTIAL_MODE,
    )
    return [
        (
            "+ DAG parallelism across scenes",
            pinned_bundle("dag-parallelism", dag_only),
        ),
        (
            "+ batched intra-scene summarisation",
            pinned_bundle("batched-summaries", stt_override("gpu")),
        ),
        (
            "+ profile-driven STT configuration (MIN_COST)",
            get_bundle("default"),
        ),
    ]


def _murakkab_result(
    videos: Sequence[SyntheticVideo], bundle: PolicyBundle, label: str
) -> JobResult:
    runtime = MurakkabRuntime(policy=bundle)
    job = compile_spec(
        video_understanding_spec(
            constraints=MIN_COST,
            quality_target=paper_quality_target(),
        ),
        inputs=videos,
        job_id=f"ablation-{label}",
    )
    return runtime.submit(job)


def run_ablation(videos: Optional[Sequence[SyntheticVideo]] = None) -> List[AblationStep]:
    """Run the cumulative ablation and return one step per configuration."""
    videos = list(videos) if videos is not None else paper_videos()
    steps: List[AblationStep] = []

    baseline = OmAgentBaseline().run(inputs=videos)
    steps.append(
        AblationStep(
            label="imperative baseline (sequential)",
            makespan_s=baseline.makespan_s,
            energy_wh=baseline.energy_wh,
            cost=baseline.cost,
        )
    )

    for label, bundle in ablation_bundles():
        result = _murakkab_result(videos, bundle, bundle.name)
        steps.append(
            AblationStep(
                label=label,
                makespan_s=result.makespan_s,
                energy_wh=result.energy_wh,
                cost=result.cost,
            )
        )
    return steps


def render_ablation(steps: List[AblationStep]) -> str:
    return render_table(
        ["Configuration", "Time (s)", "GPU Energy (Wh)", "Cost"],
        [step.as_cells() for step in steps],
    )
