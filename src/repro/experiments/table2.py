"""Table 2: energy and execution time of each Speech-to-Text configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.baselines.omagent import OmAgentBaseline
from repro.core.constraints import MIN_COST
from repro.core.job import JobResult
from repro.core.runtime import MurakkabRuntime
from repro.experiments.configs import paper_quality_target, stt_override
from repro.spec import compile_spec
from repro.telemetry.energy_report import build_table2_rows, render_table2
from repro.workflows.video_understanding import video_understanding_spec
from repro.workloads.video import SyntheticVideo, paper_videos


@dataclass
class Table2Results:
    """Results for every row of Table 2 plus Murakkab's own MIN_COST choice."""

    results: Dict[str, JobResult] = field(default_factory=dict)
    #: The configuration label Murakkab selects when left to satisfy MIN_COST
    #: on its own (the paper: it picks the CPU configuration).
    autonomous_choice: str = ""

    def render(self) -> str:
        return render_table2(build_table2_rows(self.results))

    def energy_wh(self, label: str) -> float:
        return self.results[label].energy_wh

    def time_s(self, label: str) -> float:
        return self.results[label].makespan_s


def _run_murakkab_config(
    label: str,
    stt_config: Optional[str],
    videos: Sequence[SyntheticVideo],
    quality_target: float,
) -> JobResult:
    runtime = MurakkabRuntime()
    job = compile_spec(
        video_understanding_spec(constraints=MIN_COST, quality_target=quality_target),
        inputs=videos,
        job_id=f"video-understanding-{label}",
    )
    overrides = stt_override(stt_config) if stt_config else None
    return runtime.submit(job, overrides=overrides)


def run_table2(videos: Optional[Sequence[SyntheticVideo]] = None) -> Table2Results:
    """Run the baseline and the three Murakkab STT configurations."""
    videos = list(videos) if videos is not None else paper_videos()
    quality_target = paper_quality_target()
    results: Dict[str, JobResult] = {}

    baseline = OmAgentBaseline()
    results["baseline"] = baseline.run(inputs=videos)

    results["murakkab-cpu"] = _run_murakkab_config("cpu", "cpu", videos, quality_target)
    results["murakkab-gpu"] = _run_murakkab_config("gpu", "gpu", videos, quality_target)
    results["murakkab-gpu+cpu"] = _run_murakkab_config(
        "gpu-cpu", "gpu+cpu", videos, quality_target
    )

    # Murakkab's own selection under MIN_COST (no override): the paper reports
    # it chooses the CPU configuration.
    auto = _run_murakkab_config("auto", None, videos, quality_target)
    stt_assignment = auto.plan.primary_assignment  # type: ignore[union-attr]
    from repro.agents.base import AgentInterface  # local import to avoid cycle at module load

    chosen = stt_assignment(AgentInterface.SPEECH_TO_TEXT)
    if chosen.config.gpus and chosen.config.cpu_cores:
        autonomous = "murakkab-gpu+cpu"
    elif chosen.config.gpus:
        autonomous = "murakkab-gpu"
    else:
        autonomous = "murakkab-cpu"
    return Table2Results(results=results, autonomous_choice=autonomous)
