"""Multi-tenant multiplexing: Workflow A (video) + Workflow B (newsfeed).

The paper's Figure 2 motivates managing independent workflows jointly so
they can multiplex the same serving instances and idle capacity.  This
example submits the Video Understanding workflow and the "Generate social
media newsfeed for Alice" workflow to one shared cluster, and compares the
outcome with running them back to back on dedicated deployments.

Run with::

    python examples/newsfeed_multitenant.py
"""

from __future__ import annotations

from repro import MurakkabRuntime, TenantSubmission, run_submissions
from repro.experiments.multitenant import run_multitenant
from repro.workflows.newsfeed import newsfeed_job
from repro.workflows.video_understanding import video_understanding_job


def main() -> None:
    print("=== One shared cluster, two tenants ===")
    report = run_submissions(
        MurakkabRuntime(),
        [
            TenantSubmission(arrival_time=0.0, job=video_understanding_job(job_id="workflow-a")),
            TenantSubmission(arrival_time=5.0, job=newsfeed_job(user="Alice", job_id="workflow-b")),
        ]
    )
    for job_id, result in report.job_results.items():
        print(f"{job_id}: {result.makespan_s:.1f} s, quality {result.quality:.2f}")
    print(f"batch completed in {report.batch_makespan_s:.1f} s "
          f"using {report.provisioned_gpus} provisioned GPUs")
    print(f"cluster GPU energy for the batch: {report.total_energy_wh:.1f} Wh")
    print()
    print("Newsfeed output:")
    print(" ", report.job_results["workflow-b"].output.get("text", "(none)"))

    print()
    print("=== Dedicated-serial vs multiplexed comparison ===")
    print(run_multitenant().render())


if __name__ == "__main__":
    main()
