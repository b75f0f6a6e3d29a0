"""Prompt templates for the orchestrator LLM.

The real system provides the agent library via the system prompt and task
descriptions via the user prompt (§3.2).  The simulated orchestrator does not
need the prompts to function, but rendering them keeps the interaction shape
faithful and lets tests assert on what the LLM would have been shown.
"""

from __future__ import annotations

from typing import Iterable, Sequence

SYSTEM_PROMPT_HEADER = (
    "You are a workflow orchestrator for a Compound AI System. "
    "Decompose the user's job into tasks, identify dependencies between "
    "them, and assign each task to one of the available agents. "
    "Respond with a DAG description and one tool call per task."
)


def render_system_prompt(agent_schema_lines: Iterable[str]) -> str:
    """System prompt: orchestration instructions plus the agent library."""
    lines = [SYSTEM_PROMPT_HEADER, "", "Available agents:"]
    for schema_line in agent_schema_lines:
        lines.append(f"- {schema_line}")
    return "\n".join(lines)


def render_user_prompt(
    description: str,
    inputs: Sequence[str],
    task_hints: Sequence[str] = (),
    constraint: str = "",
) -> str:
    """User prompt: the job description, inputs, optional hints and constraint."""
    lines = [f"Job description: {description}"]
    if inputs:
        lines.append("Inputs: " + ", ".join(str(item) for item in inputs))
    if task_hints:
        lines.append("Suggested sub-tasks:")
        for index, hint in enumerate(task_hints, start=1):
            lines.append(f"  {index}. {hint}")
    if constraint:
        lines.append(f"Constraint: {constraint}")
    return "\n".join(lines)


def estimate_token_count(text: str) -> int:
    """Crude token estimate (~0.75 tokens per word) used for cost accounting."""
    words = len(text.split())
    return max(1, int(words / 0.75))
