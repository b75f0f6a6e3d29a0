"""Task instances: the nodes of a workflow DAG."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.agents.base import AgentInterface, WorkUnit


class TaskState(enum.Enum):
    """Lifecycle of a task instance."""

    PENDING = "pending"
    READY = "ready"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    # Members compare by identity, so the identity hash is consistent with
    # equality and skips ``Enum.__hash__`` (a Python-level call) on the hot
    # dict and set lookups that key on task states.
    __hash__ = object.__hash__

    @property
    def is_terminal(self) -> bool:
        return self in (TaskState.COMPLETED, TaskState.FAILED, TaskState.CANCELLED)


#: Rank of each forward lifecycle state; a task never moves to a lower rank.
#: FAILED and CANCELLED are unranked: a task may enter them from any state,
#: and may leave them for any state.
_FORWARD_RANK = {
    TaskState.PENDING: 0,
    TaskState.READY: 1,
    TaskState.RUNNING: 2,
    TaskState.COMPLETED: 3,
}


@dataclass
class Task:
    """One schedulable unit of work bound to an agent interface.

    ``stage`` names the decomposition stage this task was expanded from
    (e.g. ``"speech_to_text"``); ``metadata`` carries expansion context such
    as the scene or video identity, used for dependency wiring and data-flow
    composition.
    """

    task_id: str
    description: str
    interface: AgentInterface
    work: WorkUnit
    stage: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)
    state: TaskState = TaskState.PENDING
    #: Populated by the executor.
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: How many times the task was requeued after losing its resources
    #: (spot preemption / server failure).
    retries: int = 0

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not self.stage:
            self.stage = self.interface.value

    @property
    def duration(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def requeue(self) -> None:
        """Return a dispatched task to PENDING after its resources were lost.

        The one sanctioned backwards transition: a spot preemption or server
        failure revokes the devices a READY/RUNNING task was using, so the
        executor puts it back in the queue to run again elsewhere.
        """
        if self.state is TaskState.COMPLETED:
            raise ValueError(f"cannot requeue completed task {self.task_id}")
        self.state = TaskState.PENDING
        self.started_at = None
        self.retries += 1

    def mark(self, state: TaskState) -> None:
        """Advance the task's state (no backwards transitions)."""
        current = _FORWARD_RANK.get(self.state)
        if current is not None and _FORWARD_RANK.get(state, current) < current:
            raise ValueError(
                f"cannot move task {self.task_id} from {self.state} back to {state}"
            )
        self.state = state

    def __repr__(self) -> str:
        return (
            f"Task({self.task_id!r}, {self.interface.value}, state={self.state.value})"
        )
