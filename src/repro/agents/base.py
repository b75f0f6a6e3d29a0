"""Core abstractions for agents, hardware configurations, and work units.

An *agent interface* names a capability ("speech_to_text"); an *agent
implementation* is one concrete model or tool providing it (Whisper,
FastConformer, ...).  Implementations expose:

* the hardware configurations they can run on,
* a cost model (``estimate``) mapping (work, hardware, execution mode) to a
  service time and device utilisation, and
* a functional ``execute`` producing synthetic-but-deterministic outputs so
  end-to-end examples yield real results (transcripts, detected objects,
  summaries) with a quality that reflects the implementation's fidelity.

The three knobs the Murakkab planner turns (Table 1) map onto these types:
hardware type -> :class:`HardwareConfig`, task parallelism / execution paths
-> :class:`ExecutionMode`, agent implementation -> which
:class:`AgentImplementation` is chosen.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.hardware import GpuGeneration, get_cpu_spec, get_gpu_spec


class AgentInterface(enum.Enum):
    """Capabilities a task can require (the "functionality" in the library)."""

    FRAME_EXTRACTION = "frame_extraction"
    SPEECH_TO_TEXT = "speech_to_text"
    OBJECT_DETECTION = "object_detection"
    SCENE_SUMMARIZATION = "scene_summarization"
    EMBEDDING = "embedding"
    VECTOR_DB = "vector_db"
    QUESTION_ANSWERING = "question_answering"
    SENTIMENT_ANALYSIS = "sentiment_analysis"
    WEB_SEARCH = "web_search"
    CALCULATION = "calculation"
    TEXT_GENERATION = "text_generation"

    # Members compare by identity, so the identity hash is consistent with
    # equality and skips ``Enum.__hash__`` (a Python-level call) on the
    # per-task dict lookups keyed by interface.  No output depends on hash
    # values: string hashing already differs per process.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AgentSchema:
    """Callable schema for an agent, as presented to the orchestrator LLM."""

    name: str
    interface: AgentInterface
    description: str
    parameters: Tuple[Tuple[str, str], ...] = ()

    def render(self) -> str:
        """One-line rendering used in the orchestrator LLM's system prompt."""
        params = ", ".join(f"{pname}: {ptype}" for pname, ptype in self.parameters)
        return f"{self.name}({params}) -> {self.interface.value}: {self.description}"


@dataclass(frozen=True)
class HardwareConfig:
    """A concrete resource shape an agent can run on."""

    gpus: int = 0
    gpu_generation: Optional[GpuGeneration] = None
    cpu_cores: int = 0

    def __post_init__(self) -> None:
        if self.gpus < 0 or self.cpu_cores < 0:
            raise ValueError("hardware amounts must be non-negative")
        if self.gpus == 0 and self.cpu_cores == 0:
            raise ValueError("hardware config must include at least one device")
        if self.gpus > 0 and self.gpu_generation is None:
            object.__setattr__(self, "gpu_generation", GpuGeneration.A100)

    @property
    def is_cpu_only(self) -> bool:
        return self.gpus == 0

    @property
    def is_gpu(self) -> bool:
        return self.gpus > 0

    def describe(self) -> str:
        parts = []
        if self.gpus:
            parts.append(f"{self.gpus}x{self.gpu_generation.value}")
        if self.cpu_cores:
            parts.append(f"{self.cpu_cores}xCPU")
        return "+".join(parts)

    def cost_per_hour(self) -> float:
        """Monetary cost rate (arbitrary units) of holding this config."""
        cost = 0.0
        if self.gpus:
            cost += self.gpus * get_gpu_spec(self.gpu_generation).cost_per_hour
        if self.cpu_cores:
            cost += self.cpu_cores * get_cpu_spec().cost_per_core_hour
        return cost

    def power_w(self, gpu_utilization: float, cpu_utilization: float) -> float:
        """Instantaneous draw (W) at the given utilisation levels."""
        power = 0.0
        if self.gpus:
            spec = get_gpu_spec(self.gpu_generation)
            power += self.gpus * spec.power.busy_power(gpu_utilization)
        if self.cpu_cores:
            power += self.cpu_cores * get_cpu_spec().active_w_per_core * cpu_utilization
        return power


@dataclass(frozen=True)
class ExecutionMode:
    """Execution-path levers from Table 1 (parallelism and multi-path)."""

    #: Intra-task fan-out: how many sub-chunks / batch lanes the task uses.
    intra_task_parallelism: int = 1
    #: Whether requests are batched (e.g. all frames of a scene in one call).
    batched: bool = False
    #: Number of parallel reasoning/execution paths (Chain-of-Thought top-k).
    speculative_paths: int = 1

    def __post_init__(self) -> None:
        if self.intra_task_parallelism < 1:
            raise ValueError("intra_task_parallelism must be >= 1")
        if self.speculative_paths < 1:
            raise ValueError("speculative_paths must be >= 1")

    def describe(self) -> str:
        parts = [f"par={self.intra_task_parallelism}"]
        if self.batched:
            parts.append("batched")
        if self.speculative_paths > 1:
            parts.append(f"paths={self.speculative_paths}")
        return ",".join(parts)


#: The default, most conservative execution mode (what an imperative workflow
#: with no runtime gets).
SEQUENTIAL_MODE = ExecutionMode()


@dataclass(frozen=True)
class WorkUnit:
    """A quantum of work handed to an agent.

    ``kind`` names the unit ("scene", "video", "query", "document"),
    ``quantity`` its size in those units, and ``payload`` carries synthetic
    input data (audio seconds, frames, ground-truth labels) that functional
    executions consume.
    """

    kind: str
    quantity: float = 1.0
    payload: Dict[str, object] = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        if self.quantity < 0:
            raise ValueError("quantity must be non-negative")

    def get(self, key: str, default=None):
        return self.payload.get(key, default)


@dataclass(frozen=True)
class ExecutionEstimate:
    """Predicted service time and utilisation for one task execution."""

    seconds: float
    gpu_utilization: float = 0.0
    cpu_utilization: float = 1.0

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("estimated seconds must be non-negative")
        if not 0.0 <= self.gpu_utilization <= 1.0:
            raise ValueError("gpu_utilization must be in [0, 1]")
        if not 0.0 <= self.cpu_utilization <= 1.0:
            raise ValueError("cpu_utilization must be in [0, 1]")


@dataclass
class AgentResult:
    """Functional output of an agent execution."""

    agent_name: str
    interface: AgentInterface
    output: Dict[str, object] = field(default_factory=dict)
    quality: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality must be in [0, 1]: {self.quality}")


class AgentImplementation(abc.ABC):
    """One concrete model or tool implementing an :class:`AgentInterface`."""

    #: Unique implementation name, e.g. ``"whisper"``.
    name: str = ""
    #: The capability this implementation provides.
    interface: AgentInterface
    #: Result quality in [0, 1] relative to the best known implementation.
    quality: float = 1.0
    #: Human-readable description used in the agent library schema.
    description: str = ""
    #: Implementations sharing a serving instance (e.g. NVLM summarisation and
    #: NVLM question answering run on the same 8-GPU model server) declare the
    #: same ``server_group``; ``None`` means the implementation has its own.
    server_group: Optional[str] = None
    #: Declared size (bytes) of the inter-stage payload this implementation
    #: hands to its consumers, used to size network transfer phases when a
    #: :class:`~repro.fabric.FabricTopology` is attached.  0 means a
    #: metadata-only handoff that never costs fabric time.  Deliberately NOT
    #: part of :meth:`~repro.agents.library.AgentLibrary.fingerprint`, so
    #: declaring payloads does not invalidate warm profile caches.
    output_payload_bytes: int = 0

    @property
    def deployment_group(self) -> str:
        """The serving-deployment key for this implementation."""
        return self.server_group or self.name

    # ------------------------------------------------------------------ #
    # Library metadata
    # ------------------------------------------------------------------ #
    def schema(self) -> AgentSchema:
        """Schema advertised to the orchestrator LLM for tool calling."""
        return AgentSchema(
            name=self.name,
            interface=self.interface,
            description=self.description or self.__doc__ or "",
            parameters=self.schema_parameters(),
        )

    def schema_parameters(self) -> Tuple[Tuple[str, str], ...]:
        """Override to advertise call parameters (name, type) pairs."""
        return ()

    # ------------------------------------------------------------------ #
    # Capability surface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def supported_configs(self) -> Sequence[HardwareConfig]:
        """Hardware configurations this implementation can run on."""

    def supports(self, config: HardwareConfig) -> bool:
        return config in set(self.supported_configs())

    def supported_modes(self) -> Sequence[ExecutionMode]:
        """Execution modes the implementation understands (default: sequential)."""
        return (SEQUENTIAL_MODE,)

    # ------------------------------------------------------------------ #
    # Cost model and functional execution
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def estimate(
        self,
        work: WorkUnit,
        config: HardwareConfig,
        mode: ExecutionMode = SEQUENTIAL_MODE,
    ) -> ExecutionEstimate:
        """Predict service time and utilisation for ``work`` on ``config``."""

    def execute(
        self,
        work: WorkUnit,
        config: HardwareConfig,
        mode: ExecutionMode = SEQUENTIAL_MODE,
    ) -> AgentResult:
        """Produce a functional (synthetic) result for ``work``.

        The default returns an empty payload carrying the implementation's
        quality; concrete agents override this to produce transcripts,
        detections, summaries, and so on.
        """
        return AgentResult(agent_name=self.name, interface=self.interface, quality=self.quality)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def effective_quality(self, mode: ExecutionMode = SEQUENTIAL_MODE) -> float:
        """Quality after applying execution-path effects (Table 1, row 4).

        Exploring additional speculative paths improves result quality with
        diminishing returns; parallelism and batching leave it unchanged.
        """
        quality = self.quality
        extra_paths = mode.speculative_paths - 1
        if extra_paths > 0:
            quality = quality + (1.0 - quality) * (1.0 - 0.85 ** extra_paths)
        return min(1.0, quality)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, interface={self.interface.value!r})"
