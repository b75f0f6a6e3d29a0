"""The agent library: a registry of implementations keyed by interface.

The orchestrator consults the library for task-to-agent mapping and renders
its schemas into the orchestrator LLM's system prompt (§3.2 "Task-to-Agent
Mapping").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.agents.base import AgentImplementation, AgentInterface, AgentSchema


class AgentLibrary:
    """Registry of :class:`AgentImplementation` objects."""

    def __init__(self, implementations: Iterable[AgentImplementation] = ()) -> None:
        self._by_name: Dict[str, AgentImplementation] = {}
        self._by_interface: Dict[AgentInterface, List[AgentImplementation]] = {}
        self._fingerprint: Optional[Tuple] = None
        for implementation in implementations:
            self.register(implementation)

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def register(self, implementation: AgentImplementation) -> AgentImplementation:
        """Add an implementation.  Names must be unique."""
        if not implementation.name:
            raise ValueError("implementation must have a non-empty name")
        if implementation.name in self._by_name:
            raise ValueError(f"agent {implementation.name!r} already registered")
        self._by_name[implementation.name] = implementation
        self._by_interface.setdefault(implementation.interface, []).append(implementation)
        self._fingerprint = None
        return implementation

    def unregister(self, name: str) -> AgentImplementation:
        """Remove an implementation by name (e.g. deprecation of a model)."""
        implementation = self.get(name)
        del self._by_name[name]
        self._by_interface[implementation.interface].remove(implementation)
        if not self._by_interface[implementation.interface]:
            del self._by_interface[implementation.interface]
        self._fingerprint = None
        return implementation

    def get(self, name: str) -> AgentImplementation:
        """Look up an implementation by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown agent {name!r}; registered: {sorted(self._by_name)}"
            ) from None

    def implementations_for(self, interface: AgentInterface) -> List[AgentImplementation]:
        """All implementations providing ``interface`` (possibly empty)."""
        return list(self._by_interface.get(interface, []))

    def interfaces(self) -> List[AgentInterface]:
        return list(self._by_interface.keys())

    def groups_serving(self, demand: Mapping[str, int]) -> Dict[str, Set[str]]:
        """Interface value -> the deployment groups of its implementations,
        for each interface with pending tasks in ``demand`` (announced
        demand, keyed by interface value)."""
        return {
            interface.value: {impl.deployment_group for impl in implementations}
            for interface, implementations in self._by_interface.items()
            if demand.get(interface.value, 0) > 0
        }

    def names(self) -> List[str]:
        return sorted(self._by_name)

    def schemas(self) -> List[AgentSchema]:
        """Schemas of every implementation (for the orchestrator LLM prompt)."""
        return [impl.schema() for impl in self._by_name.values()]

    def render_system_prompt(self) -> str:
        """The agent-library portion of the orchestrator LLM system prompt."""
        lines = ["You can call the following agents:"]
        for schema in self.schemas():
            lines.append(f"- {schema.render()}")
        return "\n".join(lines)

    def fingerprint(self) -> Tuple:
        """A hashable digest of the library's profiling-relevant contents.

        Two libraries with the same fingerprint produce identical profile
        stores (same implementations, qualities, supported configurations and
        modes), so profiling results can be memoized across runtime instances
        keyed by this value.  Registering or unregistering an implementation
        changes the fingerprint.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        entries = []
        for name in sorted(self._by_name):
            implementation = self._by_name[name]
            entries.append(
                (
                    name,
                    type(implementation).__qualname__,
                    implementation.interface.value,
                    implementation.quality,
                    implementation.server_group,
                    tuple(implementation.supported_configs()),
                    tuple(implementation.supported_modes()),
                )
            )
        self._fingerprint = tuple(entries)
        return self._fingerprint

    def best_quality_for(self, interface: AgentInterface) -> Optional[AgentImplementation]:
        """Highest-quality implementation of ``interface``, or ``None``."""
        implementations = self.implementations_for(interface)
        if not implementations:
            return None
        return max(implementations, key=lambda impl: impl.quality)


def default_library() -> AgentLibrary:
    """The library used throughout the paper's evaluation scenarios.

    Contains every agent referenced in Figures 1-2 and §4: frame extraction,
    three speech-to-text models, two object detectors, LLM summarisation /
    question answering / text generation, embeddings, a vector database,
    sentiment analysis, web search, and a calculator tool.
    """
    # Imported lazily so that library.py does not depend on every concrete
    # agent module at import time (and to avoid circular imports in tests
    # that build tiny custom libraries).
    from repro.agents.frame_extractor import OpenCVFrameExtractor
    from repro.agents.speech_to_text import DeepSpeechSTT, FastConformerSTT, WhisperSTT
    from repro.agents.object_detection import ClipDetector, SigLipDetector
    from repro.agents.summarizer import LlamaSummarizer, NvlmSummarizer
    from repro.agents.embeddings import MiniLmEmbedder, NvlmEmbedder
    from repro.agents.vectordb import InMemoryVectorDB
    from repro.agents.question_answering import LlamaAnswerer, NvlmAnswerer
    from repro.agents.sentiment import DistilBertSentiment, LlamaSentiment
    from repro.agents.web_search import WebSearchTool
    from repro.agents.calculator import CalculatorTool
    from repro.agents.text_generation import GptTextGenerator, LlamaTextGenerator

    return AgentLibrary(
        [
            OpenCVFrameExtractor(),
            WhisperSTT(),
            FastConformerSTT(),
            DeepSpeechSTT(),
            ClipDetector(),
            SigLipDetector(),
            NvlmSummarizer(),
            LlamaSummarizer(),
            NvlmEmbedder(),
            MiniLmEmbedder(),
            InMemoryVectorDB(),
            NvlmAnswerer(),
            LlamaAnswerer(),
            DistilBertSentiment(),
            LlamaSentiment(),
            WebSearchTool(),
            CalculatorTool(),
            GptTextGenerator(),
            LlamaTextGenerator(),
        ]
    )
