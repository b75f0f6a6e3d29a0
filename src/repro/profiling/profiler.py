"""The profiler: cost-model sweeps over configurations and modes."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.agents.base import (
    AgentImplementation,
    AgentInterface,
    ExecutionMode,
    HardwareConfig,
    WorkUnit,
)
from repro.agents.library import AgentLibrary
from repro.agents.profiles import ExecutionProfile, ProfileKey, build_profile
from repro.profiling.store import ProfileStore

#: Reference work units used to normalise profiles per interface.  One scene,
#: one video, one query, one item — matching the granularity at which the
#: runtime dispatches tasks.
REFERENCE_WORK_UNITS: Dict[AgentInterface, WorkUnit] = {
    AgentInterface.FRAME_EXTRACTION: WorkUnit(kind="video", quantity=1.0),
    AgentInterface.SPEECH_TO_TEXT: WorkUnit(kind="scene", quantity=1.0),
    AgentInterface.OBJECT_DETECTION: WorkUnit(kind="scene", quantity=1.0),
    AgentInterface.SCENE_SUMMARIZATION: WorkUnit(kind="scene", quantity=1.0),
    AgentInterface.EMBEDDING: WorkUnit(kind="scene", quantity=1.0),
    AgentInterface.VECTOR_DB: WorkUnit(kind="item", quantity=1.0),
    AgentInterface.QUESTION_ANSWERING: WorkUnit(kind="query", quantity=1.0),
    AgentInterface.SENTIMENT_ANALYSIS: WorkUnit(kind="item", quantity=1.0),
    AgentInterface.WEB_SEARCH: WorkUnit(kind="query", quantity=1.0),
    AgentInterface.CALCULATION: WorkUnit(kind="expression", quantity=1.0),
    AgentInterface.TEXT_GENERATION: WorkUnit(kind="item", quantity=1.0),
}


class Profiler:
    """Builds execution profiles for agent implementations."""

    def __init__(
        self,
        reference_work: Optional[Dict[AgentInterface, WorkUnit]] = None,
    ) -> None:
        self.reference_work = dict(REFERENCE_WORK_UNITS)
        if reference_work:
            self.reference_work.update(reference_work)

    def profile_implementation(
        self, implementation: AgentImplementation
    ) -> List[ExecutionProfile]:
        """Profile every (config, mode) pair the implementation supports."""
        work = self.reference_work.get(implementation.interface)
        if work is None:
            raise KeyError(
                f"no reference work unit for interface {implementation.interface!r}"
            )
        profiles: List[ExecutionProfile] = []
        for config in implementation.supported_configs():
            for mode in implementation.supported_modes():
                profiles.append(self.profile_one(implementation, config, mode, work))
        return profiles

    def profile_one(
        self,
        implementation: AgentImplementation,
        config: HardwareConfig,
        mode: ExecutionMode,
        work: Optional[WorkUnit] = None,
    ) -> ExecutionProfile:
        """Profile a single (implementation, config, mode) triple."""
        if work is None:
            work = self.reference_work[implementation.interface]
        estimate = implementation.estimate(work, config, mode)
        key = ProfileKey(agent_name=implementation.name, config=config, mode=mode)
        return build_profile(
            key=key,
            interface=implementation.interface,
            estimate=estimate,
            quality=implementation.effective_quality(mode),
        )

    def profile_library(self, library: AgentLibrary) -> ProfileStore:
        """Profile every implementation in ``library`` into a new store."""
        global _sweep_count
        _sweep_count += 1
        store = ProfileStore()
        for name in library.names():
            implementation = library.get(name)
            for profile in self.profile_implementation(implementation):
                store.add(profile)
        return store

    def profile_implementations(
        self, implementations: Iterable[AgentImplementation]
    ) -> ProfileStore:
        """Profile an explicit set of implementations into a new store."""
        store = ProfileStore()
        for implementation in implementations:
            for profile in self.profile_implementation(implementation):
                store.add(profile)
        return store


#: Full library profiling sweeps performed by this process — the cold-start
#: cost the persistent warm cache (``repro.warmstate``) exists to avoid.
#: Tests assert a warm-started service leaves this counter flat.
_sweep_count = 0


def profiling_sweep_count() -> int:
    """How many full library profiling sweeps this process has run."""
    return _sweep_count


#: Memoized master stores keyed by library fingerprint, each with the
#: planning-decision cache its unmodified copies share; the cache holds at
#: most this many distinct library shapes before evicting the oldest.
_STORE_CACHE_MAX = 32
_store_cache: "Dict[tuple, Tuple[ProfileStore, dict]]" = {}


def default_profile_store(library: Optional[AgentLibrary] = None) -> ProfileStore:
    """A profile store for ``library``, reusing profiling work across calls.

    Profiling the full default library is the dominant cost of constructing a
    :class:`~repro.core.runtime.MurakkabRuntime`; the paper's §3.3 requires
    the system's own overheads to stay negligible, so repeated constructions
    over an identical library must not re-profile it.  Results are memoized
    by :meth:`AgentLibrary.fingerprint`, and every call returns an
    *independent copy* of the cached master store: mutating one runtime's
    store (e.g. via the service's profile hot-swap endpoints) never leaks
    into other runtimes sharing the same library shape.

    Every copy of one master also carries that master's planning-decision
    cache (:meth:`ProfileStore.shared_decisions`): planners over unmodified
    copies hold equal profiles, so a decision one runtime made is the
    decision any other would make under the same key.  A copy detaches from
    it on its first mutation.
    """
    if library is None:
        from repro.agents.library import default_library

        library = default_library()
    fingerprint = library.fingerprint()
    entry = _store_cache.get(fingerprint)
    if entry is None:
        entry = (Profiler().profile_library(library), {})
        if len(_store_cache) >= _STORE_CACHE_MAX:
            _store_cache.pop(next(iter(_store_cache)))
        _store_cache[fingerprint] = entry
    master, decisions = entry
    return master.copy(shared_decisions=decisions)


def clear_default_profile_store_cache() -> None:
    """Drop everything runtimes in this process share: the memoized master
    stores and their planning-decision caches, the decomposition template
    memo, the job dataflow and schedule memos (and their counters), and the
    spec-check verdicts.

    Used for test isolation and to make a benchmark's set-up pay a cold
    start.  The shared caches are emptied in place, so a runtime that is
    still alive keeps working and simply recompiles what it needs.
    """
    from repro.core.dataflow import clear_dataflow_memo
    from repro.core.decomposer import clear_shared_templates
    from repro.core.schedule import clear_schedule_memo
    from repro.spec.compiler import clear_spec_checks

    for _master, decisions in _store_cache.values():
        decisions.clear()
    _store_cache.clear()
    clear_shared_templates()
    clear_dataflow_memo()
    clear_schedule_memo()
    clear_spec_checks()
