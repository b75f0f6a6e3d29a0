"""A queryable store of execution profiles.

Selection queries are served from incrementally-maintained indexes:

* per-interface profile maps (insertion-ordered, so behaviour matches the
  original list-backed store exactly),
* lazily-built, per-``(interface, objective)`` ranked lists kept sorted on
  ``add`` via bisection,
* a cached Pareto front per interface.

Every mutation bumps :attr:`ProfileStore.version`, which planners use to
invalidate their own derived caches.  An unmodified copy of a memoized
master store (``default_profile_store``) also carries that master's
planning-decision cache, which every planner over such a copy shares.
"""

from __future__ import annotations

from bisect import insort_right
from typing import Callable, Dict, List, Optional, Tuple

from repro.agents.base import AgentInterface
from repro.agents.profiles import ExecutionProfile, ProfileKey


def _objective_sort_key(objective: str) -> Callable[[ExecutionProfile], tuple]:
    def key(profile: ExecutionProfile) -> tuple:
        return (
            profile.objective_value(objective),
            -profile.quality,
            profile.latency_s,
            profile.energy_wh,
        )

    return key


class ProfileStore:
    """Holds :class:`ExecutionProfile` objects and answers selection queries."""

    def __init__(self) -> None:
        self._by_key: Dict[ProfileKey, ExecutionProfile] = {}
        self._by_interface: Dict[AgentInterface, Dict[ProfileKey, ExecutionProfile]] = {}
        self._keys_by_agent: Dict[str, Dict[ProfileKey, None]] = {}
        #: (interface, objective) -> profiles sorted best-first.  Built on
        #: first query, then maintained incrementally by ``add``.
        self._rank_index: Dict[Tuple[AgentInterface, str], List[ExecutionProfile]] = {}
        self._pareto_cache: Dict[AgentInterface, List[ExecutionProfile]] = {}
        self._version = 0
        self._shared_decisions: Optional[dict] = None

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: ProfileKey) -> bool:
        return key in self._by_key

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by ``add``/``remove_agent``).

        Consumers that cache derived results (e.g. the configuration
        planner's plan cache) compare versions to detect staleness.
        """
        return self._version

    def shared_decisions(self) -> Optional[dict]:
        """The planning-decision cache planners over this store share, or
        ``None`` when they must keep a private one.

        Only a copy of a memoized master store shares, and only while it is
        unmodified (version 0): the first ``add``/``remove_agent`` makes its
        profiles differ from the master's, so its planners detach.
        """
        return self._shared_decisions if self._version == 0 else None

    def add(self, profile: ExecutionProfile) -> ExecutionProfile:
        """Add or replace the profile for its key."""
        existing = self._by_key.get(profile.key)
        if existing is not None:
            self._evict(existing)
        self._by_key[profile.key] = profile
        self._by_interface.setdefault(profile.interface, {})[profile.key] = profile
        self._keys_by_agent.setdefault(profile.agent_name, {})[profile.key] = None
        for (interface, objective), ranked in self._rank_index.items():
            if interface is profile.interface:
                insort_right(ranked, profile, key=_objective_sort_key(objective))
        self._pareto_cache.pop(profile.interface, None)
        self._version += 1
        return profile

    def remove_agent(self, agent_name: str) -> int:
        """Drop every profile belonging to ``agent_name`` (model retirement).

        Returns the number of profiles removed.
        """
        keys = self._keys_by_agent.pop(agent_name, None)
        if not keys:
            return 0
        for key in keys:
            profile = self._by_key.pop(key)
            self._evict(profile, drop_agent_key=False)
        self._version += 1
        return len(keys)

    def _evict(self, profile: ExecutionProfile, drop_agent_key: bool = True) -> None:
        """Remove ``profile`` from every index (not from ``_by_key``)."""
        interface = profile.interface
        by_interface = self._by_interface.get(interface)
        if by_interface is not None:
            by_interface.pop(profile.key, None)
            if not by_interface:
                del self._by_interface[interface]
        if drop_agent_key:
            agent_keys = self._keys_by_agent.get(profile.agent_name)
            if agent_keys is not None:
                agent_keys.pop(profile.key, None)
                if not agent_keys:
                    del self._keys_by_agent[profile.agent_name]
        # Removal from a sorted list is O(n); invalidate instead and let the
        # next query rebuild (adds stay incremental, which is the hot case).
        for index_key in [k for k in self._rank_index if k[0] is interface]:
            del self._rank_index[index_key]
        self._pareto_cache.pop(interface, None)

    def get(self, key: ProfileKey) -> ExecutionProfile:
        try:
            return self._by_key[key]
        except KeyError:
            raise KeyError(f"no profile for {key.describe()}") from None

    def profiles_for(
        self,
        interface: AgentInterface,
        agent_name: Optional[str] = None,
    ) -> List[ExecutionProfile]:
        """All profiles for an interface, optionally restricted to one agent."""
        profiles = self._by_interface.get(interface)
        if profiles is None:
            return []
        if agent_name is not None:
            return [p for p in profiles.values() if p.agent_name == agent_name]
        return list(profiles.values())

    def interfaces(self) -> List[AgentInterface]:
        return list(self._by_interface.keys())

    def copy(self, shared_decisions: Optional[dict] = None) -> "ProfileStore":
        """An independent store holding the same (immutable) profiles.

        Only the primary indexes are duplicated (profiles themselves are
        frozen and safely shared); derived indexes rebuild lazily.  The copy
        starts at version 0 and shares ``shared_decisions`` (see
        :meth:`shared_decisions`); the default is a private decision cache.
        """
        duplicate = ProfileStore()
        duplicate._shared_decisions = shared_decisions
        duplicate._by_key = dict(self._by_key)
        duplicate._by_interface = {
            interface: dict(profiles) for interface, profiles in self._by_interface.items()
        }
        duplicate._keys_by_agent = {
            agent: dict(keys) for agent, keys in self._keys_by_agent.items()
        }
        return duplicate

    # ------------------------------------------------------------------ #
    # Selection queries (used by the planner)
    # ------------------------------------------------------------------ #
    def _ranked(self, interface: AgentInterface, objective: str) -> List[ExecutionProfile]:
        """The maintained best-first list for ``(interface, objective)``."""
        index_key = (interface, objective)
        ranked = self._rank_index.get(index_key)
        if ranked is None:
            ranked = sorted(
                self._by_interface.get(interface, {}).values(),
                key=_objective_sort_key(objective),
            )
            self._rank_index[index_key] = ranked
        return ranked

    def best(
        self,
        interface: AgentInterface,
        objective: str,
        quality_floor: float = 0.0,
        feasible: Optional[Callable[[ExecutionProfile], bool]] = None,
        agent_name: Optional[str] = None,
    ) -> Optional[ExecutionProfile]:
        """Best profile for ``interface`` under ``objective``.

        ``quality_floor`` excludes profiles below the target quality (the
        paper: "maximize efficiency while meeting the target quality");
        ``feasible`` lets the caller exclude profiles whose resources are not
        currently available (resource-aware orchestration).
        """
        for profile in self._ranked(interface, objective):
            if profile.quality < quality_floor:
                continue
            if agent_name is not None and profile.agent_name != agent_name:
                continue
            if feasible is not None and not feasible(profile):
                continue
            return profile
        return None

    def rank(
        self,
        interface: AgentInterface,
        objective: str,
        quality_floor: float = 0.0,
    ) -> List[ExecutionProfile]:
        """Profiles for ``interface`` ordered best-first under ``objective``."""
        return [
            p for p in self._ranked(interface, objective) if p.quality >= quality_floor
        ]

    def pareto_front(self, interface: AgentInterface) -> List[ExecutionProfile]:
        """Profiles not dominated on (cost, latency, energy, -quality)."""
        front = self._pareto_cache.get(interface)
        if front is None:
            candidates = self.profiles_for(interface)
            front = [
                p
                for p in candidates
                if not any(other.dominates(p) for other in candidates if other is not p)
            ]
            self._pareto_cache[interface] = front
        return list(front)

    def all_profiles(self) -> List[ExecutionProfile]:
        return list(self._by_key.values())
