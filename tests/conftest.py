"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.agents.library import AgentLibrary, default_library
from repro.cluster.cluster import Cluster, paper_testbed
from repro.cluster.node import Node
from repro.profiling.profiler import Profiler, clear_default_profile_store_cache
from repro.profiling.store import ProfileStore
from repro.sim.engine import SimulationEngine
from repro.workloads.video import SyntheticVideo, generate_videos


@pytest.fixture(autouse=True)
def _fresh_shared_compile_state():
    """Start every test on empty process-wide caches (profiled master
    stores, their shared planning decisions, decomposition templates, the
    job dataflow memo and spec-check verdicts), so a test that counts cache
    hits or misses, or fresh and replayed dataflows, sees the same counts in
    any order."""
    clear_default_profile_store_cache()


@pytest.fixture(scope="session")
def library() -> AgentLibrary:
    """The default agent library (session-scoped: it is immutable enough)."""
    return default_library()


@pytest.fixture(scope="session")
def profile_store(library: AgentLibrary) -> ProfileStore:
    """Profiles for every implementation in the default library."""
    return Profiler().profile_library(library)


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def cluster() -> Cluster:
    """The paper's two-node testbed."""
    return paper_testbed()


@pytest.fixture
def small_cluster() -> Cluster:
    """A deliberately tiny cluster for exercising contention paths."""
    return Cluster([Node("tiny0", gpu_count=2, cpu_cores=8)])


@pytest.fixture(scope="session")
def videos() -> list:
    """Two small synthetic videos (fewer scenes than the paper workload)."""
    return generate_videos(count=2, scenes_per_video=3, frames_per_scene=4)


@pytest.fixture(scope="session")
def paper_workload() -> list:
    """The full paper-sized workload (2 videos x 8 scenes)."""
    return generate_videos(count=2, scenes_per_video=8, frames_per_scene=10)
