"""Unit tests for placement policies."""

import pytest

from repro.cluster.allocator import Allocator, ResourceRequest
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.policies.placement import (
    BestFitPolicy,
    FirstFitPolicy,
    SpreadPolicy,
    WorkflowAwarePolicy,
)


def _cluster():
    return Cluster([Node("n0", 4, 32), Node("n1", 8, 64)])


def test_first_fit_picks_first_candidate():
    allocator = Allocator(_cluster(), FirstFitPolicy())
    allocation = allocator.allocate(ResourceRequest(owner="a", gpus=1))
    assert allocation.node_id == "n0"


def test_best_fit_packs_tightest_node():
    allocator = Allocator(_cluster(), BestFitPolicy())
    allocation = allocator.allocate(ResourceRequest(owner="a", gpus=1))
    assert allocation.node_id == "n0"  # fewer free GPUs -> tighter fit


def test_best_fit_for_cpu_request_uses_core_counts():
    allocator = Allocator(_cluster(), BestFitPolicy())
    allocation = allocator.allocate(ResourceRequest(owner="a", cpu_cores=8))
    assert allocation.node_id == "n0"


def test_spread_picks_emptiest_node():
    allocator = Allocator(_cluster(), SpreadPolicy())
    allocation = allocator.allocate(ResourceRequest(owner="a", gpus=1))
    assert allocation.node_id == "n1"


def test_spread_for_cpu_request():
    allocator = Allocator(_cluster(), SpreadPolicy())
    allocation = allocator.allocate(ResourceRequest(owner="a", cpu_cores=4))
    assert allocation.node_id == "n1"


def test_workflow_aware_colocates_same_owner():
    allocator = Allocator(_cluster(), WorkflowAwarePolicy())
    first = allocator.allocate(ResourceRequest(owner="wf-a", gpus=1))
    # Make the other node strictly "tighter" so best-fit alone would pick it.
    allocator.allocate(ResourceRequest(owner="other", gpus=7))
    follow_up = allocator.allocate(ResourceRequest(owner="wf-a", cpu_cores=4))
    assert follow_up.node_id == first.node_id


def test_workflow_aware_falls_back_to_best_fit_for_new_owner():
    allocator = Allocator(_cluster(), WorkflowAwarePolicy())
    allocation = allocator.allocate(ResourceRequest(owner="newcomer", gpus=1))
    assert allocation.node_id == "n0"


def test_policies_return_none_for_no_candidates():
    for policy in (FirstFitPolicy(), BestFitPolicy(), SpreadPolicy(), WorkflowAwarePolicy()):
        assert policy.choose(ResourceRequest(owner="x", gpus=1), [], []) is None


def test_allocator_rejects_non_policy():
    with pytest.raises(TypeError):
        Allocator(_cluster(), policy="first-fit")  # type: ignore[arg-type]


def test_policy_name_property():
    assert FirstFitPolicy().name == "FirstFitPolicy"
