"""Vertical fragmentation of queries (Section 4 of the paper).

The fragmenter splits a (policy-rewritten) query into a chain of fragments
``Q1 .. Qj`` plus a remainder ``Qδ`` such that each fragment runs on the
lowest node of the processing hierarchy that is still capable of evaluating
it, and only the strongly reduced result ``d'`` ever reaches the cloud:

``Q(d)  →  Qδ(d')``  with  ``d' = A(Qj(...Q1(d)...))``

* :mod:`repro.fragment.capabilities` — the capability classes E1–E4 of
  Table 1,
* :mod:`repro.fragment.topology` — the node hierarchy (cloud, PC, appliances,
  sensors),
* :mod:`repro.fragment.plan` — fragment plan data structures,
* :mod:`repro.fragment.fragmenter` — the splitting algorithm.
"""

from repro.fragment.capabilities import (
    CAPABILITY_LEVELS,
    CapabilityClass,
    CapabilityLevel,
    capability_for,
    lowest_capable_level,
)
from repro.fragment.topology import Node, Topology
from repro.fragment.plan import FragmentPlan, QueryFragment
from repro.fragment.fragmenter import VerticalFragmenter

__all__ = [
    "CAPABILITY_LEVELS",
    "CapabilityClass",
    "CapabilityLevel",
    "capability_for",
    "lowest_capable_level",
    "Node",
    "Topology",
    "FragmentPlan",
    "QueryFragment",
    "VerticalFragmenter",
]
