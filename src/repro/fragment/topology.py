"""The node hierarchy of the smart environment.

Figure 3 of the paper shows the peer chain: sensors feed appliances, which
feed the apartment PC (local server), which feeds the provider's cloud.  A
:class:`Topology` models that hierarchy together with node capacities; the
PArADISE processor walks it bottom-up when executing a fragment plan.

Topologies may be *chains* (the seed behaviour: one node per hop) or *trees*
(many sibling sensors feeding a shared appliance, many appliances feeding the
apartment PC).  Every node has at most one parent; the most powerful node
(the cloud) is the root.  When nodes carry no explicit ``parent``, a chain is
derived: each node feeds the nearest strictly more powerful node, which keeps
every pre-tree caller working unchanged.  The parallel fragment runtime
(:mod:`repro.runtime`) partitions the bottom fragment across sibling leaves
and merges the partials at their common ancestor.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.fragment.capabilities import CapabilityClass, CapabilityLevel, capability_for


@dataclass
class Node:
    """One processing node of the vertical architecture."""

    name: str
    level: CapabilityLevel
    #: Relative CPU power; defaults to the level's typical power.
    cpu_power: Optional[float] = None
    #: Free main memory in MB, used for the preprocessor's capacity check.
    free_memory_mb: float = 512.0
    #: True when the node sits inside the user's apartment (its output never
    #: "leaves the apartment"; only the edge towards the cloud is counted as
    #: leaving).
    inside_apartment: bool = True
    #: Name of the node this one feeds.  ``None`` means "derive from the
    #: chain order" (every node feeds the nearest more powerful node); the
    #: root's derived parent is itself absent.
    parent: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cpu_power is None:
            self.cpu_power = capability_for(self.level).relative_power

    @property
    def capability(self) -> CapabilityClass:
        """The node's capability class."""
        return capability_for(self.level)

    def can_hold_rows(self, rows: int, bytes_per_row: float = 64.0) -> bool:
        """Capacity check: do ``rows`` fit into the node's free memory?"""
        return rows * bytes_per_row / (1024.0 * 1024.0) <= self.free_memory_mb


class Topology:
    """A processing hierarchy from the sensors up to the cloud.

    Nodes are kept ordered from the least powerful (sensor) to the most
    powerful (cloud); within one capability level the caller's order is
    preserved, which also fixes the deterministic partition/merge order the
    parallel runtime relies on.
    """

    def __init__(self, nodes: Iterable[Node]) -> None:
        self._nodes = list(nodes)
        if not self._nodes:
            raise ValueError("Topology requires at least one node")
        # Order from the least powerful (sensor) to the most powerful (cloud).
        self._nodes.sort(key=lambda node: int(node.level), reverse=True)
        names = [node.name for node in self._nodes]
        if len(names) != len(set(names)):
            raise ValueError("Node names must be unique")
        self._by_name: Dict[str, Node] = {node.name: node for node in self._nodes}
        self._parents: Dict[str, Optional[str]] = self._resolve_parents()
        self._children: Dict[str, List[str]] = {node.name: [] for node in self._nodes}
        for name, parent in self._parents.items():
            if parent is not None:
                self._children[parent].append(name)
        # Liveness: nodes declared dead by the fault-tolerant runtime, in
        # death order.  Structure (parents/children) is immutable; liveness
        # is the only mutable state, guarded by its own lock because the
        # scheduler marks nodes dead from worker threads.
        self._dead: List[str] = []
        self._liveness_lock = threading.Lock()

    def _resolve_parents(self) -> Dict[str, Optional[str]]:
        """Validate explicit parent links and derive the rest chain-style."""
        parents: Dict[str, Optional[str]] = {}
        for index, node in enumerate(self._nodes):
            if node.parent is not None:
                if node.parent not in self._by_name:
                    raise ValueError(
                        f"Node {node.name!r} names unknown parent {node.parent!r}"
                    )
                parent_node = self._by_name[node.parent]
                # Data flows towards strictly more powerful nodes only.
                if int(parent_node.level) >= int(node.level):
                    raise ValueError(
                        f"Node {node.name!r} cannot feed {node.parent!r}: "
                        "parents must be strictly more powerful"
                    )
                parents[node.name] = node.parent
                continue
            # Derived chain: feed the nearest strictly more powerful node.
            parent_name: Optional[str] = None
            for candidate in self._nodes[index + 1 :]:
                if int(candidate.level) < int(node.level):
                    parent_name = candidate.name
                    break
            parents[node.name] = parent_name
        roots = [name for name, parent in parents.items() if parent is None]
        if len(roots) != 1:
            raise ValueError(f"Topology must have exactly one root, got {roots}")
        return parents

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def default_chain(
        cls,
        sensor_count: int = 1,
        appliance_count: int = 1,
        cloud_memory_mb: float = 1024 * 64,
    ) -> "Topology":
        """The canonical chain of Figure 3: sensors → appliance(s) → PC → cloud."""
        nodes: List[Node] = []
        for index in range(sensor_count):
            nodes.append(
                Node(
                    name=f"sensor_{index}" if sensor_count > 1 else "sensor",
                    level=CapabilityLevel.E4_SENSOR,
                    free_memory_mb=1.0,
                )
            )
        for index in range(appliance_count):
            nodes.append(
                Node(
                    name=f"appliance_{index}" if appliance_count > 1 else "appliance",
                    level=CapabilityLevel.E3_APPLIANCE,
                    free_memory_mb=256.0,
                )
            )
        nodes.append(Node(name="pc", level=CapabilityLevel.E2_PC, free_memory_mb=8192.0))
        nodes.append(
            Node(
                name="cloud",
                level=CapabilityLevel.E1_CLOUD,
                free_memory_mb=cloud_memory_mb,
                inside_apartment=False,
            )
        )
        return cls(nodes)

    @classmethod
    def smart_home_tree(
        cls,
        n_sensors: int = 8,
        sensors_per_appliance: int = 4,
        cloud_memory_mb: float = 1024 * 64,
        sensor_memory_mb: float = 1.0,
    ) -> "Topology":
        """The tree of Figure 3: many sensors feed shared appliances.

        ``n_sensors`` leaf sensors are grouped under
        ``ceil(n_sensors / sensors_per_appliance)`` appliances; every
        appliance feeds the apartment PC, which feeds the cloud.  Sensor and
        appliance order is the partition order the parallel runtime uses, so
        it is deterministic by construction.
        """
        if n_sensors < 1:
            raise ValueError("smart_home_tree requires at least one sensor")
        if sensors_per_appliance < 1:
            raise ValueError("sensors_per_appliance must be at least 1")
        n_appliances = (n_sensors + sensors_per_appliance - 1) // sensors_per_appliance
        nodes: List[Node] = []
        for index in range(n_sensors):
            nodes.append(
                Node(
                    name=f"sensor_{index}",
                    level=CapabilityLevel.E4_SENSOR,
                    free_memory_mb=sensor_memory_mb,
                    parent=f"appliance_{index // sensors_per_appliance}",
                )
            )
        for index in range(n_appliances):
            nodes.append(
                Node(
                    name=f"appliance_{index}",
                    level=CapabilityLevel.E3_APPLIANCE,
                    free_memory_mb=256.0,
                    parent="pc",
                )
            )
        nodes.append(
            Node(name="pc", level=CapabilityLevel.E2_PC, free_memory_mb=8192.0, parent="cloud")
        )
        nodes.append(
            Node(
                name="cloud",
                level=CapabilityLevel.E1_CLOUD,
                free_memory_mb=cloud_memory_mb,
                inside_apartment=False,
            )
        )
        return cls(nodes)

    @classmethod
    def cloud_only(cls) -> "Topology":
        """Degenerate topology used by the "no pushdown" ablation baseline."""
        return cls(
            [
                Node(name="sensor", level=CapabilityLevel.E4_SENSOR, free_memory_mb=1.0),
                Node(
                    name="cloud",
                    level=CapabilityLevel.E1_CLOUD,
                    free_memory_mb=1024 * 64,
                    inside_apartment=False,
                ),
            ]
        )

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def mark_dead(self, name: str) -> None:
        """Declare ``name`` dead for scheduling (idempotent).

        The root cannot die — it is the query's origin and the place results
        are returned; a dead root is simply a failed session.
        """
        self.node(name)
        if name == self.cloud.name:
            raise ValueError(f"Cannot mark the root node {name!r} dead")
        with self._liveness_lock:
            if name not in self._dead:
                self._dead.append(name)

    def revive_all(self) -> None:
        """Bring every dead node back (used between independent runs)."""
        with self._liveness_lock:
            self._dead.clear()

    def is_alive(self, name: str) -> bool:
        """True unless ``name`` has been marked dead."""
        self.node(name)
        with self._liveness_lock:
            return name not in self._dead

    @property
    def dead_nodes(self) -> List[str]:
        """Names of dead nodes, in the order they died."""
        with self._liveness_lock:
            return list(self._dead)

    def nearest_live_ancestor(self, name: str) -> Node:
        """The closest live strict ancestor of ``name`` (root worst case)."""
        for ancestor in self.path_to_root(name)[1:]:
            if self.is_alive(ancestor.name):
                return ancestor
        raise ValueError(f"Node {name!r} has no live ancestor")

    def without(self, names: Sequence[str]) -> "Topology":
        """A new topology with ``names`` removed (the re-plan input).

        Children of a removed node re-parent to its nearest surviving
        ancestor, so the tree stays connected and data still flows towards
        the root; surviving-node order (and with it the partition/merge
        order of the parallel runtime) is preserved.  The returned topology
        starts fully alive.
        """
        removed = set(names)
        if self.cloud.name in removed:
            raise ValueError("Cannot remove the root node from a topology")
        unknown = removed - set(self._by_name)
        if unknown:
            raise KeyError(f"Unknown nodes: {sorted(unknown)}")

        def live_parent(name: str) -> Optional[str]:
            current = self._parents[name]
            while current is not None and current in removed:
                current = self._parents[current]
            return current

        survivors = [
            dataclasses.replace(node, parent=live_parent(node.name))
            for node in self._nodes
            if node.name not in removed
        ]
        return Topology(survivors)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """All nodes, least powerful first."""
        return list(self._nodes)

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> Node:
        """Return the node with the given name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"Unknown node: {name}") from None

    # ------------------------------------------------------------------
    # tree structure
    # ------------------------------------------------------------------
    def parent_of(self, name: str) -> Optional[Node]:
        """The node ``name`` feeds, or ``None`` for the root."""
        self.node(name)  # raise on unknown names
        parent = self._parents[name]
        return self._by_name[parent] if parent is not None else None

    def children_of(self, name: str) -> List[Node]:
        """The nodes feeding ``name``, in deterministic topology order."""
        self.node(name)
        return [self._by_name[child] for child in self._children[name]]

    @property
    def leaves(self) -> List[Node]:
        """Nodes nothing feeds into (the data sources), topology order."""
        return [node for node in self._nodes if not self._children[node.name]]

    @property
    def is_tree(self) -> bool:
        """True when any node has more than one child (not a plain chain)."""
        return any(len(children) > 1 for children in self._children.values())

    def path_to_root(self, name: str) -> List[Node]:
        """The node itself followed by its ancestors up to the root."""
        path = [self.node(name)]
        seen = {name}
        current: Optional[str] = self._parents[name]
        while current is not None:
            if current in seen:
                raise ValueError(f"Topology contains a parent cycle at {current!r}")
            seen.add(current)
            path.append(self._by_name[current])
            current = self._parents[current]
        return path

    def common_ancestor(self, names: Sequence[str]) -> Node:
        """The nearest node all of ``names`` (or their data) flow through."""
        if not names:
            raise ValueError("common_ancestor requires at least one node name")
        paths = [self.path_to_root(name) for name in names]
        candidates = set(node.name for node in paths[0])
        for path in paths[1:]:
            candidates &= {node.name for node in path}
        if not candidates:
            raise ValueError(f"Nodes {list(names)} share no common ancestor")
        for node in paths[0]:  # nearest first
            if node.name in candidates:
                return node
        raise AssertionError("unreachable")

    @property
    def levels(self) -> List[CapabilityLevel]:
        """The distinct capability levels present, least powerful first."""
        seen: List[CapabilityLevel] = []
        for node in self._nodes:
            if node.level not in seen:
                seen.append(node.level)
        return seen

    def nodes_at(self, level: CapabilityLevel) -> List[Node]:
        """All nodes of the given level."""
        return [node for node in self._nodes if node.level == level]

    def first_node_at_or_above(self, level: CapabilityLevel) -> Node:
        """The least powerful node whose level is at least ``level``.

        "At least" means equally or more powerful; when a level is absent from
        the topology the next more powerful node takes over (the paper's rule
        that a unit lacking power hands the work to a more powerful node).
        """
        for node in self._nodes:  # least powerful first
            if node.level.is_at_least(level):
                return node
        return self._nodes[-1]

    @property
    def cloud(self) -> Node:
        """The most powerful node (the query's origin)."""
        return self._nodes[-1]

    @property
    def boundary_index(self) -> int:
        """Index of the first node outside the apartment (data leaving point)."""
        for index, node in enumerate(self._nodes):
            if not node.inside_apartment:
                return index
        return len(self._nodes)
