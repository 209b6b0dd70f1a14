"""A general-purpose greedy chain-growth embedder with rip-up and retry.

The TRIAD and clustered patterns are *structured* embeddings tailored to
fully connected (sub)problems.  For arbitrary sparse interaction graphs,
this module provides a heuristic in the spirit of the classical
Cai-Macready-Roy algorithm:

* variables are embedded one at a time in breadth-first order over the
  logical graph (so interacting variables land physically close),
* each new variable grows a chain as a Steiner tree of shortest paths
  through *free* qubits connecting a root qubit to the chains of its
  already embedded neighbours,
* when an embedded neighbour chain has become unreachable (all its
  adjacent qubits were consumed by other chains), the blocking chains are
  *ripped up* — their variables return to the placement queue — and the
  current variable is retried, up to a bounded number of rip-ups,
* several fully randomised restarts are attempted before giving up.

This embedder is not used on the paper's evaluation workloads (those use
the structured patterns above); it is the fallback path for ad-hoc
problems and for the ablation benchmarks.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.chimera.topology import ChimeraGraph
from repro.embedding.base import Embedding
from repro.exceptions import EmbeddingError, EmbeddingNotFoundError
from repro.utils.cancel import check_cancelled
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["GreedyEmbedder"]

Variable = Hashable


class GreedyEmbedder:
    """Greedy shortest-path chain-growth embedding for sparse problems.

    Parameters
    ----------
    topology:
        Target hardware graph.
    max_attempts:
        Number of randomised restarts before giving up.
    ripup_factor:
        Rip-up budget per attempt, as a multiple of the number of
        variables (a bounded form of negotiated congestion).
    """

    def __init__(
        self,
        topology: ChimeraGraph,
        max_attempts: int = 5,
        ripup_factor: float = 3.0,
    ) -> None:
        if max_attempts <= 0:
            raise EmbeddingError("max_attempts must be positive")
        if ripup_factor < 0:
            raise EmbeddingError("ripup_factor must be non-negative")
        self.topology = topology
        self.max_attempts = max_attempts
        self.ripup_factor = ripup_factor

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def embed(
        self,
        interactions: Iterable[Tuple[Variable, Variable]],
        variables: Sequence[Variable] | None = None,
        seed: SeedLike = None,
    ) -> Embedding:
        """Embed the interaction graph given by ``interactions``.

        Parameters
        ----------
        interactions:
            Logical variable pairs that must end up with a physical coupler
            between their chains.
        variables:
            Optional full variable list (to include isolated variables that
            appear in no interaction).
        seed:
            Seed for the randomised restarts.

        Raises
        ------
        EmbeddingNotFoundError
            If all attempts fail to place every variable.
        """
        adjacency = self._logical_adjacency(interactions, variables)
        if not adjacency:
            raise EmbeddingError("nothing to embed: no variables given")
        rng = ensure_rng(seed)
        checked_interactions = [
            (u, v) for u, partners in adjacency.items() for v in partners if repr(u) < repr(v)
        ]
        last_error: EmbeddingNotFoundError | None = None
        for _ in range(self.max_attempts):
            try:
                chains = self._attempt(adjacency, rng)
            except EmbeddingNotFoundError as exc:
                last_error = exc
                continue
            embedding = Embedding(chains)
            embedding.validate(self.topology, checked_interactions)
            return embedding
        raise last_error or EmbeddingNotFoundError("greedy embedding failed")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _logical_adjacency(
        interactions: Iterable[Tuple[Variable, Variable]],
        variables: Sequence[Variable] | None,
    ) -> Dict[Variable, Set[Variable]]:
        adjacency: Dict[Variable, Set[Variable]] = {}
        for var in variables or ():
            adjacency.setdefault(var, set())
        for u, v in interactions:
            if u == v:
                raise EmbeddingError(f"self-interaction on variable {u!r} is not allowed")
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        return adjacency

    @staticmethod
    def _placement_order(
        adjacency: Mapping[Variable, Set[Variable]], rng
    ) -> List[Variable]:
        """Breadth-first order over the logical graph, seeded at high degree.

        Placing variables in graph order keeps the chains of interacting
        variables physically close, which matters far more for success
        than processing high-degree variables first across the whole graph.
        Ties are broken randomly so restarts explore different layouts.
        """
        by_degree = sorted(adjacency, key=lambda var: (-len(adjacency[var]), repr(var)))
        remaining = dict.fromkeys(by_degree)
        order: List[Variable] = []
        while remaining:
            seed = next(iter(remaining))
            queue: Deque[Variable] = deque([seed])
            del remaining[seed]
            while queue:
                current = queue.popleft()
                order.append(current)
                neighbors = [n for n in adjacency[current] if n in remaining]
                rng.shuffle(neighbors)
                for neighbor in neighbors:
                    del remaining[neighbor]
                    queue.append(neighbor)
        return order

    def _attempt(
        self, adjacency: Mapping[Variable, Set[Variable]], rng
    ) -> Dict[Variable, Tuple[int, ...]]:
        topo = self.topology
        queue: Deque[Variable] = deque(self._placement_order(adjacency, rng))
        free: Set[int] = set(topo.qubits)
        chains: Dict[Variable, List[int]] = {}
        ripup_budget = int(self.ripup_factor * len(adjacency)) + 1

        while queue:
            check_cancelled()
            var = queue.popleft()
            embedded_neighbors = [n for n in adjacency[var] if n in chains]
            if not embedded_neighbors:
                chain = self._place_isolated(free, rng)
            else:
                chain = self._grow_chain(embedded_neighbors, chains, free)
            if chain is not None:
                chains[var] = chain
                free.difference_update(chain)
                continue

            # Failure: find the neighbour chains that are walled in and rip
            # up the chains blocking them, then retry this variable.
            blockers = self._blocking_chains(var, embedded_neighbors, chains, free)
            if not blockers or ripup_budget <= 0:
                raise EmbeddingNotFoundError(
                    f"could not grow a chain for variable {var!r} "
                    f"({len(chains)}/{len(adjacency)} variables placed)"
                )
            ripup_budget -= len(blockers)
            for blocked_var in blockers:
                free.update(chains.pop(blocked_var))
                queue.append(blocked_var)
            queue.appendleft(var)
        return {var: tuple(chain) for var, chain in chains.items()}

    def _blocking_chains(
        self,
        var: Variable,
        embedded_neighbors: Sequence[Variable],
        chains: Mapping[Variable, List[int]],
        free: Set[int],
    ) -> List[Variable]:
        """Chains around the hardest-to-reach neighbour chains.

        Two failure modes are handled: a neighbour chain with no free
        adjacent qubit at all (walled in), and a neighbour chain whose
        free surroundings form a small pocket disconnected from the rest
        of the free graph.  In both cases the chains physically adjacent
        to that neighbour are ripped up.
        """
        topo = self.topology
        owners: Dict[int, Variable] = {
            qubit: owner for owner, chain in chains.items() for qubit in chain
        }

        def adjacent_owners(neighbor: Variable) -> List[Variable]:
            found: List[Variable] = []
            for qubit in chains[neighbor]:
                for adjacent in topo.neighbors(qubit):
                    owner = owners.get(adjacent)
                    if owner is not None and owner not in (neighbor, var) and owner not in found:
                        found.append(owner)
            return found

        reach_sizes = {
            neighbor: len(self._dijkstra_from_chain(chains[neighbor], free))
            for neighbor in embedded_neighbors
        }
        walled = [neighbor for neighbor, size in reach_sizes.items() if size == 0]
        if walled:
            blockers: List[Variable] = []
            for neighbor in walled:
                for owner in adjacent_owners(neighbor):
                    if owner not in blockers:
                        blockers.append(owner)
            return blockers
        # No chain is fully walled in, yet no common root exists: free the
        # surroundings of the neighbour with the smallest reachable region.
        most_confined = min(reach_sizes, key=lambda n: reach_sizes[n])
        return adjacent_owners(most_confined)

    def _place_isolated(self, free: Set[int], rng) -> List[int] | None:
        if not free:
            return None
        candidates = sorted(free)
        # Prefer high-degree free qubits so later chains keep room to grow.
        candidates.sort(key=lambda q: -len(self.topology.neighbors(q) & free))
        top = candidates[: max(1, len(candidates) // 8)]
        return [top[int(rng.integers(0, len(top)))]]

    def _grow_chain(
        self,
        embedded_neighbors: Sequence[Variable],
        chains: Mapping[Variable, List[int]],
        free: Set[int],
    ) -> List[int] | None:
        """Connect a new chain to every embedded neighbour via free qubits.

        A multi-source Dijkstra is run from each neighbour chain over free
        qubits; the free qubit minimising the summed distances becomes the
        chain root and the union of the shortest paths becomes the chain.
        """
        used: Set[int] = {qubit for chain in chains.values() for qubit in chain}
        distance_maps: List[Dict[int, Tuple[int, int]]] = []
        for neighbor in embedded_neighbors:
            distances = self._dijkstra_from_chain(chains[neighbor], free, used)
            if not distances:
                return None
            distance_maps.append(distances)

        best_root: int | None = None
        best_key = None
        for q in free:
            total = 0
            worst = 0
            reachable = True
            for distances in distance_maps:
                if q not in distances:
                    reachable = False
                    break
                total += distances[q][0]
                worst = max(worst, distances[q][0])
            if reachable and (best_key is None or (worst, total) < best_key):
                best_key = (worst, total)
                best_root = q
        if best_root is None:
            return None

        chain: List[int] = [best_root]
        chain_set = {best_root}
        for distances in distance_maps:
            current = best_root
            while True:
                _dist, parent = distances[current]
                if parent == current:
                    break  # reached a qubit adjacent to the neighbour chain
                if parent not in chain_set:
                    chain.append(parent)
                    chain_set.add(parent)
                current = parent
        return chain

    def _dijkstra_from_chain(
        self,
        chain: Sequence[int],
        free: Set[int],
        used: Set[int] | None = None,
    ) -> Dict[int, Tuple[int, int]]:
        """Congestion-aware shortest paths from ``chain`` through free qubits.

        Returns a map ``qubit -> (cost, parent)`` where following the
        parents leads back towards the source chain; qubits directly
        adjacent to the chain are their own parent.  Entering a qubit
        costs one plus a congestion penalty proportional to how many of
        its neighbours are already used by other chains, which steers new
        chains away from crowded regions and keeps corridors open.
        """
        topo = self.topology
        used = used or set()

        def entry_cost(node: int) -> int:
            congestion = sum(1 for adjacent in topo.neighbors(node) if adjacent in used)
            return 1 + congestion

        distances: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[int, int, int]] = []
        for q in chain:
            for neighbor in topo.neighbors(q):
                if neighbor in free:
                    heapq.heappush(heap, (entry_cost(neighbor), neighbor, neighbor))
        while heap:
            dist, node, parent = heapq.heappop(heap)
            if node in distances:
                continue
            distances[node] = (dist, parent)
            for neighbor in topo.neighbors(node):
                if neighbor in free and neighbor not in distances:
                    heapq.heappush(heap, (dist + entry_cost(neighbor), neighbor, node))
        return distances
