"""Communicators and groups.

World ranks address the ADI; a communicator translates its local ranks
to world ranks and contributes a context id that isolates its matching
space.  Each communicator owns two contexts: one for point-to-point,
one for collectives, so user messages can never match collective
internals (the MPICH arrangement).

Context allocation is per-process and deterministic: communicator
construction is collective and happens in the same order on every
member, so members agree on the ids.  Two communicators from the same
``split`` share ids but have disjoint member sets, which can never
exchange messages, so the sharing is safe.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro.mpi.constants import ANY_SOURCE, MpiError, PROC_NULL


class Group:
    """An ordered, duplicate-free set of world ranks.

    Immutable, so every communicator over the same members can share
    one: a job builds its world group once for all its ranks, and
    ``comm_dup`` passes its parent's on.  ``positions`` translates a
    world rank back to its group rank in O(1).
    """

    __slots__ = ("ranks", "positions")

    def __init__(self, world_ranks: Sequence[int]):
        #: the world ranks, in group order
        self.ranks: Tuple[int, ...] = tuple(world_ranks)
        #: world rank -> group rank
        self.positions: Dict[int, int] = {
            w: i for i, w in enumerate(self.ranks)}
        if len(self.positions) != len(self.ranks):
            raise MpiError("communicator group has duplicate ranks")


class Communicator:
    """An ordered group of world ranks plus a matching context."""

    def __init__(self, group: Union[Group, Sequence[int]], my_world_rank: int,
                 context_base: int):
        if not isinstance(group, Group):
            group = Group(group)
        self._group = group
        self._world_ranks = group.ranks
        rank = group.positions.get(my_world_rank)
        if rank is None:
            raise MpiError(
                f"world rank {my_world_rank} is not in the communicator group"
            )
        self._rank = rank
        #: context id for point-to-point traffic
        self.pt2pt_context = 2 * context_base
        #: context id for collective-internal traffic
        self.coll_context = 2 * context_base + 1

    # -- identity ------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        return len(self._world_ranks)

    @property
    def group(self) -> Group:
        """The member world ranks (shared, immutable)."""
        return self._group

    # -- translation ----------------------------------------------------------
    def world_rank(self, comm_rank: int) -> int:
        """Translate a communicator rank to a world rank (wildcards pass)."""
        world_ranks = self._world_ranks
        if 0 <= comm_rank < len(world_ranks):
            return world_ranks[comm_rank]
        if comm_rank in (ANY_SOURCE, PROC_NULL):
            return comm_rank
        raise MpiError(
            f"rank {comm_rank} out of range for communicator of size {self.size}"
        )

    def comm_rank_of(self, world_rank: int) -> int:
        """Translate a world rank back (for Status.source)."""
        if world_rank in (ANY_SOURCE, PROC_NULL):
            return world_rank
        rank = self._group.positions.get(world_rank)
        if rank is None:
            raise MpiError(
                f"world rank {world_rank} is not in this communicator"
            )
        return rank

    def __contains__(self, world_rank: int) -> bool:
        return world_rank in self._group.positions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Communicator rank={self._rank}/{self.size} "
            f"ctx={self.pt2pt_context // 2}>"
        )


def split_groups(
    colors_keys: Sequence[tuple[int, int]]
) -> dict[int, List[int]]:
    """Pure helper used by comm_split: group world ranks by color, order
    by (key, world rank).  ``colors_keys[w] = (color, key)``; color < 0
    (MPI_UNDEFINED) means the rank joins no group."""
    groups: dict[int, List[tuple[int, int]]] = {}
    for world, (color, key) in enumerate(colors_keys):
        if color < 0:
            continue
        groups.setdefault(color, []).append((key, world))
    return {
        color: [w for _k, w in sorted(members)]
        for color, members in groups.items()
    }
