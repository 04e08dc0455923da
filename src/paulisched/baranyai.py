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

The state is kept in the order the network needs and updated at each step,
not re-derived.  Each round keeps a slot row: its open slots in (size,
subset) order, one entry per distinct subset with its multiplicity, and
R_r is stored and decremented.  Elements are inserted in increasing order,
so the slot grown at step i is (i,) + S: every element of S is below i, so
this is already descending, and it sorts last among the round's slots of
its size, since every other slot holds only elements below i.  Inserting
it at the end of its size group keeps the row in order with no sort.
Filled 4-subsets leave the row.  A step lays the rows end to end as the
middle edges and numbers each type node by its first appearance there;
Dinic never scans the sink's edges, so that numbering does not change the
flow on any round or middle edge.

Construction is sequential across insertions; schedules for distinct n may
be built concurrently, and finished Schedule values are immutable.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, compress, repeat
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


class PartialState:
    """Slot table during construction; see the module docstring for invariants.

    ``rows[r]`` is round r's slot row, its open slots (|S| < 4) in (size,
    subset) order, and ``mults[r]`` their multiplicities (only the empty
    slot repeats); ``needed[r]`` is R_r, and ``closed[r]`` lists the
    round's 4-subsets filled so far.  A state is not changed once built:
    ``_apply`` returns a new one that shares the rows it did not touch.
    """

    def __init__(self, n, inserted, rows, mults, needed, closed):
        self.n = n
        self.inserted = inserted
        self.rows: list[list[tuple[int, ...]]] = rows
        self.mults: list[list[int]] = mults
        self.needed: list[int] = needed
        self.closed: list[list[tuple[int, ...]]] = closed

    @classmethod
    def initial(cls, n: int) -> "PartialState":
        sizes = round_sizes(n)
        return cls(
            n,
            0,
            [[()] for _ in sizes],
            [[size] for size in sizes],
            [SUBSET_SIZE * size for size in sizes],
            [[] for _ in sizes],
        )


def _step_parts(state: PartialState):
    """Network (edges: round in-edges, middle, sink, source->hub) and the
    (round, subset) map of its middle edges."""
    n, i = state.n, state.inserted
    if i >= n:
        raise ValueError("all elements already inserted")
    d = n - i
    m = len(state.rows)
    subsets = list(chain.from_iterable(state.rows))
    types = dict.fromkeys(subsets)
    sink = 1 + m + len(types)
    hub = sink + 1
    type_node = dict(zip(types, range(1 + m, sink)))
    sink_cap = [comb(d - 1, SUBSET_SIZE - 1 - size) for size in range(SUBSET_SIZE)]
    row_sizes = list(map(len, state.rows))
    rounds = list(chain.from_iterable(map(repeat, range(m), row_sizes)))

    needed = state.needed
    tails = [hub if 0 < r_needed < d else 0 for r_needed in needed]
    heads = list(range(1, 1 + m))
    caps = [1 if r_needed else 0 for r_needed in needed]
    # one int object per round node, repeated, not one per middle edge
    tails += chain.from_iterable(map(repeat, range(1, 1 + m), row_sizes))
    heads += map(type_node.__getitem__, subsets)
    caps += chain.from_iterable(state.mults)
    tails += type_node.values()
    heads += [sink] * len(types)
    caps += [sink_cap[len(s)] for s in types]
    tails.append(0)
    heads.append(hub)
    caps.append(comb(n - 1, 3) - needed.count(d))

    return FlowNetwork(hub + 1, 0, sink, tails, heads, caps), list(zip(rounds, subsets))


def _apply(state: PartialState, flow: tuple[int, ...], middle_map) -> PartialState:
    """The state after inserting element i into the slots the flow chose.

    Every check runs before anything is built, so a rejected flow leaves no
    trace; ``state`` itself is never changed.
    """
    n, i = state.n, state.inserted
    m = len(state.rows)
    if sum(flow[:m]) != comb(n - 1, 3):
        raise ValueError("integral flow does not have full value")
    middle = flow[m : m + len(middle_map)]
    chosen: dict[int, tuple[int, ...]] = {}
    for k in compress(range(len(middle)), middle):
        r, s = middle_map[k]
        if middle[k] != 1 or r in chosen:
            raise ValueError(f"round {r} must take at most one unit of flow")
        chosen[r] = s
    d = n - i
    for r, r_needed in enumerate(state.needed):
        if r_needed == d and r not in chosen:
            raise ValueError(f"round {r} must take element {i} but received none")

    rows, mults, needed = state.rows.copy(), state.mults.copy(), state.needed.copy()
    closed = state.closed.copy()
    for r, s in chosen.items():
        row, mult = rows[r].copy(), mults[r].copy()
        k = row.index(s)
        if mult[k] == 1:
            del row[k], mult[k]
        else:
            mult[k] -= 1
        # Every other slot holds only elements below i, so (i,) + s is
        # descending and sorts last among the round's slots of its size.
        grown = (i,) + s
        if len(grown) == SUBSET_SIZE:
            closed[r] = closed[r] + [grown]
        else:
            k = bisect_right(row, len(grown), key=len)
            row.insert(k, grown)
            mult.insert(k, 1)
        rows[r], mults[r] = row, mult
        needed[r] -= 1
    return PartialState(n, i + 1, rows, mults, needed, closed)


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
    return Schedule.from_rounds(n, state.closed)
