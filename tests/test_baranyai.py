import copy
import hashlib
import re
from collections import Counter
from math import comb

import pytest

from conftest import (
    check_flow,
    check_invariants,
    flow_choice,
    flow_value,
    insertion_seed,
    max_flow_integral,
    reference_max_flow,
    reference_step_parts,
    round_flow,
    slot_table,
)
from paulisched.baranyai import (
    PartialState,
    Schedule,
    _apply,
    _insertion_choice,
    build_schedule,
)
from paulisched.oracles import validate_schedule
from paulisched.partition import schedule_json

# sha256 of schedule_json(build_schedule(n)) for n = 4..24 written one
# after another, recorded before the insertion step took slot ids: every
# hub, no-forced-round and short-last-round shape up to n = 24 in one pin
SCHEDULES_4_TO_24_SHA256 = "03e410f012a3cab97e047ae06dafa364786f8c206b8b48eb357448276c8b573e"


def all_subsets_once(schedule: Schedule) -> bool:
    counts = Counter(frozenset(s) for rnd in schedule.rounds for s in rnd)
    return set(counts.values()) == {1} and len(counts) == comb(schedule.n, 4)


class TestBuildSchedule:
    def test_minimal_register(self):
        schedule = build_schedule(4)
        assert schedule.rounds == (((3, 2, 1, 0),),)

    def test_eight_modes(self):
        schedule = build_schedule(8)
        assert len(schedule.rounds) == 35
        assert all(len(rnd) == 2 for rnd in schedule.rounds)
        assert all(set(rnd[0]) | set(rnd[1]) == set(range(8)) for rnd in schedule.rounds)
        assert all_subsets_once(schedule)

    def test_twelve_modes(self):
        schedule = build_schedule(12)
        assert len(schedule.rounds) == 165
        assert all(len(rnd) == 3 for rnd in schedule.rounds)
        assert all_subsets_once(schedule)
        assert validate_schedule(schedule).passed

    def test_deterministic(self):
        assert build_schedule(8) == build_schedule(8)

    def test_schedules_4_to_24_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        for n in range(4, 25):
            digest.update(schedule_json(build_schedule(n)).encode())
        assert digest.hexdigest() == SCHEDULES_4_TO_24_SHA256

    def test_rejects_bad_sizes(self):
        for n in (3, 0, -4):
            with pytest.raises(ValueError):
                build_schedule(n)


class TestPartialState:
    def test_initial_state_checks(self):
        check_invariants(PartialState.initial(8))
        check_invariants(PartialState.initial(6))
        with pytest.raises(ValueError):
            PartialState.initial(3)

    def test_invariants_hold_after_every_insertion(self):
        n = 8
        state = PartialState.initial(n)
        for i in range(n):
            net, mapping = reference_step_parts(state)
            seed = insertion_seed(state, net, mapping)
            # the seed is exactly conservative and saturates both terminal layers
            assert flow_value(net, seed) == comb(n - 1, 3)
            for r, slots in enumerate(slot_table(state)):
                spread = sum((4 - len(s)) * m for s, m in slots.items() if len(s) < 4)
                assert spread == n - i == seed.denominator
            _apply(state, flow_choice(state, round_flow(net, seed).numerators, mapping))
            check_invariants(state)
            # every grown subset now appears the freshly required number of times
            mult = Counter()
            for slots in slot_table(state):
                for s, m in slots.items():
                    mult[s] += m
            for s, m in mult.items():
                if i in s:
                    assert m == comb(n - i - 1, 4 - len(s))

    def test_first_insertion_network_shape(self):
        state = PartialState.initial(8)
        net, mapping = reference_step_parts(state)
        seed = insertion_seed(state, net, mapping)
        type_nodes = net.node_count - 3 - len(state.rows)  # source, sink and hub
        assert type_nodes == 1  # only the empty slot type exists
        assert all(f % seed.denominator == 0 for f in seed.numerators)

    def test_apply_step_requires_single_unit_per_round(self):
        state = PartialState.initial(4)
        net, mapping = reference_step_parts(state)
        # doctor a flow that routes nothing
        zero = tuple(0 for _ in net.edges)
        with pytest.raises(ValueError, match="full value"):
            _apply(state, flow_choice(state, zero, mapping))

    def test_apply_step_rejects_two_units_into_one_round(self):
        # keep the full value on the in-edges but route two middle units into
        # round 0: once down one middle edge, once down each of two.  A
        # {round: slot id} choice holds one slot per round, so such a flow is
        # rejected on its way to _apply.
        n = 8
        state = PartialState.initial(n)
        net, mapping = reference_step_parts(state)
        m = len(state.rows)
        flow = list(max_flow_integral(net))
        assert [r for r, _ in mapping] == list(range(m))  # one slot type per round
        flow[m], flow[m + 1] = 2, 0
        with pytest.raises(ValueError, match="at most one unit"):
            _apply(state, flow_choice(state, flow, mapping))

        _apply(state, flow_choice(state, max_flow_integral(net), mapping))
        net, mapping = reference_step_parts(state)
        flow = list(max_flow_integral(net))
        round0 = [m + k for k, (r, _) in enumerate(mapping) if r == 0]
        assert len(round0) == 2 and sum(flow[e] for e in round0) == 1
        for e in round0:
            flow[e] = 1
        with pytest.raises(ValueError, match="at most one unit"):
            _apply(state, flow_choice(state, flow, mapping))

    def test_apply_step_full_run_matches_build(self):
        state = PartialState.initial(4)
        for _ in range(4):
            net, mapping = reference_step_parts(state)
            seed = insertion_seed(state, net, mapping)
            _apply(state, flow_choice(state, round_flow(net, seed).numerators, mapping))
        assert list(slot_table(state)[0]) == [(3, 2, 1, 0)]

    def test_apply_step_rejects_a_starved_forced_round(self):
        # n=5: one round misses element 0, so it must take element 1; hand its
        # unit to a round that may take element 1 but did not
        state = PartialState.initial(5)
        _apply(state, _insertion_choice(state))
        net, mapping = reference_step_parts(state)
        m = len(state.rows)
        flow = list(max_flow_integral(net))
        forced = [r for r in range(m) if net.tails[r] == net.source and net.caps[r]]
        idle = [r for r in range(m) if net.tails[r] != net.source and not flow[r]]
        assert len(forced) == 1 and idle
        for k, (r, _) in enumerate(mapping):
            if r == forced[0]:
                flow[m + k] = 0
        flow[forced[0]] = 0
        flow[idle[0]] = flow[m + next(k for k, (r, _) in enumerate(mapping) if r == idle[0])] = 1
        with pytest.raises(ValueError, match="must take element 1"):
            _apply(state, flow_choice(state, flow, mapping))

    @pytest.mark.parametrize("n", range(4, 15))
    def test_hub_network_has_full_fractional_flow(self, n):
        # the seed proves that an integral flow of full value exists
        state = PartialState.initial(n)
        for _ in range(n):
            net, mapping = reference_step_parts(state)
            seed = insertion_seed(state, net, mapping)
            check_flow(net, seed)
            assert flow_value(net, seed) == comb(n - 1, 3)
            _apply(state, _insertion_choice(state))
            check_invariants(state)


def _snapshot(state):
    return copy.deepcopy(
        (state.n, state.inserted, state.rows, state.needed, state.closed, state.subsets, state.sizes)
    )


class TestIncrementalNetwork:
    """``_insertion_choice`` solves each insertion network on the slot table
    kept from step to step; the conftest ``reference_step_parts`` builds the
    network from scratch and ``max_flow_integral`` solves it, the oracle."""

    @pytest.mark.parametrize("n", range(4, 24))
    def test_every_step_matches_the_reference(self, n):
        state = PartialState.initial(n)
        for _ in range(n):
            net, mapping = reference_step_parts(state)
            flow = max_flow_integral(net)
            assert flow == reference_max_flow(net)
            chosen = _insertion_choice(state)
            assert chosen == flow_choice(state, flow, mapping)
            _apply(state, chosen)
            check_invariants(state)
        assert not any(state.rows)


class TestApplyIsAllOrNothing:
    """A rejected choice leaves the state exactly as it was."""

    @staticmethod
    def _midway(n, steps):
        state = PartialState.initial(n)
        for _ in range(steps):
            _apply(state, _insertion_choice(state))
        net, mapping = reference_step_parts(state)
        return state, net, mapping, list(max_flow_integral(net))

    def _assert_rejected(self, state, choose, match):
        # choose() runs inside the check: a flow that no choice can spell
        # is rejected on its way to _apply
        before = _snapshot(state)
        with pytest.raises(ValueError, match=match):
            _apply(state, choose())
        assert _snapshot(state) == before
        check_invariants(state)

    def test_starved_forced_round(self):
        state, net, mapping, flow = self._midway(7, 3)
        m = len(state.rows)
        d = state.n - state.inserted
        forced = next(r for r in range(m) if state.needed[r] == d)
        idle = next(r for r in range(m) if 0 < state.needed[r] < d and not flow[r])
        for k, (r, _) in enumerate(mapping):
            if r == forced:
                flow[m + k] = 0
        flow[forced] = 0
        flow[idle] = flow[m + next(k for k, (r, _) in enumerate(mapping) if r == idle)] = 1
        self._assert_rejected(
            state, lambda: flow_choice(state, flow, mapping), f"round {forced} must take element"
        )

    def test_two_units_into_one_round(self):
        state, net, mapping, flow = self._midway(9, 3)
        m = len(state.rows)
        taken = [m + k for k, (r, _) in enumerate(mapping) if r == 0]
        assert len(taken) >= 2 and sum(flow[e] for e in taken) == 1
        for e in taken:
            flow[e] = 1
        self._assert_rejected(state, lambda: flow_choice(state, flow, mapping), "at most one unit")

    def test_flow_not_of_full_value(self):
        # one round's unit dropped from its in-edge and its middle edge
        state, net, mapping, flow = self._midway(10, 4)
        m = len(state.rows)
        r = next(r for r in range(m) if flow[r])
        flow[r] = 0
        flow[m + next(k for k, (q, _) in enumerate(mapping) if q == r and flow[m + k])] = 0
        self._assert_rejected(state, lambda: flow_choice(state, flow, mapping), "full value")

    def test_round_moved_to_another_slot_of_its_row(self):
        # full value and every forced round served, but the subset the round
        # left is taken once too rarely and the one it moved to once too
        # often; the message names the subset, not its slot id
        state = self._midway(10, 4)[0]
        chosen = _insertion_choice(state)
        want = Counter(chosen.values())
        r, s = next((r, s) for r, s in chosen.items() if len(state.rows[r]) > 1)
        chosen[r] = next(t for t in state.rows[r] if t != s)
        taken = Counter(chosen.values())
        first = next(t for t in taken if taken[t] != want[t])
        subset = re.escape(str(state.subsets[first]))
        self._assert_rejected(
            state, lambda: chosen, rf"^subset {subset} taken {taken[first]} times, its sink edge holds \d+$"
        )

    def test_subset_that_is_not_an_open_slot_of_its_round(self):
        state = self._midway(9, 3)[0]
        chosen = _insertion_choice(state)
        r = next(iter(chosen))
        chosen[r] = next(s for row in state.rows for s in row if s not in state.rows[r])
        subset = re.escape(str(state.subsets[chosen[r]]))
        self._assert_rejected(state, lambda: chosen, rf"^round {r} has no open slot {subset}$")

    @pytest.mark.parametrize(
        "slot", ["past_the_table", -1, (), None], ids=["past_the_table", "negative", "tuple", "none"]
    )
    def test_unknown_slot_id(self, slot):
        # an id that names no subset, or a subset where an id belongs, is a
        # ValueError, never an IndexError or a TypeError
        state = self._midway(9, 3)[0]
        if slot == "past_the_table":
            slot = len(state.subsets)
        chosen = _insertion_choice(state)
        r = next(iter(chosen))
        chosen[r] = slot
        self._assert_rejected(
            state, lambda: chosen, rf"^round {r} has no open slot \(no subset has id {re.escape(repr(slot))}\)$"
        )

    def test_round_out_of_range(self):
        state = self._midway(9, 3)[0]
        chosen = _insertion_choice(state)
        slot = chosen.pop(next(iter(chosen)))
        chosen[len(state.rows)] = slot
        subset = re.escape(str(state.subsets[slot]))
        self._assert_rejected(state, lambda: chosen, rf"^round {len(state.rows)} has no open slot {subset}$")

    def test_accepted_flow_advances_the_state_in_place(self):
        state, net, mapping, flow = self._midway(11, 5)
        assert _apply(state, flow_choice(state, flow, mapping)) is None
        assert state.inserted == 6
        check_invariants(state)

    def test_stale_choice_is_rejected(self):
        # once applied, a step's choice does not serve the next step's
        # network, so applying it again is refused and changes nothing
        for n in range(4, 20):
            state = PartialState.initial(n)
            for _ in range(n):
                chosen = _insertion_choice(state)
                _apply(state, chosen)
                self._assert_rejected(state, lambda: chosen, None)


class TestPadding:
    """Sizes that are not multiples of 4: the last round is short."""

    @pytest.mark.parametrize("n", [5, 6, 7, 9])
    def test_padded_sizes_cover_exactly_once(self, n):
        schedule = build_schedule(n)
        assert schedule.n == n
        assert all_subsets_once(schedule)
        for rnd in schedule.rounds:
            seen = set()
            for subset in rnd:
                assert not (seen & set(subset))
                seen |= set(subset)
        assert len(schedule.rounds) <= comb((-(-n // 4) * 4) - 1, 3)
        assert validate_schedule(schedule).passed

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(3)


class TestCanonicalForm:
    def test_rounds_sorted_and_subsets_descending(self):
        schedule = build_schedule(8)
        for rnd in schedule.rounds:
            assert list(rnd) == sorted(rnd, reverse=True)
            for subset in rnd:
                assert list(subset) == sorted(subset, reverse=True)
        assert list(schedule.rounds) == sorted(schedule.rounds)

    def test_from_rounds_normalizes(self):
        raw = [[(0, 1, 2, 4), (7, 6, 5, 3)], [(3, 2, 1, 0), (4, 5, 6, 7)]]
        schedule = Schedule.from_rounds(8, raw)
        assert schedule.rounds[0] == ((7, 6, 5, 3), (4, 2, 1, 0))
        assert schedule.rounds[1] == ((7, 6, 5, 4), (3, 2, 1, 0))
