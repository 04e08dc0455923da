from collections import Counter
from math import comb

import pytest

from conftest import insertion_seed
from paulisched.baranyai import (
    PartialState,
    Schedule,
    _apply,
    _step_parts,
    build_schedule,
)
from paulisched.flows import ScaledFlow, check_flow, flow_value, max_flow_integral, round_flow
from paulisched.oracles import validate_schedule


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

    def test_rejects_bad_sizes(self):
        for n in (3, 0, -4):
            with pytest.raises(ValueError):
                build_schedule(n)


class TestPartialState:
    def test_initial_state_checks(self):
        PartialState.initial(8).check()
        PartialState.initial(6).check()
        with pytest.raises(ValueError):
            PartialState.initial(3)

    def test_invariants_hold_after_every_insertion(self):
        n = 8
        state = PartialState.initial(n)
        for i in range(n):
            net, mapping = _step_parts(state)
            seed = insertion_seed(state, net, mapping)
            # the seed is exactly conservative and saturates both terminal layers
            assert flow_value(net, seed) == comb(n - 1, 3)
            for r, slots in enumerate(state.rounds):
                spread = sum((4 - len(s)) * m for s, m in slots.items() if len(s) < 4)
                assert spread == n - i == seed.denominator
            state = _apply(state, round_flow(net, seed), mapping)
            state.check()
            # every grown subset now appears the freshly required number of times
            mult = Counter()
            for slots in state.rounds:
                for s, m in slots.items():
                    mult[s] += m
            for s, m in mult.items():
                if i in s:
                    assert m == comb(n - i - 1, 4 - len(s))

    def test_first_insertion_network_shape(self):
        state = PartialState.initial(8)
        net, mapping = _step_parts(state)
        seed = insertion_seed(state, net, mapping)
        type_nodes = net.node_count - 3 - len(state.rounds)  # source, sink and hub
        assert type_nodes == 1  # only the empty slot type exists
        assert all(f % seed.denominator == 0 for f in seed.numerators)

    def test_apply_step_requires_single_unit_per_round(self):
        state = PartialState.initial(4)
        net, mapping = _step_parts(state)
        # doctor a flow that routes nothing
        zero = ScaledFlow(1, tuple(0 for _ in net.edges))
        with pytest.raises(ValueError):
            _apply(state, zero, mapping)

    def test_apply_step_full_run_matches_build(self):
        state = PartialState.initial(4)
        for _ in range(4):
            net, mapping = _step_parts(state)
            state = _apply(state, round_flow(net, insertion_seed(state, net, mapping)), mapping)
        assert list(state.rounds[0]) == [(3, 2, 1, 0)]

    def test_apply_step_rejects_a_starved_forced_round(self):
        # n=5: one round misses element 0, so it must take element 1; hand its
        # unit to a round that may take element 1 but did not
        state = PartialState.initial(5)
        net, mapping = _step_parts(state)
        state = _apply(state, max_flow_integral(net), mapping)
        net, mapping = _step_parts(state)
        m = len(state.rounds)
        flow = list(max_flow_integral(net).numerators)
        forced = [r for r in range(m) if net.edges[r][0] == net.source and net.edges[r][2]]
        idle = [r for r in range(m) if net.edges[r][0] != net.source and not flow[r]]
        assert len(forced) == 1 and idle
        for k, (r, _) in enumerate(mapping):
            if r == forced[0]:
                flow[m + k] = 0
        flow[forced[0]] = 0
        flow[idle[0]] = flow[m + next(k for k, (r, _) in enumerate(mapping) if r == idle[0])] = 1
        with pytest.raises(ValueError, match="must take element 1"):
            _apply(state, ScaledFlow(1, tuple(flow)), mapping)

    @pytest.mark.parametrize("n", range(4, 15))
    def test_hub_network_has_full_fractional_flow(self, n):
        # the seed proves that an integral flow of full value exists
        state = PartialState.initial(n)
        for _ in range(n):
            net, mapping = _step_parts(state)
            seed = insertion_seed(state, net, mapping)
            check_flow(net, seed)
            assert flow_value(net, seed) == comb(n - 1, 3)
            state = _apply(state, max_flow_integral(net), mapping)
            state.check()


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
