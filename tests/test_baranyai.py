import copy
from collections import Counter
from math import comb

import pytest

from conftest import (
    check_flow,
    check_invariants,
    flow_value,
    insertion_seed,
    reference_max_flow,
    reference_step_parts,
    round_flow,
    slot_table,
)
from paulisched.baranyai import (
    PartialState,
    Schedule,
    _apply,
    _step_parts,
    build_schedule,
)
from paulisched.flows import max_flow_integral
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
        check_invariants(PartialState.initial(8))
        check_invariants(PartialState.initial(6))
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
            for r, slots in enumerate(slot_table(state)):
                spread = sum((4 - len(s)) * m for s, m in slots.items() if len(s) < 4)
                assert spread == n - i == seed.denominator
            state = _apply(state, round_flow(net, seed).numerators, mapping)
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
        net, mapping = _step_parts(state)
        seed = insertion_seed(state, net, mapping)
        type_nodes = net.node_count - 3 - len(state.rows)  # source, sink and hub
        assert type_nodes == 1  # only the empty slot type exists
        assert all(f % seed.denominator == 0 for f in seed.numerators)

    def test_apply_step_requires_single_unit_per_round(self):
        state = PartialState.initial(4)
        net, mapping = _step_parts(state)
        # doctor a flow that routes nothing
        zero = tuple(0 for _ in net.edges)
        with pytest.raises(ValueError, match="full value"):
            _apply(state, zero, mapping)

    def test_apply_step_rejects_two_units_into_one_round(self):
        # keep the full value on the in-edges but route two middle units into
        # round 0: once down one middle edge, once down each of two
        n = 8
        state = PartialState.initial(n)
        net, mapping = _step_parts(state)
        m = len(state.rows)
        flow = list(max_flow_integral(net))
        assert [r for r, _ in mapping] == list(range(m))  # one slot type per round
        flow[m], flow[m + 1] = 2, 0
        with pytest.raises(ValueError, match="at most one unit"):
            _apply(state, tuple(flow), mapping)

        state = _apply(state, max_flow_integral(net), mapping)
        net, mapping = _step_parts(state)
        flow = list(max_flow_integral(net))
        round0 = [m + k for k, (r, _) in enumerate(mapping) if r == 0]
        assert len(round0) == 2 and sum(flow[e] for e in round0) == 1
        for e in round0:
            flow[e] = 1
        with pytest.raises(ValueError, match="at most one unit"):
            _apply(state, tuple(flow), mapping)

    def test_apply_step_full_run_matches_build(self):
        state = PartialState.initial(4)
        for _ in range(4):
            net, mapping = _step_parts(state)
            seed = insertion_seed(state, net, mapping)
            state = _apply(state, round_flow(net, seed).numerators, mapping)
        assert list(slot_table(state)[0]) == [(3, 2, 1, 0)]

    def test_apply_step_rejects_a_starved_forced_round(self):
        # n=5: one round misses element 0, so it must take element 1; hand its
        # unit to a round that may take element 1 but did not
        state = PartialState.initial(5)
        net, mapping = _step_parts(state)
        state = _apply(state, max_flow_integral(net), mapping)
        net, mapping = _step_parts(state)
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
            _apply(state, tuple(flow), mapping)

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
            check_invariants(state)


def _snapshot(state):
    return copy.deepcopy(
        (state.n, state.inserted, state.rows, state.mults, state.needed, state.closed)
    )


class TestIncrementalNetwork:
    """``_step_parts`` keeps its state in network order; the conftest
    ``reference_step_parts`` rebuilds each network from scratch."""

    @pytest.mark.parametrize("n", range(4, 18))
    def test_every_step_matches_the_reference(self, n):
        state = PartialState.initial(n)
        for _ in range(n):
            net, mapping = _step_parts(state)
            ref, ref_mapping = reference_step_parts(state)
            self._assert_same_network(net, mapping, ref, ref_mapping, len(state.rows))
            flow = max_flow_integral(net)
            assert flow == reference_max_flow(net)
            state = _apply(state, flow, mapping)
            check_invariants(state)
        assert not any(state.rows)

    @staticmethod
    def _assert_same_network(net, mapping, ref, ref_mapping, m):
        assert (net.node_count, net.source, net.sink) == (ref.node_count, ref.source, ref.sink)
        assert len(net.caps) == len(ref.caps)
        assert mapping == ref_mapping
        # round in-edges and the hub edge, node for node
        edges, ref_edges = net.edges, ref.edges
        assert edges[:m] == ref_edges[:m]
        assert edges[-1] == ref_edges[-1]
        # middle edges in order, with type nodes read as their subsets
        subset_of: dict[int, tuple[int, ...]] = {}
        ref_subset_of: dict[int, tuple[int, ...]] = {}
        middle = slice(m, m + len(mapping))
        for (r, s), u, v, c, ref_u, ref_v, ref_c in zip(
            mapping,
            net.tails[middle],
            net.heads[middle],
            net.caps[middle],
            ref.tails[middle],
            ref.heads[middle],
            ref.caps[middle],
        ):
            assert u == ref_u == 1 + r
            assert c == ref_c
            assert subset_of.setdefault(v, s) == s
            assert ref_subset_of.setdefault(ref_v, s) == s
        type_nodes = range(1 + m, net.sink)
        assert sorted(subset_of) == sorted(ref_subset_of) == list(type_nodes)
        # one sink edge per type, with the same capacity
        sink_edges = edges[m + len(mapping) : -1]
        ref_sink_edges = ref_edges[m + len(mapping) : -1]
        assert all(v == net.sink for _, v, _ in sink_edges + ref_sink_edges)
        sink_cap = {subset_of[u]: c for u, _, c in sink_edges}
        assert len(sink_cap) == len(sink_edges) == len(type_nodes)
        assert sink_cap == {ref_subset_of[u]: c for u, _, c in ref_sink_edges}


class TestApplyIsAllOrNothing:
    """A rejected flow leaves the state exactly as it was."""

    @staticmethod
    def _midway(n, steps):
        state = PartialState.initial(n)
        for _ in range(steps):
            net, mapping = _step_parts(state)
            state = _apply(state, max_flow_integral(net), mapping)
        net, mapping = _step_parts(state)
        return state, net, mapping, list(max_flow_integral(net))

    def _assert_rejected(self, state, flow, mapping, match):
        before = _snapshot(state)
        with pytest.raises(ValueError, match=match):
            _apply(state, tuple(flow), mapping)
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
        self._assert_rejected(state, flow, mapping, f"round {forced} must take element")

    def test_two_units_into_one_round(self):
        state, net, mapping, flow = self._midway(9, 3)
        m = len(state.rows)
        taken = [m + k for k, (r, _) in enumerate(mapping) if r == 0]
        assert len(taken) >= 2 and sum(flow[e] for e in taken) == 1
        for e in taken:
            flow[e] = 1
        self._assert_rejected(state, flow, mapping, "at most one unit")

    def test_flow_not_of_full_value(self):
        state, net, mapping, flow = self._midway(10, 4)
        m = len(state.rows)
        r = next(r for r in range(m) if flow[r])
        flow[r] = 0
        self._assert_rejected(state, flow, mapping, "full value")

    def test_accepted_flow_leaves_its_input_unchanged(self):
        state, net, mapping, flow = self._midway(11, 5)
        before = _snapshot(state)
        grown = _apply(state, tuple(flow), mapping)
        assert _snapshot(state) == before
        assert grown.inserted == state.inserted + 1
        check_invariants(grown)


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
