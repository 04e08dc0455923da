import copy
import random
import re
from fractions import Fraction
from math import comb

import pytest

from conftest import (
    FlowNetwork,
    ScaledFlow,
    check_flow,
    flow_choice,
    flow_value,
    insertion_seed,
    max_flow_integral,
    network,
    reference_max_flow,
    reference_step_parts,
    round_flow,
)
from paulisched.baranyai import PartialState, _apply


def test_network_validation():
    with pytest.raises(ValueError):
        network(2, 0, 0, ())
    with pytest.raises(ValueError):
        network(2, 0, 1, ((0, 0, 1),))
    with pytest.raises(ValueError):
        network(2, 0, 1, ((0, 1, -1),))
    with pytest.raises(ValueError):
        network(2, 0, 3, ((0, 1, 1),))


@pytest.mark.parametrize(
    "node_count, source, sink, edges, message",
    [
        (1, 0, 0, (), "network needs at least a source and a sink"),
        (3, 3, 1, (), "source id 3 out of range"),
        (3, -1, 1, (), "source id -1 out of range"),
        (3, 0, 3, (), "sink id 3 out of range"),
        (3, 0, -2, (), "sink id -2 out of range"),
        (3, 1, 1, (), "source and sink must differ"),
        (3, 0, 2, ((0, 1, 1), (1, 1, 1)), "self-loop at node 1"),
        (3, 0, 2, ((0, 1, 1), (1, 3, 1)), "edge (1, 3) out of range"),
        (3, 0, 2, ((-1, 1, 1),), "edge (-1, 1) out of range"),
        (3, 0, 2, ((0, 1, -1),), "capacity of edge (0, 1) must be a non-negative integer"),
        (3, 0, 2, ((0, 1, 1.5),), "capacity of edge (0, 1) must be a non-negative integer"),
        (3, 0, 2, ((0, 1, 2.0),), "capacity of edge (0, 1) must be a non-negative integer"),
        # two bad edges: the message names the first
        (3, 0, 2, ((0, 1, 1), (1, 2, -1), (2, 2, 1)), "capacity of edge (1, 2) must be a non-negative integer"),
        (3, 0, 2, ((0, 5, 1), (1, 2, -1)), "edge (0, 5) out of range"),
        (3, 0, 2, ((2, 2, 1.5), (0, 1, -1)), "self-loop at node 2"),
        # one edge, several faults: self-loop before range before capacity
        (3, 0, 2, ((4, 4, -1),), "self-loop at node 4"),
        (3, 0, 2, ((0, 4, -1),), "edge (0, 4) out of range"),
    ],
)
def test_network_rejection_messages(node_count, source, sink, edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        network(node_count, source, sink, edges)


def test_network_columns():
    net = FlowNetwork(3, 0, 2, [0, 1], [1, 2], [4, 5])
    assert (net.tails, net.heads, net.caps) == ((0, 1), (1, 2), (4, 5))
    assert net.edges == ((0, 1, 4), (1, 2, 5))
    assert net == network(3, 0, 2, ((0, 1, 4), (1, 2, 5)))
    with pytest.raises(ValueError, match="^edge columns differ in length: 1 tails, 2 heads, 1 capacities$"):
        FlowNetwork(3, 0, 2, (0,), (1, 2), (1,))


def test_network_accepts_int_subclass_capacities():
    class Capacity(int):
        pass

    net = network(3, 0, 2, ((0, 1, True), (1, 2, Capacity(3))))
    assert net.edges == ((0, 1, True), (1, 2, 3))
    assert max_flow_integral(net) == (1, 1)


class TestMaxFlow:
    def test_single_edge(self):
        net = network(2, 0, 1, ((0, 1, 5),))
        flow = max_flow_integral(net)
        assert flow_value(net, flow) == 5

    def test_two_disjoint_unit_paths(self):
        net = network(4, 0, 3, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)))
        flow = max_flow_integral(net)
        assert flow_value(net, flow) == 2
        check_flow(net, flow)

    def test_bottleneck(self):
        net = network(4, 0, 3, ((0, 1, 4), (0, 2, 4), (1, 3, 1), (2, 3, 2)))
        assert flow_value(net, max_flow_integral(net)) == 3

    def test_scheduler_networks_reach_full_value(self):
        # Dinic, whose choice the construction makes, against rounding of
        # the seed, the reference: both must reach the seed's full value and
        # be insertable.
        for n in (8, 12):
            state = PartialState.initial(n)
            for _ in range(n):
                net, mapping = reference_step_parts(state)
                seed = insertion_seed(state, net, mapping)
                flow = max_flow_integral(net)
                rounded = round_flow(net, seed)
                assert flow_value(net, flow) == flow_value(net, rounded) == comb(n - 1, 3)
                assert flow_value(net, seed) == comb(n - 1, 3)
                _apply(copy.deepcopy(state), flow_choice(state, rounded.numerators, mapping))
                _apply(state, flow_choice(state, flow, mapping))


class TestSameFlowsAsRecursiveDinic:
    """``max_flow_integral`` augments along the reference's paths, in its order."""

    @pytest.mark.parametrize("n", [8, 10, 12, 16])
    def test_insertion_networks(self, n):
        state = PartialState.initial(n)
        for _ in range(n):
            net, mapping = reference_step_parts(state)
            flow = max_flow_integral(net)
            assert flow == reference_max_flow(net)
            _apply(state, flow_choice(state, flow, mapping))

    def test_random_two_layer_networks(self, fractional_case_maker):
        rng = random.Random(7)
        for _ in range(200):
            net, _ = fractional_case_maker(rng)
            assert max_flow_integral(net) == reference_max_flow(net)

    def test_reverse_edge_augmentation(self):
        # Phase 1 sends s -> a -> b -> t and blocks c -> b; phase 2 reaches t
        # only as s -> c -> b -> a -> d -> e -> t, undoing a -> b.
        s, a, b, c, d, e, t = range(7)
        edges = ((s, a, 1), (s, c, 1), (a, b, 1), (c, b, 1), (b, t, 1), (a, d, 1), (d, e, 1), (e, t, 1))
        net = network(7, s, t, edges)
        flow = max_flow_integral(net)
        assert flow == reference_max_flow(net)
        assert flow == (1, 1, 0, 1, 1, 1, 1, 1)

    def test_reverse_edge_with_partial_capacity(self):
        # the middle edge carries 2 after phase 1 and gives 1 of it back
        s, a, b, c, d, t = range(6)
        edges = ((s, a, 2), (s, c, 1), (a, b, 2), (c, b, 1), (b, t, 2), (a, d, 1), (d, t, 1), (c, d, 0))
        net = network(6, s, t, edges)
        flow = max_flow_integral(net)
        assert flow == reference_max_flow(net)
        assert flow_value(net, flow) == 3
        assert flow[2] == 1

    def test_random_general_networks(self):
        # parallel, antiparallel and zero-capacity edges, and cycles
        rng = random.Random(3)
        for _ in range(300):
            size = rng.randint(2, 9)
            edges = []
            for _ in range(rng.randint(0, 3 * size)):
                u, v = rng.sample(range(size), 2)
                edges.append((u, v, rng.randint(0, 5)))
            net = network(size, 0, size - 1, tuple(edges))
            flow = max_flow_integral(net)
            assert flow == reference_max_flow(net)
            check_flow(net, flow)


class TestCheckFlow:
    def test_capacity_violation(self):
        net = network(2, 0, 1, ((0, 1, 1),))
        with pytest.raises(ValueError):
            check_flow(net, ScaledFlow(2, (3,)))

    def test_conservation_violation(self):
        net = network(3, 0, 2, ((0, 1, 2), (1, 2, 2)))
        with pytest.raises(ValueError):
            check_flow(net, ScaledFlow(1, (2, 1)))

    def test_length_mismatch(self):
        net = network(2, 0, 1, ((0, 1, 1),))
        with pytest.raises(ValueError):
            check_flow(net, ScaledFlow(1, (1, 1)))


class TestRoundFlow:
    def test_already_integral_returned_unchanged(self):
        net = network(3, 0, 2, ((0, 1, 2), (1, 2, 2)))
        rounded = round_flow(net, ScaledFlow(3, (6, 6)))
        assert rounded == ScaledFlow(1, (2, 2))

    def test_half_cycle_rounds_to_a_valid_assignment(self):
        # s -> a -> {b, c} -> d -> t with both middle routes at 1/2
        edges = ((0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1), (4, 5, 1))
        net = network(6, 0, 5, edges)
        seed = ScaledFlow(2, (2, 1, 1, 1, 1, 2))
        rounded = round_flow(net, seed)
        check_flow(net, rounded)
        assert flow_value(net, rounded) == 1
        assert rounded.numerators in ((1, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 1))

    def test_fractional_terminal_edge_rejected(self):
        net = network(3, 0, 2, ((0, 1, 1), (1, 2, 1)))
        with pytest.raises(ValueError):
            round_flow(net, ScaledFlow(2, (1, 1)))

    def test_infeasible_seed_rejected(self):
        net = network(3, 0, 2, ((0, 1, 1), (1, 2, 1)))
        with pytest.raises(ValueError):
            round_flow(net, ScaledFlow(2, (4, 4)))

    def test_scheduler_seeds_round_to_full_value(self):
        state = PartialState.initial(8)
        for _ in range(8):
            net, mapping = reference_step_parts(state)
            seed = insertion_seed(state, net, mapping)
            rounded = round_flow(net, seed)
            check_flow(net, rounded)
            assert flow_value(net, rounded) == flow_value(net, seed) == comb(7, 3)
            _apply(state, flow_choice(state, rounded.numerators, mapping))

    def test_deterministic(self, fractional_case_maker):
        rng = random.Random(5)
        for _ in range(25):
            net, seed = fractional_case_maker(rng)
            assert round_flow(net, seed) == round_flow(net, seed)

    def test_random_two_layer_property(self, fractional_case_maker):
        rng = random.Random(20240817)
        for case in range(200):
            net, seed = fractional_case_maker(rng)
            value = flow_value(net, seed)
            rounded = round_flow(net, seed)
            check_flow(net, rounded)
            assert rounded.denominator == 1
            assert flow_value(net, rounded) == value, f"case {case} changed value"
            assert value == Fraction(int(value))  # terminal edges were integral
