"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb
from time import perf_counter

import pytest

from conftest import (
    abs_squared,
    flow_choice,
    flow_value,
    insertion_seed,
    make_fractional_case,
    max_flow_integral,
    pattern_of,
    reference_step_parts,
    round_flow,
    strings_of,
)
from paulisched import partition
from paulisched.baranyai import PartialState, _apply, _insertion_choice, build_schedule
from paulisched.cli import main as cli_main
from paulisched.oracles import (
    FermionicTerm,
    anticommuting_chain_fixture,
    commutes,
    jw_term,
    validate_families,
    validate_partition,
    validate_schedule,
    verify_disjoint_term_commutation,
    verify_jw_against_matrices,
)
from paulisched.partition import commuting_families, schedule_for
from paulisched.baranyai import Schedule

# Hand-entered reference pairing for n = 8: every round couples a 4-subset
# with its complement, covering all 70 subsets in 35 rounds.  Used as an
# external validity fixture, independent of the construction in this package.
REFERENCE_ROUNDS_8 = [
    ((7, 5, 3, 0), (6, 4, 2, 1)),
    ((6, 5, 3, 0), (7, 4, 2, 1)),
    ((7, 6, 3, 0), (5, 4, 2, 1)),
    ((7, 4, 3, 0), (6, 5, 2, 1)),
    ((7, 5, 4, 0), (6, 3, 2, 1)),
    ((6, 4, 3, 0), (7, 5, 2, 1)),
    ((6, 5, 4, 0), (7, 3, 2, 1)),
    ((7, 6, 4, 0), (5, 3, 2, 1)),
    ((5, 4, 3, 0), (7, 6, 2, 1)),
    ((7, 6, 5, 0), (4, 3, 2, 1)),
    ((7, 5, 1, 0), (6, 4, 3, 2)),
    ((7, 5, 2, 0), (6, 4, 3, 1)),
    ((6, 5, 1, 0), (7, 4, 3, 2)),
    ((6, 5, 2, 0), (7, 4, 3, 1)),
    ((7, 6, 1, 0), (5, 4, 3, 2)),
    ((7, 4, 1, 0), (6, 5, 3, 2)),
    ((7, 6, 2, 0), (5, 4, 3, 1)),
    ((7, 3, 1, 0), (6, 5, 4, 2)),
    ((7, 4, 2, 0), (6, 5, 3, 1)),
    ((6, 4, 1, 0), (7, 5, 3, 2)),
    ((6, 3, 1, 0), (7, 5, 4, 2)),
    ((7, 3, 2, 0), (6, 5, 4, 1)),
    ((5, 3, 1, 0), (7, 6, 4, 2)),
    ((6, 4, 2, 0), (7, 5, 3, 1)),
    ((5, 4, 1, 0), (7, 6, 3, 2)),
    ((4, 3, 1, 0), (7, 6, 5, 2)),
    ((6, 3, 2, 0), (7, 5, 4, 1)),
    ((7, 2, 1, 0), (6, 5, 4, 3)),
    ((5, 3, 2, 0), (7, 6, 4, 1)),
    ((6, 2, 1, 0), (7, 5, 4, 3)),
    ((5, 2, 1, 0), (7, 6, 4, 3)),
    ((5, 4, 2, 0), (7, 6, 3, 1)),
    ((4, 2, 1, 0), (7, 6, 5, 3)),
    ((4, 3, 2, 0), (7, 6, 5, 1)),
    ((3, 2, 1, 0), (7, 6, 5, 4)),
]

TERM_RE = re.compile(r"a\+(\d+) a\+(\d+) a-(\d+) a-(\d+)")


def note(cid: int, message: str) -> None:
    print(f"criterion {cid}: PASS - {message}")


def test_criterion_1_schedule_reproduction(capsys):
    partition._SCHEDULE_CACHE.clear()
    begin = perf_counter()
    code = cli_main(["schedule", "--n", "8"])
    elapsed = perf_counter() - begin
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == comb(7, 3) == 35
    rounds = []
    for line in lines:
        terms = line.split("    ")
        assert len(terms) == 2
        subsets = []
        for term in terms:
            match = TERM_RE.fullmatch(term)
            assert match, term
            subsets.append(tuple(int(g) for g in match.groups()))
        assert not (set(subsets[0]) & set(subsets[1]))
        rounds.append(subsets)
    covered = {frozenset(s) for rnd in rounds for s in rnd}
    assert len(covered) == comb(8, 4) == 70
    assert sum(len(r) for r in rounds) == 70

    # transcription self-check, then the fixture must validate as well
    assert {frozenset(frozenset(s) for s in rnd) for rnd in REFERENCE_ROUNDS_8} == {
        frozenset((frozenset(sub), frozenset(range(8)) - frozenset(sub)))
        for sub in combinations(range(8), 4)
    }
    fixture = Schedule.from_rounds(8, REFERENCE_ROUNDS_8)
    report = validate_schedule(fixture)
    assert report.passed, report.counterexample

    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        note(1, f"35 disjoint rounds covering all 70 subsets in {elapsed * 1000:.0f} ms; fixture valid")


def test_criterion_2_exhaustive_disjoint_commutation(capsys):
    begin = perf_counter()
    report = verify_disjoint_term_commutation()
    elapsed = perf_counter() - begin
    assert report.passed, report.counterexample
    assert report.details["cases"] == 70
    assert report.details["cross_pairs"] == 70 * 256
    assert all(count % 2 == 0 for count in report.details["count_histogram"])
    assert report.details["min_count"] == 0
    assert report.details["max_count"] == 6
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        note(2, f"70 cases x 256 pairs all commute, counts span 0..6, {elapsed:.2f}s")


def test_criterion_3_jw_correctness(capsys):
    for n in (4, 5):
        report = verify_jw_against_matrices(n)
        assert report.passed, report.counterexample
        assert report.details["max_deviation"] == 0.0
        for a, b, c, d in combinations(range(n), 4):
            term = FermionicTerm((d, c), (b, a), n)
            strings = jw_term(term)
            assert len(strings) == 16
            assert all(abs_squared(w.coefficient) == Fraction(1, 256) for w in strings)
            pattern = pattern_of(term)
            assert all(pattern.matches(w.string) for w in strings)
    with capsys.disabled():
        note(3, "all one- and two-body terms at n=4,5 match the dense operator exactly")


def test_criterion_4_family_certification(capsys):
    timings = {}
    for n in (4, 8, 12):
        partition._SCHEDULE_CACHE.clear()
        begin = perf_counter()
        families = [f for f in commuting_families(schedule_for(n)) if f.origin == "dominant"]
        report = validate_families(families)
        timings[n] = perf_counter() - begin
        assert report.passed, report.counterexample
        assert len(families) == 2 * comb(n - 1, 3)
        assert all(len(strings_of(f)) == 2 * n for f in families)
    assert timings[12] < 60.0, f"n=12 took {timings[12]:.1f}s"
    with capsys.disabled():
        note(4, f"counts 2*C(N-1,3), sizes 2N, all pairs commute; n=12 in {timings[12]:.1f}s")


def test_criterion_5_scaling(capsys):
    for n in (8, 12, 16, 20):
        families = [f for f in commuting_families(schedule_for(n)) if f.origin == "dominant"]
        rounds = comb(n - 1, 3)
        assert len(families) / rounds == 2.0
        strings = sum(len(f.rows) for f in families)
        assert strings == 16 * comb(n, 4)
        assert strings / len(families) == 2 * n
        assert Fraction(16 * comb(n, 4), 2 * comb(n - 1, 3)) == 2 * n
    with capsys.disabled():
        note(5, "families/C(N-1,3) = 2 and strings/family = 2N for N in {8,12,16,20}")


def test_criterion_6_flow_engine_equivalence(capsys):
    state = PartialState.initial(8)
    for _ in range(8):
        net, mapping = reference_step_parts(state)
        rounded = round_flow(net, insertion_seed(state, net, mapping))
        recomputed = max_flow_integral(net)
        assert flow_value(net, rounded) == flow_value(net, recomputed) == 35
        assert _insertion_choice(state) == flow_choice(state, recomputed, mapping)
        _apply(state, flow_choice(state, rounded.numerators, mapping))
    with capsys.disabled():
        note(6, "all 8 insertion networks: rounded value == recomputed value == 35, "
                "solver choice == Dinic's")


def test_criterion_7_rounding_contract(capsys):
    rng = random.Random(20240817)
    failures = 0
    for _ in range(1000):
        net, seed = make_fractional_case(rng)
        value = flow_value(net, seed)
        rounded = round_flow(net, seed)  # raises on infeasibility
        if rounded.denominator != 1 or flow_value(net, rounded) != value:
            failures += 1
    assert failures == 0
    with capsys.disabled():
        note(7, "1000 randomized two-layer roundings: integral, feasible, value-preserving")


def test_criterion_8_negative_fixture(capsys):
    for n in range(1, 9):
        chain = anticommuting_chain_fixture(n)
        assert len(chain) == 2 * n
        for a, b in combinations(chain, 2):
            assert not commutes(a, b)
    with capsys.disabled():
        note(8, "Z*(X|Y)I* chains for n=1..8 contain no commuting pair")


def test_criterion_9_padding(capsys):
    for n in (5, 6, 7, 9):
        schedule = build_schedule(n)
        report = validate_schedule(schedule)
        assert report.passed, report.counterexample
        assert sum(len(r) for r in schedule.rounds) == comb(n, 4)
    with capsys.disabled():
        note(9, "builds for n in {5,6,7,9} exact-cover with disjoint rounds")


@pytest.mark.parametrize("n", range(4, 23))
def test_criterion_9_counting_bound(capsys, n):
    schedule = schedule_for(n)
    assert schedule.n == n
    assert len(schedule.rounds) == math.ceil(comb(n, 4) / (n // 4))
    report = validate_schedule(schedule)
    assert report.passed, report.counterexample
    assert sum(len(r) for r in schedule.rounds) == comb(n, 4)
    if n <= 14:
        partition_report = validate_partition(commuting_families(schedule), n)
        assert partition_report.passed, partition_report.counterexample
    with capsys.disabled():
        note(9, f"n={n}: ceil(C(n,4)/floor(n/4)) = {len(schedule.rounds)} disjoint rounds, exact cover")


def test_criterion_10_runtime_scaling(capsys):
    def timed(n: int, repeats: int) -> float:
        best = math.inf
        for _ in range(repeats):
            begin = perf_counter()
            build_schedule(n)
            best = min(best, perf_counter() - begin)
        return best

    measured = {8: timed(8, 5), 16: timed(16, 2), 24: timed(24, 1)}
    model = {n: n**5 * math.log(n) for n in measured}
    summaries = []
    for small, large in ((8, 16), (16, 24)):
        measured_ratio = measured[large] / measured[small]
        model_ratio = model[large] / model[small]
        rel = measured_ratio / model_ratio
        summaries.append(f"{small}->{large}: x{measured_ratio:.1f} vs model x{model_ratio:.1f}")
        assert 0.25 <= rel <= 4.0, (
            f"growth {small}->{large} off the N^5 log N model by more than 4x: "
            f"measured x{measured_ratio:.1f}, model x{model_ratio:.1f}"
        )
    with capsys.disabled():
        note(10, "; ".join(summaries))
