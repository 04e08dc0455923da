import gc
import json
import re
import threading
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from conftest import (
    abs_squared,
    family_of,
    has_distinct_indices,
    is_two_body,
    reference_fold,
    reference_from_entries,
    reference_jw_term,
    reference_save_families,
    seeded_hermitian_entries,
    support,
    write_coefficients,
)
from paulisched.baranyai import Schedule, build_schedule
from paulisched.cli import build_parser
from paulisched.fermion import FermionicTerm, jw_image, jw_term, weighted_strings
from paulisched.oracles import validate_families, validate_partition, validate_schedule
from paulisched.partition import (
    CoefficientsLoadError,
    CommutingFamily,
    FamiliesWriteError,
    FamilyCertificationError,
    HamiltonianCoefficients,
    ScheduleLoadError,
    _blocks,
    _certified,
    _family_chunks,
    _y_parity,
    build_partition,
    commuting_families,
    load_coefficients,
    read_schedule_file,
    save_families,
    schedule_for,
    schedule_json,
    write_replacing,
)
from paulisched.pauli import ExactComplex, WeightedPauliString, commutes, parse_pauli


def _dominant(schedule, coeffs=None):
    return [f for f in commuting_families(schedule, coeffs) if f.origin == "dominant"]


def _residual(schedule, coeffs=None):
    return [f for f in commuting_families(schedule, coeffs) if f.origin == "residual"]


class TestDominantFamilies:
    def test_single_round_register(self):
        families = _dominant(build_schedule(4))
        assert len(families) == 2
        assert all(len(f.strings) == 8 for f in families)
        assert validate_families(families).passed

    def test_eight_modes_counts_and_coverage(self):
        families = _dominant(build_schedule(8))
        assert len(families) == 2 * comb(7, 3) == 70
        assert all(len(f.strings) == 16 for f in families)
        covered = [w.string for f in families for w in f.strings]
        assert len(covered) == len(set(covered)) == 16 * comb(8, 4)
        assert validate_families(families).passed

    def test_parity_halves_of_one_term_each_commute(self):
        term = FermionicTerm.two_body(7, 5, 3, 0, 8)
        halves = ([], [])
        for w in jw_term(term):
            y_count = (w.string.x & w.string.z).bit_count()
            halves[y_count % 2].append(w.string)
        assert len(halves[0]) == len(halves[1]) == 8
        for half in halves:
            assert all(commutes(a, b) for a, b in combinations(half, 2))
        # across halves nothing commutes within one term
        assert not any(commutes(a, b) for a in halves[0] for b in halves[1])

    def test_provenance_terms_create_top_modes(self):
        families = _dominant(build_schedule(8))
        for family in families:
            for term in family.provenance:
                assert term.creates > term.annihilates

    def test_bit_identical_between_runs(self):
        first = list(commuting_families(build_schedule(8)))
        second = list(commuting_families(build_schedule(8)))
        assert first == second


class TestResidualFamilies:
    def test_every_family_certified(self):
        families = _residual(build_schedule(4))
        assert validate_families(families).passed

    def test_anticommuting_pair_fails_certification(self):
        strings = [WeightedPauliString(ExactComplex(1), parse_pauli(t)) for t in ("XI", "ZI")]
        with pytest.raises(FamilyCertificationError):
            _certified(family_of(strings))
        # only the last pair of a longer family anticommutes
        texts = ("ZIII", "IZII", "ZZII", "IIII", "ZIIZ", "IIXI", "IIZI")
        strings = [WeightedPauliString(ExactComplex(1), parse_pauli(t)) for t in texts]
        _certified(family_of(strings[:-1]))
        with pytest.raises(FamilyCertificationError, match="IIXI and IIZI"):
            _certified(family_of(strings))

    def test_off_diagonal_one_body_splits_into_two_pairs(self):
        # unweighted, the hopping and its adjoint share one block and fold
        # to (XX + YY) / 2: the odd-Y half cancels
        (pair,) = [f for f in _residual(Schedule(2, ())) if f.strings[0].string.x == 0b11]
        assert [str(w.string) for w in pair.strings] == ["XX", "YY"]
        assert [(t.creates, t.annihilates) for t in pair.provenance] == [((0,), (1,)), ((1,), (0,))]
        # the hopping on its own keeps both halves
        coeffs = HamiltonianCoefficients.from_entries(2, [((1, 0), 1)], [])
        halves = _residual(Schedule(2, ()), coeffs)
        assert [len(f.strings) for f in halves] == [2, 2]
        texts = {str(w.string) for f in halves for w in f.strings}
        assert texts == {"XX", "YY", "XY", "YX"}
        assert all([(t.creates, t.annihilates) for t in f.provenance] == [((1,), (0,))] for f in halves)

    def test_diagonal_terms_pool_into_one_family(self):
        families = _residual(Schedule(3, ()))
        pooled = [f for f in families if all(w.string.x == 0 for w in f.strings)]
        assert len(pooled) == 1
        diag_terms = {t.creates for t in pooled[0].provenance if len(t.creates) == 1}
        assert diag_terms == {(0,), (1,), (2,)}

    def test_count_bound_and_frozen_count_at_8(self):
        families = _residual(build_schedule(8))
        # the I/Z block (1) and one family per mode pair (28): unweighted, the
        # sum is Hermitian and real, so every odd-Y string cancels
        assert len(families) == 1 + comb(8, 2) == 29
        assert len(families) <= 1 + 2 * comb(8, 2)
        masks, strings = [], []
        for family in families:
            assert len({w.string.x for w in family.strings}) == 1
            assert {_y_parity(w.string.x, w.string.z) for w in family.strings} == {0}
            masks.append(family.strings[0].string.x)
            strings += [w.string for w in family.strings]
        assert masks == sorted(masks) and len(set(masks)) == len(masks)  # ascending X mask
        assert {m.bit_count() for m in masks} == {0, 2}
        assert len(strings) == len(set(strings)) == 419

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_string_of_a_block_has_its_x_mask(self, n):
        for mask, entries in _blocks(n, None).items():
            assert mask.bit_count() in (0, 2, 4)
            for term, _ in entries:
                assert all(w.string.x == mask for w in jw_term(term))

    def test_zero_filter(self):
        coeffs = HamiltonianCoefficients.from_entries(
            4, [((1, 0), 0.5)], [(((3, 2, 2, 0)), 1.0)]
        )
        families = _residual(build_schedule(4), coeffs)
        kinds = sorted((t.creates, t.annihilates) for f in families for t in f.provenance)
        assert kinds == [((1,), (0,)), ((1,), (0,)), ((3, 2), (2, 0)), ((3, 2), (2, 0))]

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            commuting_families(Schedule(0, ()))


class TestOnePass:
    """Any schedule yields a true partition: it only decides the packing."""

    def test_empty_schedule_leaves_every_block_a_unit(self):
        families = list(commuting_families(Schedule(8, ())))
        # two Y halves per 4-subset block, then the 29 residual families
        assert len(families) == 2 * comb(8, 4) + 29 == 169
        dominant = [f for f in families if f.origin == "dominant"]
        assert len(dominant) == 140
        masks = [f.strings[0].string.x for f in families]
        assert masks == sorted(masks)  # one block per unit, ascending X mask
        assert all(len({w.string.x for w in f.strings}) == 1 for f in families)
        assert {f.strings[0].string.x.bit_count() for f in dominant} == {4}
        assert validate_families(families).passed
        report = validate_partition(families, 8)
        assert report.passed, report.counterexample

    def test_weighted_with_empty_schedule(self):
        coeffs = HamiltonianCoefficients.from_entries(8, *seeded_hermitian_entries(8, seed=11))
        families = list(commuting_families(Schedule(8, ()), coeffs))
        assert {f.origin for f in families} == {"dominant", "residual"}
        report = validate_partition(families, 8, coeffs)
        assert report.passed, report.counterexample

    @pytest.mark.parametrize("rnd", [
        ((7, 6, 5, 4), (7, 3, 2, 1)),  # the second subset overlaps the first
        ((0, 0, 1, 1),),  # repeated modes: its bits sum to the pair mask 0b110
    ])
    def test_malformed_subset_adds_nothing(self, rnd):
        families = list(commuting_families(Schedule(8, (rnd,))))
        report = validate_partition(families, 8)
        assert report.passed, report.counterexample
        dominant = [f for f in families if f.origin == "dominant"]
        assert all({w.string.x.bit_count() for w in f.strings} == {4} for f in dominant)
        # every 4-subset block is in exactly two dominant families
        assert len(dominant) == 2 * comb(8, 4)

    def test_repeated_round_takes_its_blocks_once(self):
        rounds = list(build_schedule(8).rounds)
        rounds[1] = rounds[0]  # round 0 twice, round 1's subsets in none
        schedule = Schedule(8, tuple(rounds))
        assert not validate_schedule(schedule).passed
        families = list(commuting_families(schedule))
        # 34 distinct rounds and the two subsets left over, each a unit
        assert len([f for f in families if f.origin == "dominant"]) == 2 * 34 + 2 * 2
        report = validate_partition(families, 8)
        assert report.passed, report.counterexample


class TestCoefficients:
    def test_two_body_normal_ordering_signs(self):
        coeffs = HamiltonianCoefficients.from_entries(
            8, [], [((5, 7, 3, 0), 1.0), ((7, 5, 0, 3), 2.0)]
        )
        # both reorder into (7,5,3,0): the first with one swap, the second too
        assert coeffs.two_body == {(7, 5, 3, 0): Fraction(-3)}

    def test_vanishing_and_cancelling_entries_drop(self):
        coeffs = HamiltonianCoefficients.from_entries(
            8, [((1, 1), 0.0)], [((7, 7, 3, 0), 5.0), ((7, 5, 3, 0), 1.0), ((5, 7, 3, 0), 1.0)]
        )
        assert coeffs.one_body == {}
        assert coeffs.two_body == {}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            HamiltonianCoefficients.from_entries(4, [((4, 0), 1.0)], [])

    def test_filtering_keeps_only_supported_subsets(self):
        coeffs = HamiltonianCoefficients.from_entries(8, [], [((7, 5, 3, 0), 0.5)])
        families = list(commuting_families(build_schedule(8), coeffs))
        assert len(families) == 2
        strings = [w for f in families for w in f.strings]
        assert len(strings) == 16
        assert all(w.string.x == 0b10101001 for w in strings)
        assert all(abs_squared(w.coefficient) == Fraction(1, 1024) for w in strings)
        for family in families:
            assert [support(t) for t in family.provenance] == [(0, 3, 5, 7)]

    def test_all_zero_filter_drops_everything(self):
        coeffs = HamiltonianCoefficients.from_entries(8, [], [])
        assert list(commuting_families(build_schedule(8), coeffs)) == []

    def test_same_support_entries_accumulate_per_string(self):
        # two different dagger placements on one support add up string-wise
        coeffs = HamiltonianCoefficients.from_entries(
            8, [], [((7, 5, 3, 0), 1.0), ((7, 3, 5, 0), 1.0)]
        )
        families = list(commuting_families(build_schedule(8), coeffs))
        strings = [w for f in families for w in f.strings]
        # the two expansions share the 16-string support but interfere, so
        # some strings may cancel; whatever remains must still be certified
        assert 0 < len(strings) <= 16
        assert validate_families(families).passed

    def test_coefficients_for_another_n_rejected(self):
        coeffs = HamiltonianCoefficients.from_entries(4, [], [])
        with pytest.raises(ValueError, match="n=4"):
            commuting_families(build_schedule(8), coeffs)
        with pytest.raises(ValueError, match="n=4"):
            build_partition(8, coeffs)


def _scaled(term, value):
    return [(w.string, w.coefficient * ExactComplex(value)) for w in reference_jw_term(term)]


def _table_key(term):
    """Table order: one-body entries, then two-body entries, each by sorted key."""
    return is_two_body(term), term.creates + term.annihilates


def _x_mask(term):
    mask = 0
    for m in term.creates + term.annihilates:
        mask ^= 1 << m
    return mask


def _written_both_ways(families, tmp_path) -> tuple[bytes, bytes]:
    """The bytes of ``save_families`` and of the whole-payload reference writer."""
    streamed, reference = tmp_path / "streamed.json", tmp_path / "reference.json"
    save_families(list(families), streamed)
    reference_save_families(families, reference)
    return streamed.read_bytes(), reference.read_bytes()


class TestWeightedFold:
    """Weighted families against the symbolic reference expansion, exactly."""

    def test_fold_sums_drops_zeros_and_sorts(self):
        hop = FermionicTerm.one_body(1, 0, 2)
        n0, n1 = FermionicTerm.one_body(0, 0, 2), FermionicTerm.one_body(1, 1, 2)
        entries = [(hop, Fraction(2)), (n0, Fraction(1, 3)), (n1, Fraction(1)), (n0, Fraction(-1, 3))]
        folded = weighted_strings(2, *jw_image(entries))
        # n0 cancels, so ZI sums to zero; strings of later entries sort first
        assert [str(w.string) for w in folded] == ["II", "IZ", "XX", "XY", "YX", "YY"]
        want = {}
        for term, value in entries:
            for string, c in _scaled(term, value):
                want[string] = want.get(string, ExactComplex()) + c
        assert all(w.coefficient == want[w.string] for w in folded)
        assert weighted_strings(2, *jw_image([(hop, 1)])) == jw_term(hop)

    @pytest.fixture(scope="class", params=["hermitian", "one-sided"])
    def case(self, request):
        one, two = seeded_hermitian_entries(8, seed=11)
        if request.param == "one-sided":
            # every other entry, so odd-Y strings survive in both classes
            one, two = one[::2], two[::2]
        coeffs = HamiltonianCoefficients.from_entries(8, one, two)
        values = {FermionicTerm.one_body(p, q, 8): v for (p, q), v in coeffs.one_body.items()}
        values.update({FermionicTerm.two_body(*k, 8): v for k, v in coeffs.two_body.items()})
        return request.param, values, build_partition(8, coeffs).families

    def test_hermitian_table_loads(self, tmp_path):
        one, two = seeded_hermitian_entries(8, seed=11)
        path = write_coefficients(tmp_path / "h.json", 8, one, two)
        assert load_coefficients(path) == HamiltonianCoefficients.from_entries(8, one, two)

    def test_writer_matches_whole_payload_dump(self, case, tmp_path):
        _, _, families = case
        streamed, reference = _written_both_ways(families, tmp_path)
        assert streamed == reference

    def test_dominant_coefficients_are_exact_fold_sums(self, case):
        _, values, families = case
        expected = {}
        for term, value in values.items():
            if is_two_body(term) and has_distinct_indices(term):
                for string, c in _scaled(term, value):
                    expected[string] = expected.get(string, ExactComplex()) + c
        emitted = [(w.string, w.coefficient) for f in families if f.origin == "dominant" for w in f.strings]
        assert dict(emitted) == {s: c for s, c in expected.items() if c}
        assert len(dict(emitted)) == len(emitted)  # one slot per string
        assert any(not c for c in expected.values())  # some strings do sum to zero

        # per round, each half holds its subsets' strings in subset order,
        # text-sorted within a subset; its provenance is every entry on the
        # subsets that put a string into it, in table order; empty halves
        # are absent
        rows = []
        for rnd in schedule_for(8).rounds:
            for parity in (0, 1):
                strings, terms = [], []
                for subset in rnd:
                    mask = sum(1 << m for m in subset)
                    mine = [s for s, c in expected.items()
                            if c and s.x == mask and (s.x & s.z).bit_count() % 2 == parity]
                    if mine:
                        strings += sorted(mine, key=lambda s: s.text())
                        terms += sorted(
                            (t for t in values if is_two_body(t) and set(support(t)) == set(subset)),
                            key=_table_key,
                        )
                if strings:
                    rows.append((strings, terms))
        dominant = [f for f in families if f.origin == "dominant"]
        assert [([w.string for w in f.strings], list(f.provenance)) for f in dominant] == rows

    def test_residual_coefficients_are_exact_term_multiples(self, case):
        kind, values, families = case
        # blocks: the residual terms keyed by the XOR of their mode bits
        blocks = {}
        for term in sorted(values, key=_table_key):
            if not (is_two_body(term) and has_distinct_indices(term)):
                blocks.setdefault(_x_mask(term), []).append(term)
        # per block in ascending mask order, the even-Y and then the odd-Y
        # strings of its exact fold, text-sorted; each half's provenance is
        # every term of the block; empty halves are absent
        rows = []
        for mask in sorted(blocks):
            folded = {}
            for term in blocks[mask]:
                for string, c in _scaled(term, values[term]):
                    assert string.x == mask
                    folded[string] = folded.get(string, ExactComplex()) + c
            for parity in (0, 1):
                mine = sorted(
                    (s for s, c in folded.items() if c and (s.x & s.z).bit_count() % 2 == parity),
                    key=lambda s: s.text(),
                )
                if mine:
                    rows.append((mask, parity, [(s, folded[s]) for s in mine], blocks[mask]))
        residual = [f for f in families if f.origin == "residual"]
        got = [([(w.string, w.coefficient) for w in f.strings], list(f.provenance)) for f in residual]
        assert got == [(strings, terms) for _, _, strings, terms in rows]
        halves = Counter(mask for mask, _, _, _ in rows)
        if kind == "hermitian":
            # a real Hermitian sum has no odd-Y string
            assert {parity for _, parity, _, _ in rows} == {0}
        else:
            # the one-sided table keeps both Y halves per pair
            assert all(halves[mask] == 2 for mask in blocks if mask)
        listed = {t for f in residual for t in f.provenance}
        assert listed == {t for t in values if not (is_two_body(t) and has_distinct_indices(t))}


def _one_sided(one, two):
    """Every other entry of a Hermitian table, so odd-Y strings survive."""
    return one[::2], two[::2]


class TestIntegerFold:
    """``jw_image`` on integer numerators against the per-string Fraction fold, exactly."""

    @staticmethod
    def _assert_matches_reference(block):
        # the symbolic expansions, so a block of one term at value 1 checks
        # the builder too, not jw_term against itself
        want = reference_fold([(reference_jw_term(term), value) for term, value in block])
        assert weighted_strings(block[0][0].n, *jw_image(block)) == want

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("kind", ["unweighted", "hermitian", "one-sided"])
    def test_every_block(self, n, kind):
        coeffs = None
        if kind != "unweighted":
            one, two = seeded_hermitian_entries(n, seed=n)
            if kind == "one-sided":
                one, two = _one_sided(one, two)
            coeffs = HamiltonianCoefficients.from_entries(n, one, two)
        blocks = _blocks(n, coeffs)
        assert blocks
        for block in blocks.values():
            self._assert_matches_reference(block)

    def _pair_block(self, values):
        """Terms of X mask 0b11 on four modes, paired with ``values`` in turn."""
        terms = [
            FermionicTerm.one_body(1, 0, 4),
            FermionicTerm.one_body(0, 1, 4),
            FermionicTerm.two_body(2, 1, 2, 0, 4),
            FermionicTerm.two_body(3, 0, 3, 1, 4),
        ]
        assert {_x_mask(t) for t in terms} == {0b11}
        return list(zip(terms, values))

    @pytest.mark.parametrize("values", [
        [Fraction(1, 3), Fraction(-1, 6), Fraction(5, 7), Fraction(2)],
        [Fraction(-1, 6), Fraction(1, 3), 1, Fraction(1, 10**9 + 7)],
    ])
    def test_non_dyadic_values(self, values):
        self._assert_matches_reference(self._pair_block(values))

    @pytest.mark.parametrize("big", [Fraction(1.7e308), Fraction(10**300)])
    def test_values_at_the_float_range(self, big):
        self._assert_matches_reference(self._pair_block([big, -big, big, Fraction(1, 3)]))
        coeffs = HamiltonianCoefficients.from_entries(
            6, [((1, 0), big), ((0, 1), -big)], [((4, 1, 4, 0), big), ((5, 3, 2, 0), -big)]
        )
        for block in _blocks(6, coeffs).values():
            self._assert_matches_reference(block)

    def test_entries_that_cancel(self):
        hop, dressed = FermionicTerm.one_body(1, 0, 4), FermionicTerm.two_body(2, 1, 2, 0, 4)
        third = Fraction(1, 3)
        assert jw_image([(hop, third), (hop, -third)])[1] == [] == reference_fold(
            [(jw_term(hop), third), (jw_term(hop), -third)]
        )
        # a dressed hopping minus the bare one: only the Z-dressed part stays
        self._assert_matches_reference([(hop, third), (dressed, third), (hop, -third)])
        number = FermionicTerm.one_body(2, 2, 4)
        assert jw_image([(number, Fraction(1, 6)), (number, Fraction(-1, 6))])[1] == []


class TestIntegerCoefficientSums:
    """``from_entries`` summing once per key against the per-entry Fraction sum."""

    @staticmethod
    def _assert_matches_reference(n, one, two):
        got = HamiltonianCoefficients.from_entries(n, one, two)
        want = reference_from_entries(n, one, two)
        for table, reference in ((got.one_body, want.one_body), (got.two_body, want.two_body)):
            assert list(table.items()) == list(reference.items())  # insertion order too
            assert all(type(v) is Fraction for v in table.values())
        assert got == want

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_seeded_hermitian(self, n):
        self._assert_matches_reference(n, *seeded_hermitian_entries(n, seed=n))

    def test_duplicates_summing_to_zero(self):
        one = [((1, 0), 0.25), ((2, 2), 1.5), ((1, 0), -0.125), ((1, 0), -0.125)]
        two = [((3, 2, 1, 0), Fraction(1, 3)), ((3, 2, 1, 0), Fraction(-1, 3)), ((3, 1, 2, 0), 2)]
        self._assert_matches_reference(4, one, two)
        coeffs = HamiltonianCoefficients.from_entries(4, one, two)
        assert coeffs.one_body == {(2, 2): Fraction(3, 2)}
        assert coeffs.two_body == {(3, 1, 2, 0): Fraction(2)}

    def test_antisymmetric_orders_that_cancel(self):
        two = [((3, 2, 1, 0), 0.5), ((2, 3, 1, 0), 0.5), ((3, 1, 2, 0), 0.75), ((3, 1, 0, 2), 0.75),
               ((1, 3, 0, 2), 0.75), ((2, 1, 3, 1), 1)]
        self._assert_matches_reference(4, [], two)
        coeffs = HamiltonianCoefficients.from_entries(4, [], two)
        assert coeffs.two_body == {(3, 1, 2, 0): Fraction(3, 4), (2, 1, 3, 1): Fraction(1)}

    def test_mixed_value_types(self):
        one = [((0, 0), 1), ((0, 0), 0.1), ((0, 0), Fraction(1, 3)), ((1, 2), Fraction(-2, 7)),
               ((1, 2), 3), ((2, 1), 2.5e-300), ((2, 1), 10**300), ((3, 3), True)]
        two = [((3, 2, 1, 0), 0.1), ((2, 3, 1, 0), Fraction(1, 10)), ((3, 2, 0, 1), -7),
               ((3, 1, 1, 0), 1.7e308), ((1, 3, 1, 0), 1.7e308)]
        self._assert_matches_reference(4, one, two)

    def test_negative_zero(self):
        one = [((0, 1), -0.0), ((1, 1), -0.0), ((1, 1), 0.5)]
        two = [((3, 2, 1, 0), -0.0), ((2, 2, 1, 0), -0.0)]
        self._assert_matches_reference(4, one, two)
        assert HamiltonianCoefficients.from_entries(4, one, two).one_body == {(1, 1): Fraction(1, 2)}

    def test_same_error_for_a_bad_index(self):
        two = [((3, 2, 1, 0), 0.5), ((3, 2, 1, 4), 0.5)]
        with pytest.raises(ValueError) as got:
            HamiltonianCoefficients.from_entries(4, [((1, 0), 1)], two)
        with pytest.raises(ValueError) as want:
            reference_from_entries(4, [((1, 0), 1)], two)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("index", [1.0, True])
    def test_mode_index_that_is_not_an_int(self, index):
        # 1.0 used to fail only in the JW kernel, True to compile as mode 1;
        # an out-of-range index beside it does not change the message
        for one, two, shown in [
            ([((index, 0), 1)], [], [index, 0]),
            ([], [((3, 2, index, 7), 1)], [3, 2, index, 7]),
        ]:
            message = re.escape(f"mode indices must be integers, got {shown!r}")
            for build in (HamiltonianCoefficients.from_entries, reference_from_entries):
                with pytest.raises(ValueError, match=message):
                    build(4, one, two)


class TestPersistence:
    def test_schedule_round_trip(self, tmp_path):
        schedule = build_schedule(8)
        path = tmp_path / "sched8.json"
        path.write_text(schedule_json(schedule))
        assert read_schedule_file(path) == schedule

    def test_duplicated_subset_fails_validation(self, tmp_path):
        schedule = build_schedule(8)
        rounds = [[list(s) for s in rnd] for rnd in schedule.rounds]
        rounds[0][1] = rounds[1][0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 8, "rounds": rounds}))
        report = validate_schedule(read_schedule_file(path))
        assert not report.passed
        assert not report.details["checks"]["exact_cover"]

    def test_malformed_schedule_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ScheduleLoadError):
            read_schedule_file(path)
        path.write_text(json.dumps({"n": 4, "rounds": [[[3, 2, 1]]]}))
        with pytest.raises(ScheduleLoadError):
            read_schedule_file(path)
        rounds = [[list(s) for s in rnd] for rnd in build_schedule(8).rounds]
        path.write_text(json.dumps({"n": 8, "rounds": rounds}))
        assert read_schedule_file(path).n == 8

        def with_subset(values):
            members = sorted(int(v) for v in values)
            return [[values if sorted(s) == members else s for s in rnd] for rnd in rounds]

        # int() would accept each of these; none is a JSON integer
        for bad in (
            {"n": 8.9, "rounds": rounds},
            {"n": 8, "rounds": with_subset([7.5, 2.5, 1.5, 0.5])},
            {"n": 8, "rounds": with_subset(["7", "3", "1", "0"])},
            {"n": 8, "rounds": with_subset([7, 3, 1, False])},
        ):
            path.write_text(json.dumps(bad))
            with pytest.raises(ScheduleLoadError, match="integer"):
                read_schedule_file(path)
        path.write_text('{"n": ' + "8" * 5000 + ', "rounds": []}')
        with pytest.raises(ScheduleLoadError, match="cannot read"):
            read_schedule_file(path)

    def test_coefficients_file_round_trip(self, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(
            json.dumps(
                {
                    "n": 8,
                    "one_body": [
                        {"pq": [1, 0], "value": 0.25},
                        {"pq": [0, 1], "value": 0.25},
                    ],
                    "two_body": [
                        {"pqrs": [7, 5, 3, 0], "value": 0.5},
                        {"pqrs": [3, 0, 7, 5], "value": 0.5},
                    ],
                }
            )
        )
        coeffs = load_coefficients(path)
        assert coeffs.n == 8
        assert coeffs.one_body == {(1, 0): Fraction(1, 4), (0, 1): Fraction(1, 4)}
        assert coeffs.two_body == {(7, 5, 3, 0): Fraction(1, 2), (3, 0, 7, 5): Fraction(1, 2)}

    def test_malformed_coefficients_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"one_body": []}))
        with pytest.raises(CoefficientsLoadError):
            load_coefficients(path)
        path.write_text(json.dumps({"n": 8, "two_body": [{"pqrs": [1, 2], "value": 1}]}))
        with pytest.raises(CoefficientsLoadError):
            load_coefficients(path)
        # n and every mode index must be JSON integers
        for data in [
            {"n": 8.7},
            {"n": "8"},
            {"n": True},
            {"n": 8, "one_body": [{"pq": [1.5, 0], "value": 1}]},
            {"n": 8, "one_body": [{"pq": [True, 0], "value": 1}]},
            {"n": 8, "two_body": [{"pqrs": [7, 5, 3.0, 0], "value": 1}]},
        ]:
            path.write_text(json.dumps(data))
            with pytest.raises(CoefficientsLoadError):
                load_coefficients(path)
        # every value must be a finite JSON number within the float range
        too_big = "1" + "0" * 400
        for value in ["Infinity", "-Infinity", "NaN", '"0.5"', "true", "null", "[1]", too_big, "-" + too_big]:
            path.write_text(f'{{"n": 8, "one_body": [{{"pq": [0, 0], "value": {value}}}]}}')
            with pytest.raises(CoefficientsLoadError, match="finite numbers"):
                load_coefficients(path)
            path.write_text(f'{{"n": 8, "two_body": [{{"pqrs": [1, 0, 1, 0], "value": {value}}}]}}')
            with pytest.raises(CoefficientsLoadError, match="finite numbers"):
                load_coefficients(path)
        # H must be Hermitian: each entry needs its adjoint, with the same value
        for data in [
            {"n": 8, "one_body": [{"pq": [1, 0], "value": 0.25}]},
            {"n": 8, "one_body": [{"pq": [1, 0], "value": 0.25}, {"pq": [0, 1], "value": 0.5}]},
            {"n": 8, "two_body": [{"pqrs": [7, 5, 3, 0], "value": 0.5}]},
            # normal ordering turns [3, 0, 5, 7] into [3, 0, 7, 5] with a sign
            # flip: the adjoint of [7, 5, 3, 0] with the opposite value
            {"n": 8, "two_body": [
                {"pqrs": [7, 5, 3, 0], "value": 0.5},
                {"pqrs": [3, 0, 5, 7], "value": 0.5},
            ]},
            {"n": 8, "two_body": [{"pqrs": [7, 5, 5, 0], "value": 1}]},
            # duplicates sum past the float range, which the message survives
            {"n": 8, "one_body": [{"pq": [1, 0], "value": 1.7e308}, {"pq": [1, 0], "value": 1.7e308}]},
        ]:
            path.write_text(json.dumps(data))
            with pytest.raises(CoefficientsLoadError, match="not Hermitian"):
                load_coefficients(path)
        # an integer literal too long for int() is unreadable, not a crash
        path.write_text('{"n": 8, "one_body": [{"pq": [0, 0], "value": ' + "1" * 5000 + "}]}")
        with pytest.raises(CoefficientsLoadError, match="cannot read"):
            load_coefficients(path)

    def test_sum_outside_float_range_is_a_write_error(self, tmp_path):
        # every value fits a float, but the I/Z block folds them into an
        # identity coefficient of about 2.1e308
        path = write_coefficients(
            tmp_path / "h.json", 8,
            [((0, 0), 1.7e308), ((1, 1), 1.7e308)], [((1, 0, 1, 0), -1.7e308)],
        )
        report = build_partition(8, load_coefficients(path))
        out = tmp_path / "families.json"
        with pytest.raises(FamiliesWriteError, match="IIIIIIII is outside the float range"):
            save_families(list(report.families), out)
        assert not out.exists()
        # an existing file keeps its bytes, and no temporary file remains
        out.write_bytes(b"earlier output\n")
        with pytest.raises(FamiliesWriteError, match="IIIIIIII is outside the float range"):
            save_families(list(report.families), out)
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["families.json", "h.json"]
        # a one-pass iterable is consumed once and named the same way
        out.unlink()
        with pytest.raises(FamiliesWriteError, match="IIIIIIII is outside the float range"):
            save_families((family for family in report.families), out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.json"]

    def test_nonzero_sum_that_rounds_to_zero_is_a_write_error(self, tmp_path):
        # the I and Z coefficients are +-2.5e-324: as floats both parts would
        # be zero, and the strings would read as cancelled ones
        path = write_coefficients(tmp_path / "h.json", 4, [((0, 0), 5e-324)], [])
        report = build_partition(4, load_coefficients(path))
        assert [str(w.string) for f in report.families for w in f.strings] == ["IIII", "ZIII"]
        out = tmp_path / "families.json"
        with pytest.raises(FamiliesWriteError, match="IIII is nonzero but rounds to zero as a float"):
            save_families(report.families, out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.json"]

    @pytest.mark.parametrize("kind", ["unweighted", "empty"])
    def test_writer_matches_whole_payload_dump(self, tmp_path, kind):
        families = build_partition(8).families if kind == "unweighted" else ()
        streamed, reference = _written_both_ways(families, tmp_path)
        assert streamed == reference
        if not families:
            assert streamed == b"[]\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reference.json", "streamed.json"]

    def test_failed_write_keeps_the_existing_file(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_text("earlier\n")

        def chunks():
            yield "partial"
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            write_replacing(out, chunks())
        assert out.read_text() == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        write_replacing(out, ["a", "b\n"])
        assert out.read_text() == "ab\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_concurrent_writes_in_one_directory_stay_apart(self, tmp_path):
        # each producer waits for the other after its first chunk, so both
        # temporary files are open at once
        barrier = threading.Barrier(2, timeout=30)
        errors = []

        def chunks(text):
            yield text
            barrier.wait()
            yield text + "\n"

        def write(name, text):
            try:
                write_replacing(tmp_path / name, chunks(text))
            except Exception as exc:  # collected for the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(name, text))
            for name, text in (("a.json", "A"), ("b.json", "B"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert (tmp_path / "a.json").read_text() == "AA\n"
        assert (tmp_path / "b.json").read_text() == "BB\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        link = tmp_path / "link.txt"
        link.symlink_to("missing.txt")
        write_replacing(link, ["new\n"])
        assert link.is_symlink()
        assert (tmp_path / "missing.txt").read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "missing.txt"]

    def test_symlink_loop_is_an_error(self, tmp_path):
        (tmp_path / "a").symlink_to("b")
        (tmp_path / "b").symlink_to("a")
        with pytest.raises(OSError, match="symbolic links"):
            write_replacing(tmp_path / "a", ["new\n"])
        assert all(p.is_symlink() for p in tmp_path.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    @pytest.mark.parametrize("n", [0, -4])
    def test_schedule_file_needs_a_positive_n(self, tmp_path, n):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"n": n, "rounds": []}))
        with pytest.raises(ScheduleLoadError, match="positive"):
            read_schedule_file(path)

    def test_families_file_shape(self, tmp_path):
        report = build_partition(4)
        path = tmp_path / "families.json"
        save_families(list(report.families), path)
        data = json.loads(path.read_text())
        assert len(data) == len(report.families)
        first = data[0]
        assert set(first) == {"origin", "strings", "coefficients", "terms"}
        assert len(first["strings"]) == len(first["coefficients"])
        assert all(len(c) == 2 for c in first["coefficients"])


class TestWriterDivision:
    """The writer divides each numerator by its family's denominator: the
    floats must be those of the exact values, ``float(Fraction)``."""

    @given(
        st.integers(-(2**1100), 2**1100),
        st.integers(-(2**1100), 2**1100),
        st.one_of(
            st.integers(1, 2**1100),
            st.builds(lambda a, b: 3**a * 5**b, st.integers(0, 700), st.integers(0, 400)),
        ),
    )
    def test_floats_of_the_exact_values(self, re, im, denominator):
        family = CommutingFamily(2, denominator, (("XZ", 1, 2, re, im),), (), "residual")
        try:
            want = [float(Fraction(re, denominator)), float(Fraction(im, denominator))]
        except OverflowError:
            with pytest.raises(FamiliesWriteError, match="XZ is outside the float range"):
                "".join(_family_chunks([family], "F"))
            return
        if want == [0.0, 0.0] and (re or im):
            with pytest.raises(FamiliesWriteError, match="XZ is nonzero but rounds to zero"):
                "".join(_family_chunks([family], "F"))
            return
        (record,) = json.loads("".join(_family_chunks([family], "F")))
        assert repr(record["coefficients"]) == repr([want])  # the sign of a zero too

    # numerator pairs over 2**1100: a normal float, an overflow, a nonzero
    # value that rounds to zero, and a signed zero beside a one
    _PAIRS = st.one_of(
        st.tuples(st.integers(-(2**1160), 2**1160), st.integers(-(2**1160), 2**1160)),
        st.tuples(st.sampled_from([2**2125, -(2**2125)]), st.integers(-(2**1100), 2**1100)),
        st.tuples(st.sampled_from([1, -1, 0]), st.sampled_from([1, -1])),
        st.tuples(st.sampled_from([1, -1]), st.sampled_from([2**1100, -(2**1100)])),
    )

    @given(st.lists(_PAIRS, min_size=1, max_size=4), st.lists(st.integers(0, 3), min_size=1, max_size=12))
    def test_rows_that_repeat_pairs(self, pool, picks):
        denominator = 2**1100
        rows = [(f"{'I' * i}X", 0, 0, *pool[k % len(pool)]) for i, k in enumerate(picks)]
        family = CommutingFamily(len(rows), denominator, tuple(rows), (), "residual")
        want = []
        for text, _, _, re, im in rows:
            try:
                coefficient = [float(Fraction(re, denominator)), float(Fraction(im, denominator))]
            except OverflowError:
                with pytest.raises(FamiliesWriteError, match=f"of {text} is outside the float range"):
                    "".join(_family_chunks([family], "F"))
                return
            if coefficient == [0.0, 0.0] and (re or im):
                with pytest.raises(FamiliesWriteError, match=f"of {text} is nonzero but rounds to zero"):
                    "".join(_family_chunks([family], "F"))
                return
            want.append(coefficient)
        (record,) = json.loads("".join(_family_chunks([family], "F")))
        assert repr(record["coefficients"]) == repr(want)  # the sign of a zero too

    @pytest.mark.parametrize(
        "bad, message",
        [((2**2125, 0), "outside the float range"), ((0, -1), "nonzero but rounds to zero as a float")],
    )
    def test_a_repeated_bad_pair_is_named_at_its_first_row(self, bad, message):
        good = (2**1100, -1)
        rows = [(f"{'I' * i}X", 0, 0, *pair) for i, pair in enumerate([good, bad, good, bad, (3, 0)])]
        family = CommutingFamily(5, 2**1100, tuple(rows), (), "residual")
        with pytest.raises(FamiliesWriteError, match=f"the summed coefficient of IX is {message}"):
            "".join(_family_chunks([family], "F"))
        first = CommutingFamily(5, 2**1100, (rows[0], rows[0], rows[2]), (), "residual")
        with pytest.raises(FamiliesWriteError, match=f"the summed coefficient of IX is {message}"):
            "".join(_family_chunks([first, family], "F"))

    def test_each_family_divides_over_its_own_denominator(self):
        # one numerator pair is 1.0 in one family and rounds to zero in the next
        one = CommutingFamily(1, 1, (("X", 1, 0, 1, 0), ("Z", 0, 1, 1, 0)), (), "residual")
        tiny = CommutingFamily(1, 2**1100, (("Y", 1, 1, 1, 0),), (), "residual")
        assert json.loads("".join(_family_chunks([one, one], "F")))[1]["coefficients"] == [[1.0, 0.0]] * 2
        with pytest.raises(FamiliesWriteError, match="the summed coefficient of Y is nonzero but rounds to zero"):
            "".join(_family_chunks([one, tiny], "F"))

    def test_a_round_joins_blocks_over_different_denominators(self, tmp_path):
        # round 0 of the N=8 schedule holds the subsets (7, 2, 1, 0) and
        # (6, 5, 4, 3): their blocks fold over 3 * 16 and 5 * 16
        assert schedule_for(8).rounds[0] == ((7, 2, 1, 0), (6, 5, 4, 3))
        values = {(7, 2, 1, 0): Fraction(1, 3), (6, 5, 4, 3): Fraction(1, 5)}
        coeffs = HamiltonianCoefficients.from_entries(8, [], list(values.items()))
        families = list(commuting_families(schedule_for(8), coeffs))
        assert [(f.origin, f.denominator, len(f)) for f in families] == [("dominant", 240, 16)] * 2
        expected = {}
        for key, value in values.items():
            for string, c in _scaled(FermionicTerm.two_body(*key, 8), value):
                expected[string] = c
        assert {w.string: w.coefficient for f in families for w in f.strings} == expected
        out = tmp_path / "families.json"
        save_families(families, out)
        written = [record["coefficients"] for record in json.loads(out.read_text())]
        assert written == [
            [[float(w.coefficient.real), float(w.coefficient.imag)] for w in f.strings] for f in families
        ]
        streamed, reference = _written_both_ways(families, tmp_path)
        assert streamed == reference


def test_compile_leaves_no_cyclic_garbage(capsys, tmp_path):
    # Everything the compile allocates must be freed by reference counting,
    # which is what lets the command line pause the cyclic collector.
    one, two = seeded_hermitian_entries(8, seed=11)
    path = write_coefficients(tmp_path / "h.json", 8, one, two)
    # the I coefficient sums past the float range, so the writer stops
    # mid-stream with residual blocks still in the table
    huge = write_coefficients(
        tmp_path / "huge.json", 8, one + [((0, 0), 1.7e308), ((1, 1), 1.7e308)], two + [((1, 0, 1, 0), -1.7e308)]
    )
    out = str(tmp_path / "streamed.json")
    # the argument parser holds cycles of its own (see paulisched.cli), so
    # the commands are parsed before the check and run past the parser
    commands = [
        (build_parser().parse_args(argv), status)
        for argv, status in [
            (["families", "--n", "8", "--hamiltonian", str(path), "--out", out], 0),
            (["families", "--n", "8"], 0),
            (["families", "--n", "8", "--hamiltonian", str(huge), "--out", out], 2),
        ]
    ]
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        build_schedule(12)
        report = build_partition(8)
        weighted = build_partition(8, load_coefficients(path))
        save_families(list(report.families + weighted.families), tmp_path / "families.json")
        assert [args.func(args) for args, _ in commands] == [status for _, status in commands]
        assert "outside the float range" in capsys.readouterr().err
        gc.collect()
        assert not gc.garbage, Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


class TestReport:
    def test_summary_counts(self):
        report = build_partition(8)
        summary = report.summary()
        assert summary["dominant_families"] == 70
        assert summary["dominant_strings"] == 1120
        assert summary["residual_families"] == 1 + comb(8, 2) == 29
        assert summary["residual_strings"] == 419
        assert summary["family_count"] == 70 + 29
        assert summary["max_family_size"] == 1 + 8 + comb(8, 2)  # I, Z_p and Z_p Z_q
        assert summary["dominant_per_round_ratio"] == 2.0
        assert "residual_strategy" not in summary
        summary = build_partition(10).summary()
        assert summary["dominant_families"] == 210  # two per round, ceil(C(10,4) / 2) rounds
        assert summary["dominant_per_round_ratio"] == 2.0

    def test_weighted_report(self):
        coeffs = HamiltonianCoefficients.from_entries(8, [], [])
        summary = build_partition(8, coeffs=coeffs).summary()
        assert summary["weighted"] is True
        assert summary["dominant_strings"] == 0
        assert summary["residual_families"] == 0
