from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from conftest import abs_squared, jw_ladder, letter, pattern_of, reference_jw_term, times_i_power
from paulisched import fermion
from paulisched.cli import main
from paulisched.fermion import FermionicTerm, UnsupportedTermError, _ladder, jw_image, jw_term
from paulisched.oracles import ladder_matrix, term_matrix, weighted_sum_matrix
from paulisched.pauli import ExactComplex, PauliString, WeightedPauliString


class TestFermionicTerm:
    def test_shapes(self):
        FermionicTerm.one_body(3, 3, 4)
        FermionicTerm.two_body(3, 1, 3, 0, 4)  # repeat across kinds is fine

    def test_ascending_indices_rejected(self):
        with pytest.raises(UnsupportedTermError):
            FermionicTerm.two_body(1, 3, 2, 0, 4)

    def test_repeat_within_kind_rejected(self):
        with pytest.raises(UnsupportedTermError):
            FermionicTerm((3, 3), (1, 0), 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(UnsupportedTermError):
            FermionicTerm((3, 2, 1), (2, 1, 0), 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FermionicTerm.one_body(4, 0, 4)


class TestLadder:
    def test_mode0_has_no_chain(self):
        x_part, y_part = jw_ladder(0, False, 1)
        assert (str(x_part.string), x_part.coefficient) == ("X", ExactComplex(Fraction(1, 2)))
        assert (str(y_part.string), y_part.coefficient) == ("Y", ExactComplex(0, Fraction(1, 2)))

    def test_creation_sign_and_chain(self):
        x_part, y_part = jw_ladder(2, True, 3)
        assert str(x_part.string) == "ZZX"
        assert str(y_part.string) == "ZZY"
        assert y_part.coefficient == ExactComplex(0, Fraction(-1, 2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            jw_ladder(3, False, 3)

    @pytest.mark.parametrize("mode", range(3))
    @pytest.mark.parametrize("dagger", [False, True])
    def test_matches_occupation_basis_matrix(self, mode, dagger):
        half = ExactComplex(Fraction(1, 2))
        parts = [
            WeightedPauliString(times_i_power(half, k), PauliString(3, x, z))
            for x, z, k in _ladder(mode, dagger)
        ]
        assert np.array_equal(weighted_sum_matrix(parts, 3), ladder_matrix(mode, dagger, 3))


class TestExcitation:
    def test_adjacent_endpoints_have_no_z(self):
        term = FermionicTerm.two_body(3, 2, 1, 0, 4)
        strings = jw_term(term)
        assert len(strings) == 16
        assert {len(strings)} == {16}
        texts = {str(w.string) for w in strings}
        assert len(texts) == 16
        assert all(set(t) <= {"X", "Y"} for t in texts)
        assert all(abs_squared(w.coefficient) == Fraction(1, 256) for w in strings)

    def test_interior_z_segments(self):
        term = FermionicTerm.two_body(5, 3, 2, 0, 6)
        for w in jw_term(term):
            text = str(w.string)
            assert text[1] == "Z" and text[4] == "Z"
            assert all(text[t] in "XY" for t in (0, 2, 3, 5))

    def test_sum_equals_dense_operator(self):
        term = FermionicTerm.two_body(3, 2, 1, 0, 4)
        assert np.array_equal(weighted_sum_matrix(jw_term(term), 4), term_matrix(term))

    def test_noncanonical_distinct_arrangement_also_16_strings(self):
        # creation modes need not dominate the annihilation modes
        term = FermionicTerm((5, 1), (4, 0), 6)
        strings = jw_term(term)
        assert len(strings) == 16
        pattern = pattern_of(term)
        assert all(pattern.matches(w.string) for w in strings)
        assert np.array_equal(weighted_sum_matrix(strings, 6), term_matrix(term))


class TestPattern:
    def test_segments_of_spread_term(self):
        pattern = pattern_of(FermionicTerm.two_body(7, 5, 3, 0, 8))
        assert pattern.endpoints == (0, 3, 5, 7)
        assert pattern.z_segments == ((0, 3), (5, 7))
        assert pattern.z_mask() == (1 << 1) | (1 << 2) | (1 << 6)

    def test_segments_empty_for_adjacent_endpoints(self):
        pattern = pattern_of(FermionicTerm.two_body(3, 2, 1, 0, 4))
        assert pattern.z_mask() == 0

    def test_exactly_16_of_all_length8_strings_match(self):
        from paulisched.pauli import PauliString

        term = FermionicTerm.two_body(7, 5, 3, 0, 8)
        pattern = pattern_of(term)
        matching = [
            PauliString(8, x, z)
            for x in range(256)
            for z in range(256)
            if pattern.matches(PauliString(8, x, z))
        ]
        assert len(matching) == 16
        assert {str(s) for s in matching} == {str(w.string) for w in jw_term(term)}


def _canonical_terms(n):
    """Every canonical one-body and two-body term on n modes, repeated indices included."""
    pairs = list(combinations(range(n), 2))
    terms = [FermionicTerm.one_body(p, q, n) for p in range(n) for q in range(n)]
    return terms + [FermionicTerm((q, p), (s, r), n) for p, q in pairs for r, s in pairs]


class TestImage:
    """``jw_image``, the one builder of weighted strings from kernel numerators."""

    def test_term_is_its_image_at_value_one(self):
        for n in range(1, 7):
            for term in _canonical_terms(n):
                assert jw_term(term) == jw_image([(term, 1)]), term

    def test_sorted_by_the_letter_reference(self):
        def text(s):
            return "".join(letter(s, t) for t in range(s.n))

        for n in range(1, 7):
            terms = _canonical_terms(n)
            for entries in [[(term, 1)] for term in terms] + [[(term, 1) for term in terms]]:
                strings = [w.string for w in jw_image(entries)]
                assert strings == sorted(strings, key=text)

    def test_int_and_fraction_one_agree(self):
        # the int and the Fraction spelling of 1 build the same exact list
        for n in (2, 4):
            for term in _canonical_terms(n):
                want = reference_jw_term(term)
                assert jw_image([(term, 1)]) == jw_image([(term, Fraction(1))]) == want, term


class TestGeneralTerms:
    @pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (2, 2), (4, 0)])
    def test_one_body_against_dense(self, p, q):
        n = 5
        term = FermionicTerm.one_body(p, q, n)
        strings = jw_term(term)
        assert np.array_equal(weighted_sum_matrix(strings, n), term_matrix(term))
        if p != q:
            assert len(strings) == 4

    def test_diagonal_one_body_collapses_to_two_strings(self):
        strings = jw_term(FermionicTerm.one_body(1, 1, 3))
        assert [(str(w.string), w.coefficient) for w in strings] == [
            ("III", ExactComplex(Fraction(1, 2))),
            ("IZI", ExactComplex(Fraction(-1, 2))),
        ]

    @pytest.mark.parametrize(
        "creates,annihilates",
        [((3, 1), (1, 0)), ((3, 1), (3, 1)), ((2, 1), (2, 0)), ((3, 2), (2, 1))],
    )
    def test_overlapping_two_body_against_dense(self, creates, annihilates):
        n = 4
        term = FermionicTerm(creates, annihilates, n)
        assert np.array_equal(weighted_sum_matrix(jw_term(term), n), term_matrix(term))

    def test_equals_reference_expansion_exactly(self):
        # strings, exact coefficients and order, for every canonical one-body
        # and two-body term (repeated indices included) up to eight modes
        for n in range(1, 9):
            for term in _canonical_terms(n):
                assert jw_term(term) == reference_jw_term(term), term

    def test_all_terms_dense_at_small_sizes(self):
        for n in (4, 5):
            terms = [FermionicTerm.one_body(p, q, n) for p in range(n) for q in range(n)]
            terms += [
                FermionicTerm.two_body(*sorted(sub, reverse=True), n)
                for sub in combinations(range(n), 4)
            ]
            for term in terms:
                assert np.array_equal(
                    weighted_sum_matrix(jw_term(term), n), term_matrix(term)
                ), term


class TestSideMemo:
    """Each (modes, dagger) side is expanded once per process, whatever the register."""

    def test_bounded_after_a_compile_and_reused_at_every_size(self, capsys, monkeypatch):
        monkeypatch.setattr(fermion, "_SIDES", {})
        assert main(["families", "--n", "20"]) == 0
        capsys.readouterr()
        # every one- and two-mode side of either kind appears once
        assert len(fermion._SIDES) == 2 * (20 + comb(20, 2))
        for n in range(1, 7):
            for term in _canonical_terms(n):
                assert jw_term(term) == reference_jw_term(term), term
        assert len(fermion._SIDES) == 2 * (20 + comb(20, 2))
