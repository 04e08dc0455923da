import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from conftest import (
    abs_squared,
    adjoint,
    block_image,
    jw_ladder,
    key,
    keyed,
    letter,
    pattern_of,
    reference_fold,
    reference_jw_term,
    times_i_power,
    x_blocks,
)
from paulisched import fermion
from paulisched.cli import main
from paulisched.fermion import _ladder, jw_image
from paulisched.oracles import (
    ExactComplex,
    FermionicTerm,
    PauliString,
    UnsupportedTermError,
    WeightedPauliString,
    jw_term,
    ladder_matrix,
    term_matrix,
    weighted_strings,
    weighted_sum_matrix,
)


class TestFermionicTerm:
    def test_shapes(self):
        FermionicTerm((3,), (3,), 4)
        FermionicTerm((3, 1), (3, 0), 4)  # repeat across kinds is fine

    def test_ascending_indices_rejected(self):
        for creates, annihilates in [((1, 3), (2, 0)), ((3, 2), (0, 1))]:
            with pytest.raises(UnsupportedTermError, match="descending"):
                FermionicTerm(creates, annihilates, 4)

    def test_repeat_within_kind_rejected(self):
        with pytest.raises(UnsupportedTermError):
            FermionicTerm((3, 3), (1, 0), 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(UnsupportedTermError):
            FermionicTerm((3, 2, 1), (2, 1, 0), 4)

    def test_out_of_range_rejected(self):
        # each mode of each side, at either end of the range
        for creates, annihilates in [
            ((4,), (0,)), ((0,), (4,)), ((-1,), (0,)), ((0,), (-1,)),
            ((4, 0), (1, 0)), ((3, -1), (1, 0)), ((3, 2), (4, 0)), ((3, 2), (1, -1)),
        ]:
            with pytest.raises(ValueError, match="out of range") as info:
                FermionicTerm(creates, annihilates, 4)
            assert type(info.value) is ValueError


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
            # i**e X^x Z^z is i**(e - |x & z|) times the string of masks (x, z)
            WeightedPauliString(times_i_power(half, e - (x & z).bit_count()), PauliString(3, x, z))
            for x, z, e in _ladder(mode, dagger)
        ]
        assert weighted_sum_matrix(parts, 3) == ladder_matrix(mode, dagger, 3)


class TestExcitation:
    def test_adjacent_endpoints_have_no_z(self):
        term = FermionicTerm((3, 2), (1, 0), 4)
        strings = jw_term(term)
        assert len(strings) == 16
        assert {len(strings)} == {16}
        texts = {str(w.string) for w in strings}
        assert len(texts) == 16
        assert all(set(t) <= {"X", "Y"} for t in texts)
        assert all(abs_squared(w.coefficient) == Fraction(1, 256) for w in strings)

    def test_interior_z_segments(self):
        term = FermionicTerm((5, 3), (2, 0), 6)
        for w in jw_term(term):
            text = str(w.string)
            assert text[1] == "Z" and text[4] == "Z"
            assert all(text[t] in "XY" for t in (0, 2, 3, 5))

    def test_sum_equals_dense_operator(self):
        term = FermionicTerm((3, 2), (1, 0), 4)
        assert weighted_sum_matrix(jw_term(term), 4) == term_matrix(term)

    def test_noncanonical_distinct_arrangement_also_16_strings(self):
        # creation modes need not dominate the annihilation modes
        term = FermionicTerm((5, 1), (4, 0), 6)
        strings = jw_term(term)
        assert len(strings) == 16
        pattern = pattern_of(term)
        assert all(pattern.matches(w.string) for w in strings)
        assert weighted_sum_matrix(strings, 6) == term_matrix(term)


class TestPattern:
    def test_segments_of_spread_term(self):
        pattern = pattern_of(FermionicTerm((7, 5), (3, 0), 8))
        assert pattern.endpoints == (0, 3, 5, 7)
        assert pattern.z_segments == ((0, 3), (5, 7))
        assert pattern.z_mask() == (1 << 1) | (1 << 2) | (1 << 6)

    def test_segments_empty_for_adjacent_endpoints(self):
        pattern = pattern_of(FermionicTerm((3, 2), (1, 0), 4))
        assert pattern.z_mask() == 0

    def test_exactly_16_of_all_length8_strings_match(self):
        from paulisched.oracles import PauliString

        term = FermionicTerm((7, 5), (3, 0), 8)
        pattern = pattern_of(term)
        matching = [
            PauliString(8, x, z)
            for x in range(256)
            for z in range(256)
            if pattern.matches(PauliString(8, x, z))
        ]
        assert len(matching) == 16
        assert {str(s) for s in matching} == {str(w.string) for w in jw_term(term)}


def _all_terms(n):
    """Every one-body term on n modes, and every two-body term: each descending
    create pair with each descending annihilate pair, so every ordering of two
    descending pairs, repeated indices included.  Unlike the canonical list of
    the oracles, it keeps all six terms of each 4-subset, not one."""
    pairs = list(combinations(range(n), 2))
    terms = [FermionicTerm((p,), (q,), n) for p in range(n) for q in range(n)]
    return terms + [FermionicTerm((q, p), (s, r), n) for p, q in pairs for r, s in pairs]


class TestImage:
    """``jw_image``, the rows of kernel numerators, and ``weighted_strings``, the one builder of weighted strings."""

    def test_term_is_its_image_at_value_one(self):
        # jw_term reads back the rows: text, masks and numerators over one denominator
        for n in range(1, 7):
            for term in _all_terms(n):
                denominator, rows = block_image(n, [(key(term), 1)])
                read = [
                    (w.string.text(), w.string.x, w.string.z,
                     w.coefficient.real * denominator, w.coefficient.imag * denominator)
                    for w in jw_term(term)
                ]
                assert read == rows, term

    def test_sorted_by_the_letter_reference(self):
        def text(s):
            return "".join(letter(s, t) for t in range(s.n))

        for n in range(1, 7):
            terms = _all_terms(n)
            for entries in [[(key(term), 1)] for term in terms] + x_blocks([(key(term), 1) for term in terms]):
                denominator, rows = block_image(n, entries)
                strings = [w.string for w in weighted_strings(n, denominator, rows)]
                assert strings == sorted(strings, key=text)
                assert [row[0] for row in rows] == [text(s) for s in strings]

    def test_int_and_fraction_one_agree(self):
        # the int and the Fraction spelling of 1 build the same exact list
        for n in (2, 4):
            for term in _all_terms(n):
                want = reference_jw_term(term)
                image = jw_image(n, [[(key(term), 1)]])
                assert image == jw_image(n, [[(key(term), Fraction(1))]]), term
                assert weighted_strings(n, *block_image(n, [(key(term), 1)])) == want, term


class TestGeneralTerms:
    @pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (2, 2), (4, 0)])
    def test_one_body_against_dense(self, p, q):
        n = 5
        term = FermionicTerm((p,), (q,), n)
        strings = jw_term(term)
        assert weighted_sum_matrix(strings, n) == term_matrix(term)
        if p != q:
            assert len(strings) == 4

    def test_diagonal_one_body_collapses_to_two_strings(self):
        strings = jw_term(FermionicTerm((1,), (1,), 3))
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
        assert weighted_sum_matrix(jw_term(term), n) == term_matrix(term)

    def test_equals_reference_expansion_exactly(self):
        # strings, exact coefficients and order, for every canonical one-body
        # and two-body term (repeated indices included) up to eight modes
        for n in range(1, 9):
            for term in _all_terms(n):
                assert jw_term(term) == reference_jw_term(term), term

    def test_all_terms_dense_at_small_sizes(self):
        for n in (4, 5):
            terms = [FermionicTerm((p,), (q,), n) for p in range(n) for q in range(n)]
            terms += [
                FermionicTerm((d, c), (b, a), n)
                for a, b, c, d in combinations(range(n), 4)
            ]
            for term in terms:
                assert weighted_sum_matrix(jw_term(term), n) == term_matrix(term), term


def _splits(modes, n):
    """The six two-body terms on four distinct modes: each pair of them created, the other pair annihilated."""
    modes = sorted(modes, reverse=True)
    return [FermionicTerm(creates, tuple(m for m in modes if m not in creates), n) for creates in combinations(modes, 2)]


class TestFourModeTemplate:
    """Blocks on four distinct modes, summed from the per-shape table rather than the product paths."""

    def test_every_split_equals_the_reference(self):
        # strings, coefficients and order; each shape is filled in the test
        fermion._shape.cache_clear()
        for n in range(4, 9):
            for modes in combinations(range(n), 4):
                for term in _splits(modes, n):
                    denominator, rows = block_image(n, [(key(term), 1)])
                    assert len(rows) == 16 and rows == sorted(rows), term
                    assert weighted_strings(n, denominator, rows) == reference_jw_term(term), term
        # one table per shape, and only those: each is a hit now
        assert fermion._shape.cache_info().currsize == 6
        hits = fermion._shape.cache_info().hits
        for shape in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
            assert len(fermion._shape(shape)) == 16
        assert fermion._shape.cache_info().hits == hits + 6

    @pytest.mark.parametrize("modes,n", [((0, 1, 2, 3), 4), ((0, 2, 3, 5), 6), ((1, 4, 5, 7), 9)])
    def test_weighted_block_is_the_summed_reference(self, modes, n):
        # int and Fraction values over differing denominators
        values = [1, Fraction(1, 3), -2, Fraction(5, 7), Fraction(-1, 6), Fraction(3, 10**9 + 7)]
        block = list(zip(_splits(modes, n), values))
        want = reference_fold([(reference_jw_term(term), value) for term, value in block])
        denominator, rows = block_image(n, keyed(block))
        assert denominator == 3 * 7 * 2 * (10**9 + 7) * 16
        assert weighted_strings(n, denominator, rows) == want

    def test_cancelled_rows_drop(self):
        n = 6
        term = FermionicTerm((5, 2), (3, 0), n)
        third = Fraction(1, 3)
        # a term and its adjoint: the imaginary coefficients cancel, half the rows stay
        for block in ([(term, third), (adjoint(term), third)], [(term, 1), (adjoint(term), -1)]):
            want = reference_fold([(reference_jw_term(t), value) for t, value in block])
            denominator, rows = block_image(n, keyed(block))
            assert len(rows) == len(want) == 8
            assert weighted_strings(n, denominator, rows) == want
        # values that cancel every row, in one shape and across the six
        assert jw_image(n, [[(key(term), third), (key(term), -third)]])[1] == [([], [])]
        splits = _splits((0, 2, 3, 5), n)
        assert jw_image(n, [[(key(t), 2) for t in splits] + [(key(t), -2) for t in splits]])[1] == [([], [])]

    def test_the_table_is_filled_on_first_use(self, tmp_path):
        # importing the package, or compiling a schedule, fills no table
        code = (
            "from paulisched import fermion\n"
            "from paulisched.cli import main\n"
            "assert fermion._shape.cache_info().currsize == 0\n"
            "main(['schedule', '--n', '8', '--format', 'json', '--out', 'S'])\n"
            "assert fermion._shape.cache_info().currsize == 0\n"
            "main(['families', '--n', '8', '--format', 'json', '--out', 'F'])\n"
            "stored, hits = fermion._shape.cache_info().currsize, fermion._shape.cache_info().hits\n"
            "fermion._shape((3, 2))\n"
            "print(stored, fermion._shape.cache_info().hits - hits)"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        # the unweighted build only creates the two largest of the four
        # modes: one table is stored, and (3, 2) is a hit
        assert result.stdout.splitlines()[-1] == "1 1"


class TestSideMemo:
    """Each (modes, dagger) side is expanded once per process, whatever the register."""

    def test_bounded_after_a_compile_and_reused_at_every_size(self, capsys):
        fermion._side.cache_clear()
        assert main(["families", "--n", "20"]) == 0
        capsys.readouterr()
        # every one- and two-mode side of either kind appears once
        assert fermion._side.cache_info().currsize == 2 * (20 + comb(20, 2))
        for n in range(1, 7):
            for term in _all_terms(n):
                assert jw_term(term) == reference_jw_term(term), term
        assert fermion._side.cache_info().currsize == 2 * (20 + comb(20, 2))
