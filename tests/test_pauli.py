from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import multiply, string_product, times_i_power
from paulisched.oracles import string_matrix
from paulisched.pauli import (
    ExactComplex,
    PauliString,
    WeightedPauliString,
    anticommuting_index_count,
    commutes,
    parse_pauli,
)


@st.composite
def pauli_strings(draw, n=None, max_n=5):
    if n is None:
        n = draw(st.integers(1, max_n))
    bits = st.integers(0, (1 << n) - 1)
    return PauliString(n, draw(bits), draw(bits))


@st.composite
def pauli_pairs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return draw(pauli_strings(n=n)), draw(pauli_strings(n=n))


exact_scalars = st.builds(
    ExactComplex,
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 4), Fraction(2)]),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(5, 8)]),
)


class TestParseFormat:
    def test_text_convention_qubit0_leftmost(self):
        p = parse_pauli("ZZX")
        assert (p.letter(0), p.letter(1), p.letter(2)) == ("Z", "Z", "X")

    @pytest.mark.parametrize("text", ["X", "XIYZ", "IIII", "ZZZZZY"])
    def test_round_trip(self, text):
        assert parse_pauli(text).text() == text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_pauli("")

    @pytest.mark.parametrize("text", ["XAZ", "xyz", "X Z", "1"])
    def test_invalid_characters_rejected(self, text):
        with pytest.raises(ValueError):
            parse_pauli(text)

    def test_identity_constructor(self):
        assert str(PauliString(4)) == "IIII"

    def test_text_equals_letters_for_all_four_qubit_strings(self):
        for x in range(16):
            for z in range(16):
                p = PauliString(4, x, z)
                assert p.text() == "".join(p.letter(t) for t in range(4))

    @given(pauli_strings(max_n=28))
    def test_text_equals_letters(self, p):
        assert p.text() == "".join(p.letter(t) for t in range(p.n))


class TestCommutation:
    def test_counterexample_pair(self):
        assert anticommuting_index_count(parse_pauli("XII"), parse_pauli("YII")) == 1
        assert not commutes(parse_pauli("ZXI"), parse_pauli("ZYI"))

    @pytest.mark.parametrize("text", ["X", "XY", "ZZXI", "YIZX"])
    def test_equal_strings_have_zero_count(self, text):
        p = parse_pauli(text)
        assert anticommuting_index_count(p, p) == 0

    def test_identity_commutes_with_everything(self):
        for text in ("XYZI", "ZZZZ", "IIII", "YYXZ"):
            assert commutes(parse_pauli(text), PauliString(4))

    def test_two_anticommuting_positions_commute(self):
        # confirmed against the dense commutator below
        p, q = parse_pauli("XXII"), parse_pauli("YYII")
        assert anticommuting_index_count(p, q) == 2
        assert commutes(p, q)
        pm, qm = string_matrix(p), string_matrix(q)
        assert np.array_equal(pm @ qm - qm @ pm, np.zeros_like(pm))

    def test_interleaved_encodings_anticommute_at_four_indices(self):
        # two fully interleaved two-body patterns: every endpoint of one
        # string falls on a Z of the other
        a = parse_pauli("IXZXIXZX")  # endpoints 1,3,5,7
        b = parse_pauli("XZXIXZXI")  # endpoints 0,2,4,6
        assert anticommuting_index_count(a, b) == 4
        assert commutes(a, b)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            commutes(parse_pauli("XX"), parse_pauli("X"))
        with pytest.raises(ValueError):
            anticommuting_index_count(parse_pauli("XX"), parse_pauli("X"))

    @given(pauli_pairs())
    def test_symmetric(self, pair):
        p, q = pair
        assert commutes(p, q) == commutes(q, p)

    @given(pauli_strings())
    def test_reflexive(self, p):
        assert commutes(p, p)

    @given(pauli_pairs())
    def test_agrees_with_dense_commutator(self, pair):
        p, q = pair
        pm, qm = string_matrix(p), string_matrix(q)
        assert commutes(p, q) == bool(np.array_equal(pm @ qm, qm @ pm))


class TestMultiply:
    def test_xy_is_iz(self):
        one = ExactComplex(1)
        w = multiply(WeightedPauliString(one, parse_pauli("X")), WeightedPauliString(one, parse_pauli("Y")))
        assert str(w.string) == "Z"
        assert w.coefficient == ExactComplex(0, 1)

    def test_zz_is_identity(self):
        one = ExactComplex(1)
        w = multiply(WeightedPauliString(one, parse_pauli("Z")), WeightedPauliString(one, parse_pauli("Z")))
        assert str(w.string) == "I"
        assert w.coefficient == one

    def test_length_mismatch_raises(self):
        one = ExactComplex(1)
        with pytest.raises(ValueError):
            multiply(WeightedPauliString(one, parse_pauli("XX")), WeightedPauliString(one, parse_pauli("X")))

    @given(pauli_pairs(), exact_scalars, exact_scalars)
    def test_agrees_with_dense_product(self, pair, c1, c2):
        p, q = pair
        wp = WeightedPauliString(c1, p)
        wq = WeightedPauliString(c2, q)
        w = multiply(wp, wq)
        got = w.coefficient.as_complex() * string_matrix(w.string)
        want = (c1.as_complex() * string_matrix(p)) @ (c2.as_complex() * string_matrix(q))
        assert np.allclose(got, want, atol=0, rtol=0)

    @given(pauli_strings(), st.sampled_from([Fraction(1), Fraction(-1, 2), Fraction(3)]))
    def test_involution(self, p, c):
        w = WeightedPauliString(ExactComplex(c), p)
        square = multiply(w, w)
        assert square.string == PauliString(p.n)
        assert square.coefficient == ExactComplex(c * c)

    @given(pauli_pairs())
    def test_string_product_phase_is_unit(self, pair):
        _, k = string_product(*pair)
        assert k in (0, 1, 2, 3)


class TestExactComplex:
    def test_arithmetic(self):
        a = ExactComplex(Fraction(1, 2), Fraction(1, 4))
        b = ExactComplex(0, 1)
        assert a * b == ExactComplex(Fraction(-1, 4), Fraction(1, 2))
        assert a + ExactComplex(-a.real, -a.imag) == ExactComplex()
        assert not ExactComplex()

    def test_i_powers_cycle(self):
        a = ExactComplex(1)
        assert times_i_power(a, 1) == ExactComplex(0, 1)
        assert times_i_power(a, 2) == ExactComplex(-1)
        assert times_i_power(a, 3) == ExactComplex(0, -1)
        assert times_i_power(a, 4) == a

    def test_float_ingestion_is_exact(self):
        assert ExactComplex(0.5).real == Fraction(1, 2)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            WeightedPauliString(ExactComplex(), parse_pauli("X"))
