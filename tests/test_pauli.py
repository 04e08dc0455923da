from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, strategies as st

from conftest import letter, matrix_product, multiply, string_matrix, string_product, strings_of, times_i_power
from paulisched.oracles import (
    ExactComplex,
    PauliString,
    WeightedPauliString,
    anticommuting_index_count,
    anticommuting_pair_by_scan,
    commutes,
    parse_pauli,
    weighted_sum_matrix,
)
from paulisched.fermion import _text
from paulisched.partition import _anticommuting_indices, build_partition


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
        assert (letter(p, 0), letter(p, 1), letter(p, 2)) == ("Z", "Z", "X")

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

    @pytest.mark.parametrize("n", [0, -2])
    def test_no_qubits_rejected(self, n):
        with pytest.raises(ValueError, match=f"^qubit count must be positive, got {n}$"):
            PauliString(n)

    def test_text_equals_letters_for_all_four_qubit_strings(self):
        for x in range(16):
            for z in range(16):
                p = PauliString(4, x, z)
                assert p.text() == "".join(letter(p, t) for t in range(4))

    @given(pauli_strings(max_n=28))
    def test_text_equals_letters(self, p):
        assert p.text() == "".join(letter(p, t) for t in range(p.n))


class TestDigits:
    """The compile's text rule, ``fermion._text``, which formats a string
    from the hex digits its masks spread to, qubit t in hex digit t,
    against the ``letter`` reference."""

    @pytest.mark.parametrize("x, z", [(0, 0), (1, 0), (1, 1), (0, 1)])
    def test_text_from_digits_of_one_qubit(self, x, z):
        p = PauliString(1, x, z)
        assert _text(1, x, z) == letter(p, 0)

    @given(pauli_strings(max_n=70))
    @example(PauliString(70, 2**70 - 1, 2**70 - 1))
    @example(PauliString(65, 2**64, 0))
    def test_text_from_digits_equals_letters(self, p):
        assert _text(p.n, p.x, p.z) == "".join(letter(p, t) for t in range(p.n))


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
        assert matrix_product(pm, qm) == matrix_product(qm, pm)

    def test_interleaved_encodings_anticommute_at_four_indices(self):
        # two fully interleaved two-body patterns: every endpoint of one
        # string falls on a Z of the other
        a = parse_pauli("IXZXIXZX")  # endpoints 1,3,5,7
        b = parse_pauli("XZXIXZXI")  # endpoints 0,2,4,6
        assert anticommuting_index_count(a, b) == 4
        assert commutes(a, b)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match=r"^Pauli strings act on different registers: 2 != 1$"):
            commutes(parse_pauli("XX"), parse_pauli("X"))
        # read on one register, the longer string's x and z bits would
        # overlap: the registers are checked before the masks are read
        with pytest.raises(ValueError, match=r"^Pauli strings act on different registers: 1 != 3$"):
            commutes(parse_pauli("Z"), parse_pauli("XZX"))
        with pytest.raises(ValueError, match=r"^Pauli strings act on different registers: 2 != 1$"):
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
        assert commutes(p, q) == (matrix_product(pm, qm) == matrix_product(qm, pm))


def _indexed_pair(strings):
    """The pair of ``strings`` that ``partition._anticommuting_indices`` names on their masks, or None."""
    pair = _anticommuting_indices([(s.x, s.z) for s in strings])
    return pair and (strings[pair[0]], strings[pair[1]])


class TestAnticommutingPair:
    def test_first_pair_in_index_order(self):
        # (0, 3) and (1, 2) both anticommute; (i, j) order reaches (0, 3) first
        masks = [(s.x, s.z) for s in map(parse_pauli, ("ZI", "IZ", "IX", "XI"))]
        assert _anticommuting_indices(masks) == (0, 3)
        assert _anticommuting_indices(masks[1:]) == (0, 1)

    def test_none_for_zero_and_one_string(self):
        assert _anticommuting_indices([]) is None
        assert _anticommuting_indices([(0b011, 0b110)]) is None

    def test_length_mismatch_raises(self):
        # masks carry no register: a list of strings is checked by the
        # audit's scan, every register against the first, before any pair
        with pytest.raises(ValueError, match=r"^Pauli strings act on different registers: 2 != 1$"):
            anticommuting_pair_by_scan([parse_pauli("XX"), parse_pauli("ZZ"), parse_pauli("X")])
        # read on the first register, the longer string's x and z bits would
        # overlap: the registers are checked before the pairs are read
        with pytest.raises(ValueError, match=r"^Pauli strings act on different registers: 1 != 3$"):
            anticommuting_pair_by_scan([parse_pauli("Z"), parse_pauli("Z"), parse_pauli("XZX")])


def _same_pair(got, want) -> bool:
    """The same pair of list entries: equal strings at other positions do not count."""
    if got is None or want is None:
        return got is want
    return got[0] is want[0] and got[1] is want[1]


@st.composite
def rank_deficient_lists(draw):
    """More strings than generators, each a product of some of the generators:
    every string past the rank is dependent, and often the one that anticommutes."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    generators = draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=4))
    picks = st.lists(st.booleans(), min_size=len(generators), max_size=len(generators))
    strings = []
    for chosen in draw(st.lists(picks, min_size=len(generators) + 1, max_size=12)):
        x = z = 0
        for (gx, gz), keep in zip(generators, chosen):
            if keep:
                x, z = x ^ gx, z ^ gz
        strings.append(PauliString(n, x, z))
    return strings


def _diagonal_family(n):
    """The residual I/Z family's shape: I, every Z_p and every Z_p Z_q (rank n)."""
    masks = [0] + [1 << p for p in range(n)]
    masks += [1 << p | 1 << q for p in range(n) for q in range(p + 1, n)]
    return [PauliString(n, 0, z) for z in masks]


@cache
def _families(n):
    """The compile's families at n: the dominant ones have rank n."""
    return [[w.string for w in strings_of(f)] for f in build_partition(n).families]


class TestAnticommutingPairReference:
    """``partition._anticommuting_indices`` on masks names the pair the audit's scan finds
    on :class:`PauliString` values."""

    @given(st.lists(pauli_strings(n=4), max_size=10))
    def test_random_lists(self, strings):
        got = _indexed_pair(strings)
        assert _same_pair(got, anticommuting_pair_by_scan(strings))

    @given(rank_deficient_lists())
    def test_rank_deficient_lists(self, strings):
        got = _indexed_pair(strings)
        assert _same_pair(got, anticommuting_pair_by_scan(strings))

    @pytest.mark.parametrize("n", [8, 12])
    def test_compiled_families(self, n):
        for family in _families(n):
            assert _indexed_pair(family) is None is anticommuting_pair_by_scan(family)

    @given(st.sampled_from([8, 12, 20]), st.data())
    def test_compiled_families_with_one_letter_changed(self, n, data):
        family = _diagonal_family(n) if n == 20 else data.draw(st.sampled_from(_families(n)))
        at = data.draw(st.integers(0, len(family) - 1))
        qubit = data.draw(st.integers(0, n - 1))
        bx, bz = data.draw(st.sampled_from([(1, 0), (1, 1), (0, 1), (0, 0)]))
        s = family[at]
        x = s.x & ~(1 << qubit) | bx << qubit
        z = s.z & ~(1 << qubit) | bz << qubit
        changed = family[:at] + [PauliString(n, x, z)] + family[at + 1:]
        assert _same_pair(_indexed_pair(changed), anticommuting_pair_by_scan(changed))

    def test_the_largest_residual_family(self):
        family = _diagonal_family(20)
        assert len(family) == 211
        assert _indexed_pair(family) is None
        changed = family + [parse_pauli("X" + "I" * 19)]
        assert _same_pair(_indexed_pair(changed), (family[1], changed[-1]))

    @given(st.lists(pauli_strings(max_n=4), min_size=2, max_size=8))
    def test_mixed_registers_raise_first(self, strings):
        # the scan checks every register against the first before any pair,
        # as commutes does for the first string of another register
        other = [s for s in strings if s.n != strings[0].n]
        if not other:
            assert _same_pair(_indexed_pair(strings), anticommuting_pair_by_scan(strings))
            return
        with pytest.raises(ValueError) as want:
            anticommuting_pair_by_scan(strings)
        with pytest.raises(ValueError) as got:
            commutes(strings[0], other[0])
        assert str(got.value) == str(want.value)


class TestStoredText:
    def test_equality_hash_and_repr_ignore_the_stored_text(self):
        p = parse_pauli("XIZY")
        q = PauliString(4, p.x, p.z)
        assert p == q and p is not q
        assert hash(p) == hash(q) == hash((4, p.x, p.z))
        assert repr(p) == "PauliString('XIZY')"
        assert p != PauliString(5, p.x, p.z)

    def test_no_instance_dict(self):
        assert not hasattr(parse_pauli("XZ"), "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            parse_pauli("XZ").extra = 1

    def test_replace_rebuilds_the_text(self):
        p = parse_pauli("XIZY")
        assert replace(p, x=0).text() == "IIZZ"
        assert str(replace(p, n=6)) == "XIZYII"
        with pytest.raises(ValueError):
            replace(p, x=1 << 4)


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
        got = weighted_sum_matrix([w], p.n)
        assert got == matrix_product(weighted_sum_matrix([wp], p.n), weighted_sum_matrix([wq], p.n))

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
