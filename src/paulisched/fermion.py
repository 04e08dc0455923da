"""Fermionic terms and their Jordan-Wigner images as weighted Pauli strings.

A ladder operator on mode m maps to (X_m + iY_m)/2 (annihilation) or
(X_m - iY_m)/2 (creation), times a Z chain on all lower modes
(:func:`jw_ladder`, the one source of that encoding).  The kernel
:func:`_jw_sums` expands a product of ladder operators exactly on
integers: every coefficient is (a + ib) / 2**k for Gaussian integers a + ib
and k ladder factors, so the expansion tracks an i-power per product path
and takes each product's phase from the same rule
:func:`paulisched.pauli.string_product` uses.  :func:`jw_term` wraps it,
building one :class:`~paulisched.pauli.ExactComplex` per output string;
the block fold in :mod:`paulisched.partition` sums the numerators directly.
No sign or phase is hand-coded, which is what the dense-matrix oracles in
:mod:`paulisched.oracles` verify.

For a two-body term with four distinct mode indices the expansion is always
16 strings of coefficient magnitude 1/16, each matching a fixed shape: X or
Y at the four endpoint modes, Z on the two open intervals between the first
and second and between the third and fourth endpoint (in increasing order),
identity elsewhere; the test suite checks this shape.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .pauli import ExactComplex, PauliString, WeightedPauliString, _product_phase

__all__ = [
    "FermionicTerm",
    "UnsupportedTermError",
    "jw_excitation",
    "jw_ladder",
    "jw_term",
]

_HALF = ExactComplex(Fraction(1, 2))
_PLUS_I_HALF = ExactComplex(0, Fraction(1, 2))
_MINUS_I_HALF = ExactComplex(0, Fraction(-1, 2))
# ladder coefficient c -> k with c = i**k / 2
_LADDER_I_POWER = {_HALF: 0, _PLUS_I_HALF: 1, _MINUS_I_HALF: 3}


class UnsupportedTermError(ValueError):
    """Raised for terms outside the supported one-body / two-body shapes."""


@dataclass(frozen=True, slots=True)
class FermionicTerm:
    """A normal-ordered product of creation then annihilation operators.

    ``creates`` and ``annihilates`` are strictly descending mode-index
    tuples, either one index each (one-body) or two each (two-body).
    Repeats between the two tuples are allowed (those are the residual
    terms); repeats within a tuple would make the operator vanish and are
    rejected.
    """

    creates: tuple[int, ...]
    annihilates: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "creates", tuple(self.creates))
        object.__setattr__(self, "annihilates", tuple(self.annihilates))
        shape = (len(self.creates), len(self.annihilates))
        if shape not in ((1, 1), (2, 2)):
            raise UnsupportedTermError(f"unsupported operator shape {shape}")
        for side in (self.creates, self.annihilates):
            if any(not 0 <= m < self.n for m in side):
                raise ValueError(f"mode index out of range [0, {self.n}) in {side}")
            if any(a <= b for a, b in zip(side, side[1:])):
                raise UnsupportedTermError(f"indices must be strictly descending, got {side}")

    @classmethod
    def one_body(cls, p: int, q: int, n: int) -> "FermionicTerm":
        return cls((p,), (q,), n)

    @classmethod
    def two_body(cls, p: int, q: int, r: int, s: int, n: int) -> "FermionicTerm":
        return cls((p, q), (r, s), n)

    @property
    def is_two_body(self) -> bool:
        return len(self.creates) == 2

    def support(self) -> tuple[int, ...]:
        """Distinct touched modes, ascending."""
        return tuple(sorted(set(self.creates) | set(self.annihilates)))

    def has_distinct_indices(self) -> bool:
        return len(self.support()) == len(self.creates) + len(self.annihilates)

    def adjoint(self) -> "FermionicTerm":
        """Hermitian conjugate: daggers swap and the factor order reverses."""
        return FermionicTerm(self.annihilates, self.creates, self.n)


def jw_ladder(mode: int, dagger: bool, n: int) -> tuple[WeightedPauliString, WeightedPauliString]:
    """The two weighted strings encoding one ladder operator on ``mode``.

    Returns ((1/2) X_mode Zchain, (+-i/2) Y_mode Zchain) with -i/2 for a
    creation operator and +i/2 for an annihilation operator; the Z chain
    covers every mode below ``mode``.
    """
    if not 0 <= mode < n:
        raise ValueError(f"mode {mode} out of range [0, {n})")
    chain = (1 << mode) - 1
    x_part = PauliString(n, 1 << mode, chain)
    y_part = PauliString(n, 1 << mode, chain | (1 << mode))
    return (
        WeightedPauliString(_HALF, x_part),
        WeightedPauliString(_MINUS_I_HALF if dagger else _PLUS_I_HALF, y_part),
    )


@lru_cache(maxsize=1024)
def _ladder_ints(mode: int, dagger: bool, n: int) -> tuple[tuple[int, int, int], ...]:
    """:func:`jw_ladder` as (x, z, k) per part: masks and coefficient i**k / 2."""
    return tuple(
        (w.string.x, w.string.z, _LADDER_I_POWER[w.coefficient])
        for w in jw_ladder(mode, dagger, n)
    )


@lru_cache(maxsize=4096)
def _dyadic(re: int, im: int, k: int) -> ExactComplex:
    """(re + i im) / 2**k, interned: ExactComplex is immutable, so sharing is safe."""
    return ExactComplex(Fraction(re, 1 << k), Fraction(im, 1 << k))


def _jw_sums(term: FermionicTerm) -> tuple[dict[tuple[int, int], list[int]], int]:
    """The kernel: a term's JW image as {(x, z): [re, im]} over 2**k.

    Each string (x, z) carries the Gaussian-integer numerator re + i im of
    its coefficient (re + i im) / 2**k, with k the number of ladder
    factors.  Equal strings arising from index repetition are already
    combined; a string whose paths cancel keeps its entry at [0, 0].
    """
    n = term.n
    factors = [_ladder_ints(m, True, n) for m in term.creates]
    factors += [_ladder_ints(m, False, n) for m in term.annihilates]
    # One (x, z, k) per product path: the string and its phase i**k; every
    # path carries the common factor 1 / 2**len(factors).
    paths = [(0, 0, 0)]
    for parts in factors:
        paths = [
            (x ^ fx, z ^ fz, k + fk + _product_phase(x, z, fx, fz))
            for x, z, k in paths
            for fx, fz, fk in parts
        ]
    sums: dict[tuple[int, int], list[int]] = {}
    for x, z, k in paths:
        re_im = sums.setdefault((x, z), [0, 0])
        re_im[k & 1] += -1 if k & 2 else 1  # i**k is 1, i, -1 or -i
    return sums, len(factors)


def jw_term(term: FermionicTerm) -> list[WeightedPauliString]:
    """Expand a term's full ladder product into weighted Pauli strings.

    Equal strings arising from index repetition are combined and zero
    coefficients dropped, so nilpotent products come back empty.  The result
    is sorted by string text, which makes downstream output reproducible.
    """
    sums, k = _jw_sums(term)
    out = [
        WeightedPauliString(_dyadic(re, im, k), PauliString(term.n, x, z))
        for (x, z), (re, im) in sums.items()
        if re or im
    ]
    out.sort(key=lambda w: w.string.text())
    return out


def jw_excitation(term: FermionicTerm) -> list[WeightedPauliString]:
    """Expansion of a two-body term whose four indices are all distinct.

    Exactly 16 strings, every coefficient of magnitude 1/16, every string
    of the fixed shape the module docstring describes.

    Raises:
        UnsupportedTermError: for one-body terms or repeated indices.
    """
    if not (term.is_two_body and term.has_distinct_indices()):
        raise UnsupportedTermError(
            f"not a distinct-index two-body term: {term.creates} / {term.annihilates}"
        )
    strings = jw_term(term)
    assert len(strings) == 16
    return strings
