"""Fermionic terms and their Jordan-Wigner images as weighted Pauli strings.

A ladder operator on mode m maps to (X_m + iY_m)/2 (annihilation) or
(X_m - iY_m)/2 (creation), times a Z chain on all lower modes
(:func:`jw_ladder`, the one source of that encoding).  The kernel
:func:`_jw_sums` expands a product of ladder operators exactly on
integers: every coefficient is (a + ib) / 2**k for Gaussian integers a + ib
and k ladder factors, so the expansion tracks an i-power per product path
and takes each product's phase from the one phase rule of
:mod:`paulisched.pauli`.  :func:`jw_image`, the one
builder of weighted strings, sums those numerators for a weighted set of
terms; :func:`jw_term` is its single-term case, and the block fold in
:mod:`paulisched.partition` calls it once per block.
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
from math import lcm

from .pauli import ExactComplex, PauliString, WeightedPauliString, _product_phase

__all__ = [
    "FermionicTerm",
    "UnsupportedTermError",
    "jw_image",
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
def _coefficient(re: int, im: int, denominator: int) -> ExactComplex:
    """(re + i im) / denominator, interned: ExactComplex is immutable, so sharing is safe."""
    return ExactComplex(Fraction(re, denominator), Fraction(im, denominator))


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


def jw_image(entries) -> list[WeightedPauliString]:
    """The exact JW image of sum(value * term) over (term, value) entries.

    ``entries`` is a non-empty list; values are ints or Fractions and all
    terms share one register.  The sum is made on integers over one common
    denominator D: the lcm of the values' denominators times 2**k for the
    largest ladder count k among the terms.  Each entry's kernel numerators
    (over 2**k) are scaled to D and added per string, then each nonzero sum
    becomes one exact coefficient; strings that sum to zero drop out.  The
    result is sorted by string text, which makes downstream output
    reproducible.
    """
    expanded = [(_jw_sums(term), value) for term, value in entries]
    denominator = lcm(*(value.denominator for _, value in entries))
    denominator <<= max(k for (_, k), _ in expanded)
    sums: dict[tuple[int, int], list[int]] = {}
    for (term_sums, k), value in expanded:
        scale = value.numerator * (denominator // (value.denominator << k))
        for xz, (re, im) in term_sums.items():
            re_im = sums.get(xz)
            if re_im is None:
                sums[xz] = [re * scale, im * scale]
            else:
                re_im[0] += re * scale
                re_im[1] += im * scale
    n = entries[0][0].n
    image = [
        WeightedPauliString(_coefficient(re, im, denominator), PauliString(n, x, z))
        for (x, z), (re, im) in sums.items()
        if re or im
    ]
    image.sort(key=lambda w: w.string.text())
    return image


def jw_term(term: FermionicTerm) -> list[WeightedPauliString]:
    """Expand a term's full ladder product into weighted Pauli strings.

    This is ``jw_image([(term, 1)])``: equal strings arising from index
    repetition are combined and zero coefficients dropped, so nilpotent
    products come back empty, and the result is sorted by string text.
    """
    return jw_image([(term, 1)])
