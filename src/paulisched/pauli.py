"""N-qubit Pauli strings: parsing, commutation tests, phase-tracked products.

Text convention: qubit 0 is the LEFTMOST character, so "XII" puts an X on
qubit 0 of a three-qubit register.

Internally a string is a pair of bitmasks (x, z); bit t encodes qubit t as
I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).  Two rules on these integers live here
and nowhere else: the symplectic commutation test (the parity of a popcount
of masked ANDs), which :func:`commutes` and the batched all-pairs
certification of a whole family share, and the X^x Z^z normal-form phase of
a product, which the integer Jordan-Wigner kernel in
:mod:`paulisched.fermion` takes for every product path.  Both rules stay
private although :mod:`paulisched.fermion` imports ``_product_phase`` and
:mod:`paulisched.partition` imports ``_anticommuting_pair``: they are
per-path and per-pair helpers on bare ints, and every ``__all__`` name is a
boundary the benchmark tracer wraps, so making either public would add one
span per product path to a traced run.

Coefficients are exact complex numbers with rational real/imaginary parts
(:class:`ExactComplex`); every value the encoding pipeline produces is a
dyadic rational times a power of i, so algebraic identities can be asserted
with equality instead of tolerances.  Conversion to float happens only at
serialization boundaries.

All values are immutable and all operations pure, so everything here can be
shared freely across threads.  The value types are slotted frozen
dataclasses, as are the other value types of the package: an instance has
no ``__dict__``, which keeps the hundreds of thousands of strings of a
compile small and quick to allocate.  Attributes cannot be added to an
instance, and ``functools.cached_property`` does not work on these classes.
"""

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ExactComplex",
    "PauliString",
    "WeightedPauliString",
    "anticommuting_index_count",
    "commutes",
    "parse_pauli",
]

_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_CHAR = {bits: char for char, bits in _CHAR_TO_XZ.items()}
_DIGIT_TO_CHAR = str.maketrans("0123", "IXZY")  # digit x + 2z per qubit


@dataclass(frozen=True, slots=True)
class ExactComplex:
    """A complex number with exact rational real and imaginary parts.

    Floats passed to the constructor are converted exactly (every binary
    float is a rational), so feeding in coefficients read from JSON keeps
    all subsequent arithmetic exact.
    """

    real: Fraction = Fraction(0)
    imag: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "real", Fraction(self.real))
        object.__setattr__(self, "imag", Fraction(self.imag))

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.real + other.real, self.imag + other.imag)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def as_complex(self) -> complex:
        return complex(float(self.real), float(self.imag))


@dataclass(frozen=True, slots=True)
class PauliString:
    """An N-qubit Pauli word stored as x/z bitmasks (bit t = qubit t)."""

    n: int
    x: int = 0
    z: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        limit = 1 << self.n
        if not (0 <= self.x < limit and 0 <= self.z < limit):
            raise ValueError(f"bitmasks out of range for n={self.n}")

    def letter(self, t: int) -> str:
        if not 0 <= t < self.n:
            raise IndexError(f"qubit index {t} out of range for n={self.n}")
        return _XZ_TO_CHAR[(self.x >> t) & 1, (self.z >> t) & 1]

    def text(self) -> str:
        # Reading each mask's binary digits as hex digits puts qubit t in hex
        # digit t as x_t + 2 z_t (no carries: every digit stays below 4).
        # Base 16, unlike base 10, has no int/str digit limit.
        digits = int(format(self.x, "b"), 16) + 2 * int(format(self.z, "b"), 16)
        return format(digits, "x").zfill(self.n)[::-1].translate(_DIGIT_TO_CHAR)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"PauliString({self.text()!r})"


@dataclass(frozen=True, slots=True)
class WeightedPauliString:
    """A Pauli string with a nonzero exact complex coefficient."""

    coefficient: ExactComplex
    string: PauliString

    def __post_init__(self):
        if not self.coefficient:
            raise ValueError("weighted Pauli string requires a nonzero coefficient")


def parse_pauli(text: str) -> PauliString:
    """Parse a Pauli word such as "ZZX" (qubit 0 is the leftmost character).

    Raises:
        ValueError: if the text is empty or contains a character outside IXYZ.
    """
    if not text:
        raise ValueError("empty Pauli string")
    x = z = 0
    for t, char in enumerate(text):
        try:
            xb, zb = _CHAR_TO_XZ[char]
        except KeyError:
            raise ValueError(f"invalid Pauli character {char!r} at position {t}") from None
        x |= xb << t
        z |= zb << t
    return PauliString(len(text), x, z)


def _require_same_length(p: PauliString, q: PauliString) -> None:
    if p.n != q.n:
        raise ValueError(f"Pauli strings act on different registers: {p.n} != {q.n}")


def anticommuting_index_count(p: PauliString, q: PauliString) -> int:
    """Number of qubit positions where p and q carry different non-identity letters.

    Per-qubit, two Pauli letters anticommute exactly when both are
    non-identity and unequal; in the (x, z) encoding that is the symplectic
    product x1*z2 XOR z1*x2 of the two bit pairs.
    """
    _require_same_length(p, q)
    return ((p.x & q.z) ^ (p.z & q.x)).bit_count()


def _anticommuting_pair(strings) -> tuple[PauliString, PauliString] | None:
    """The first pair (a, b), a before b, of ``strings`` that anticommutes, or None.

    The one commutation rule: a and b anticommute iff the symplectic product
    (a.x & b.z) ^ (a.z & b.x) has odd popcount.  The register size is
    checked once and the pairs are then tested on bare x/z ints, so a whole
    family is certified in one loop.

    Raises:
        ValueError: if the strings act on different registers.
    """
    if not strings:
        return None
    n = strings[0].n
    for s in strings:
        if s.n != n:
            raise ValueError(f"Pauli strings act on different registers: {n} != {s.n}")
    masks = [(s.x, s.z) for s in strings]
    for i, (ax, az) in enumerate(masks):
        for j in range(i + 1, len(masks)):
            bx, bz = masks[j]
            if ((ax & bz) ^ (az & bx)).bit_count() & 1:
                return strings[i], strings[j]
    return None


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the two strings commute, i.e. the anticommuting-index count is even."""
    return _anticommuting_pair((p, q)) is None


def _product_phase(px: int, pz: int, qx: int, qz: int) -> int:
    """Exponent k in 0..3 with P*Q = i**k R for the IXYZ-letter strings P, Q, R.

    Uses the X^x Z^z normal form: each letter is i^(x*z) X^x Z^z, commuting
    Z past X contributes (-1)^(z1*x2) per position, and the result R, with
    masks (px ^ qx, pz ^ qz), is folded back into the IXYZ alphabet.
    """
    return (
        (px & pz).bit_count()
        + (qx & qz).bit_count()
        + 2 * (pz & qx).bit_count()
        - ((px ^ qx) & (pz ^ qz)).bit_count()
    ) & 3
