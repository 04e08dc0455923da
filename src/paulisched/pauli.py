"""N-qubit Pauli strings: parsing, commutation tests, phase-tracked products.

Text convention: qubit 0 is the LEFTMOST character, so "XII" puts an X on
qubit 0 of a three-qubit register.

Internally a string is a pair of bitmasks (x, z); bit t encodes qubit t as
I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).  Commutation then reduces to a popcount
of masked ANDs, which keeps the all-pairs certification done downstream
cheap even for thousands of strings.

Coefficients are exact complex numbers with rational real/imaginary parts
(:class:`ExactComplex`); every value the encoding pipeline produces is a
dyadic rational times a power of i, so algebraic identities can be asserted
with equality instead of tolerances.  Conversion to float happens only at
serialization boundaries.

All values are immutable and all operations pure, so everything here can be
shared freely across threads.
"""

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ExactComplex",
    "PauliString",
    "WeightedPauliString",
    "anticommuting_index_count",
    "commutes",
    "multiply",
    "parse_pauli",
    "string_product",
]

_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_CHAR = {bits: char for char, bits in _CHAR_TO_XZ.items()}


@dataclass(frozen=True)
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

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.real - other.real, self.imag - other.imag)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.real, -self.imag)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def times_i_power(self, k: int) -> "ExactComplex":
        """Return self * i**k."""
        k %= 4
        if k == 0:
            return self
        if k == 1:
            return ExactComplex(-self.imag, self.real)
        if k == 2:
            return ExactComplex(-self.real, -self.imag)
        return ExactComplex(self.imag, -self.real)

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.real, -self.imag)

    def abs_squared(self) -> Fraction:
        return self.real * self.real + self.imag * self.imag

    def as_complex(self) -> complex:
        return complex(float(self.real), float(self.imag))


@dataclass(frozen=True)
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

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    def letter(self, t: int) -> str:
        if not 0 <= t < self.n:
            raise IndexError(f"qubit index {t} out of range for n={self.n}")
        return _XZ_TO_CHAR[(self.x >> t) & 1, (self.z >> t) & 1]

    def text(self) -> str:
        return "".join(self.letter(t) for t in range(self.n))

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"PauliString({self.text()!r})"


@dataclass(frozen=True)
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


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the two strings commute, i.e. the anticommuting-index count is even."""
    _require_same_length(p, q)
    return ((p.x & q.z) ^ (p.z & q.x)).bit_count() % 2 == 0


def string_product(p: PauliString, q: PauliString) -> tuple[PauliString, int]:
    """Positionwise product p*q, returned as (string, k) with global phase i**k.

    Uses the X^x Z^z normal form: each letter is i^(x*z) X^x Z^z, commuting
    Z past X contributes (-1)^(z1*x2) per position, and the result is folded
    back into the IXYZ alphabet.
    """
    _require_same_length(p, q)
    x3 = p.x ^ q.x
    z3 = p.z ^ q.z
    k = (
        (p.x & p.z).bit_count()
        + (q.x & q.z).bit_count()
        + 2 * (p.z & q.x).bit_count()
        - (x3 & z3).bit_count()
    )
    return PauliString(p.n, x3, z3), k % 4


def multiply(p: WeightedPauliString, q: WeightedPauliString) -> WeightedPauliString:
    """Product of two weighted strings with the global phase folded into the coefficient."""
    product, k = string_product(p.string, q.string)
    return WeightedPauliString((p.coefficient * q.coefficient).times_i_power(k), product)
