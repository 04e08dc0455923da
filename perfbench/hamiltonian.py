"""Seeded Hamiltonian inputs and the benchmark's own Jordan-Wigner expansion.

Nothing here imports ``paulisched``: the checker compares the program's
output against these functions, so they must stay independent of it.

Pauli strings are (x, z) bitmask pairs with bit t for qubit t (qubit 0 is
the leftmost text character); a letter is i^(x*z) X^x Z^z, so Y = iXZ.
Coefficients are Python complex numbers.
"""

import random
from itertools import product

LETTERS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

# Values are multiples of 1/VALUE_SCALE, so every split and every sum the
# program folds is exact in binary floating point and in Fraction arithmetic:
# the inputs are exactly Hermitian, not Hermitian up to rounding.
VALUE_SCALE = 1024
SPLIT_PROBABILITY = 0.15


def parse_pauli(text: str, n: int) -> tuple[int, int]:
    """(x, z) masks of a Pauli text word; raises ValueError on a bad word."""
    if len(text) != n:
        raise ValueError(f"string {text!r} has length {len(text)}, expected {n}")
    x = z = 0
    for t, char in enumerate(text):
        bits = LETTERS.get(char)
        if bits is None:
            raise ValueError(f"bad Pauli letter {char!r} in {text!r}")
        x |= bits[0] << t
        z |= bits[1] << t
    return x, z


def _pauli_product(a, b):
    """(x, z, phase exponent k) of the product a*b, with global phase i**k."""
    (x1, z1), (x2, z2) = a, b
    x3, z3 = x1 ^ x2, z1 ^ z2
    k = (x1 & z1).bit_count() + (x2 & z2).bit_count() + 2 * (z1 & x2).bit_count()
    k -= (x3 & z3).bit_count()
    return x3, z3, k % 4


_I_POWERS = (1, 1j, -1, -1j)


def _times(left: dict, right: dict) -> dict:
    out: dict = {}
    for a, ca in left.items():
        for b, cb in right.items():
            x, z, k = _pauli_product(a, b)
            out[(x, z)] = out.get((x, z), 0) + ca * cb * _I_POWERS[k]
    return out


class JordanWigner:
    """Expands products of ladder operators on an n-mode register."""

    def __init__(self, n: int):
        self.n = n
        self._ladders = {}
        for mode in range(n):
            chain = (1 << mode) - 1
            bit = 1 << mode
            # creation (X - iY)/2, annihilation (X + iY)/2, Z chain below.
            # Y = i X Z, so the Y string (bit, chain|bit) carries phase i.
            for dagger, sign in ((True, -1), (False, 1)):
                self._ladders[(mode, dagger)] = {
                    (bit, chain): 0.5,
                    (bit, chain | bit): sign * 0.5j,
                }
        self._pairs = {}

    def _pair(self, first, second) -> dict:
        key = (first, second)
        if key not in self._pairs:
            self._pairs[key] = _times(self._ladders[first], self._ladders[second])
        return self._pairs[key]

    def term(self, creates, annihilates) -> dict:
        """Expansion of a+c1 a+c2 ... a-a1 a-a2 ..., in the order given.

        The operator count must be even; pairs of neighbours are expanded
        once and reused.
        """
        ops = [(m, True) for m in creates] + [(m, False) for m in annihilates]
        acc = {(0, 0): 1}
        for i in range(0, len(ops), 2):
            acc = _times(acc, self._pair(ops[i], ops[i + 1]))
        return acc

    def hamiltonian(self, data: dict) -> dict:
        """JW image of a coefficients document, expanding each raw entry as written."""
        total: dict = {}
        for entry in data["one_body"]:
            p, q = entry["pq"]
            _accumulate(total, self.term((p,), (q,)), entry["value"])
        for entry in data["two_body"]:
            p, q, r, s = entry["pqrs"]
            _accumulate(total, self.term((p, q), (r, s)), entry["value"])
        return total


def _accumulate(total: dict, strings: dict, weight) -> None:
    for key, c in strings.items():
        total[key] = total.get(key, 0) + c * weight


def _value(rng: random.Random) -> float:
    while True:
        k = rng.randint(-VALUE_SCALE, VALUE_SCALE)
        if k:
            return k / VALUE_SCALE


def _emit(rng: random.Random, entries: list, key: str, index, value: float) -> None:
    """Append one entry, or two that sum to it exactly (a split duplicate)."""
    if rng.random() < SPLIT_PROBABILITY:
        part = _value(rng)
        entries.append({key: list(index), "value": part})
        entries.append({key: list(index), "value": value - part})
    else:
        entries.append({key: list(index), "value": value})


def generate(n: int, seed: int, index: int) -> dict:
    """A dense real Hermitian coefficients document, reproducible from (seed, index).

    Every index tuple appears, in raw (not normal-ordered) order, including
    the repeated-index two-body entries.  h(pq) = h(qp) and h(pqrs) = h(srqp)
    hold exactly, so the operator is Hermitian; some entries are split into
    two duplicates whose values sum to the original.
    """
    rng = random.Random(f"paulisched-bench:{n}:{seed}:{index}")
    one_body: list = []
    for p in range(n):
        for q in range(p, n):
            value = _value(rng)
            for pq in sorted({(p, q), (q, p)}):
                _emit(rng, one_body, "pq", pq, value)
    two_body: list = []
    for pqrs in product(range(n), repeat=4):
        partner = pqrs[::-1]
        if partner < pqrs:
            continue
        value = _value(rng)
        for key in sorted({pqrs, partner}):
            _emit(rng, two_body, "pqrs", key, value)
    return {"n": n, "one_body": one_body, "two_body": two_body}
