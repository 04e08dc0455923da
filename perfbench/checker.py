"""Independent checks of the files the program writes.

The checks use the benchmark's own parser, symplectic commutation test and
Jordan-Wigner expansion (``hamiltonian.py``), never ``paulisched`` code.
Each check function returns a list of problems; an empty list means the
output passed.  Duplicate strings across families are measured (see
``family_stats``), not rejected.
"""

from math import comb

from hamiltonian import JordanWigner, parse_pauli

TOLERANCE = 1e-9


def _open_intervals(support_mask: int) -> int:
    """Z mask of a dominant string: the open intervals (e0, e1) and (e2, e3)."""
    e = [t for t in range(support_mask.bit_length()) if support_mask >> t & 1]
    mask = 0
    for lo, hi in ((e[0], e[1]), (e[2], e[3])):
        mask |= ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    return mask


def parse_families(document, n: int):
    """[(origin, [(x, z, coefficient)], terms)] from a families JSON document.

    Raises KeyError, TypeError or ValueError on a malformed document.
    """
    families = []
    for family in document:
        strings, coefficients = family["strings"], family["coefficients"]
        if len(strings) != len(coefficients):
            raise ValueError("a family has different numbers of strings and coefficients")
        parsed = []
        for text, (re, im) in zip(strings, coefficients):
            x, z = parse_pauli(text, n)
            parsed.append((x, z, complex(re, im)))
        terms = [(tuple(t["creates"]), tuple(t["annihilates"])) for t in family["terms"]]
        families.append((family["origin"], parsed, terms))
    return families


def _commutation_problems(families) -> list[str]:
    for index, (_, strings, _) in enumerate(families):
        for i, (xa, za, _) in enumerate(strings):
            for xb, zb, _ in strings[i + 1 :]:
                if ((xa & zb) ^ (za & xb)).bit_count() & 1:
                    return [f"family {index} holds two anticommuting strings"]
    return []


def _dominant_problems(families, n: int, complete: bool) -> list[str]:
    per_support: dict[int, set] = {}
    slots = 0
    for origin, strings, _ in families:
        if origin != "dominant":
            continue
        for x, z, _ in strings:
            slots += 1
            if x.bit_count() != 4 or (z & ~x) != _open_intervals(x):
                return ["a dominant string does not have the two-body excitation shape"]
            per_support.setdefault(x, set()).add((x, z))
    distinct = sum(len(s) for s in per_support.values())
    if distinct != slots:
        return [f"{slots - distinct} dominant strings are repeated"]
    if complete:
        if len(per_support) != comb(n, 4) or distinct != 16 * comb(n, 4):
            return [
                f"{distinct} dominant strings on {len(per_support)} supports, "
                f"expected {16 * comb(n, 4)} on {comb(n, 4)}"
            ]
        if any(len(s) != 16 for s in per_support.values()):
            return ["a 4-subset does not carry exactly its 16 strings"]
    return []


def _summed(families) -> dict:
    total: dict = {}
    for _, strings, _ in families:
        for x, z, c in strings:
            total[(x, z)] = total.get((x, z), 0) + c
    return total


def _sum_problems(summed: dict, expected: dict) -> list[str]:
    worst = 0.0
    for key in summed.keys() | expected.keys():
        worst = max(worst, abs(summed.get(key, 0) - expected.get(key, 0)))
    if worst > TOLERANCE:
        return [f"summed family coefficients differ from the JW image by {worst:.3g}"]
    return []


def summary_of(families) -> dict:
    """The counts a program summary reports, read from parsed families."""
    dominant = [f for f in families if f[0] == "dominant"]
    residual = [f for f in families if f[0] == "residual"]
    return {
        "family_count": len(families),
        "dominant_families": len(dominant),
        "residual_families": len(residual),
        "dominant_strings": sum(len(f[1]) for f in dominant),
        "residual_strings": sum(len(f[1]) for f in residual),
        "max_family_size": max((len(f[1]) for f in families), default=0),
    }


def _summary_problems(summary: dict, families) -> list[str]:
    if "family_count" not in summary:
        return ["the summary has no family_count"]
    return [
        f"summary says {key}={summary[key]}, the file has {value}"
        for key, value in summary_of(families).items()
        if key in summary and summary[key] != value
    ]


def structural_terms(n: int) -> set:
    """Every canonical non-vanishing term outside the dominant class.

    All one-body terms (p, q), and the two-body terms a+a a+b a-c a-d with
    a > b, c > d and overlapping supports: each nonzero, none a 4-subset.
    """
    terms = {((p,), (q,)) for p in range(n) for q in range(n)}
    pairs = [(a, b) for a in range(n) for b in range(a)]
    terms |= {(c, d) for c in pairs for d in pairs if set(c) & set(d)}
    return terms


def _dominant_term_problems(terms: set, n: int) -> list[str]:
    supports = set()
    for creates, annihilates in terms:
        modes = {*creates, *annihilates}
        if len(creates) != 2 or len(annihilates) != 2 or len(modes) != 4 or not modes <= set(range(n)):
            return [f"dominant families name {creates}/{annihilates}, not a 4-subset excitation"]
        supports.add(frozenset(modes))
    if len(supports) != len(terms) or len(terms) != comb(n, 4):
        return [f"dominant families name {len(terms)} terms on {len(supports)} 4-subsets, "
                f"expected one term on each of {comb(n, 4)}"]
    return []


def check_families(families, n: int, summary: dict, hamiltonian: dict | None = None) -> list[str]:
    """Check families parsed by :func:`parse_families`.

    Without a Hamiltonian the file must hold every dominant string once, its
    dominant families must name one term per 4-subset, and its coefficients
    must sum to the JW image of those terms plus every structural term
    (:func:`structural_terms`) at unit weight; with one, they must sum to
    the JW image of that Hamiltonian, expanded from its raw entries.
    """
    problems = _commutation_problems(families)
    problems += _dominant_problems(families, n, complete=hamiltonian is None)
    problems += _summary_problems(summary, families)
    jw = JordanWigner(n)
    if hamiltonian is None:
        dominant = {t for origin, _, terms in families if origin == "dominant" for t in terms}
        term_problems = _dominant_term_problems(dominant, n)
        if term_problems:
            return problems + term_problems
        expected: dict = {}
        for term in sorted(dominant | structural_terms(n)):
            for key, c in jw.term(*term).items():
                expected[key] = expected.get(key, 0) + c
    else:
        expected = jw.hamiltonian(hamiltonian)
    problems += _sum_problems(_summed(families), expected)
    return problems


def family_stats(families) -> dict:
    """Counts read from parsed families, for the per-layer metrics."""
    summed = _summed(families)
    slots = sum(len(f[1]) for f in families)
    return {
        "families": len(families),
        "slots": slots,
        "dominant_families": sum(1 for f in families if f[0] == "dominant"),
        "residual_families": sum(1 for f in families if f[0] == "residual"),
        "distinct": len(summed),
        "nonzero": sum(1 for c in summed.values() if abs(c) > TOLERANCE),
        "certified_pairs": sum(len(f[1]) * (len(f[1]) - 1) // 2 for f in families),
    }


def check_schedule(document, n: int) -> list[str]:
    """An exact cover of the 4-subsets of range(n) by C(n-1,3) rounds of n/4 disjoint subsets."""
    try:
        if document["n"] != n:
            return [f"schedule is for n={document['n']}, not {n}"]
        rounds = document["rounds"]
        seen: set[int] = set()
        for rnd in rounds:
            if len(rnd) != n // 4:
                return [f"a round has {len(rnd)} subsets, expected {n // 4}"]
            used = 0
            for subset in rnd:
                mask = 0
                for m in subset:
                    if not (isinstance(m, int) and 0 <= m < n):
                        return [f"bad mode {m!r} in subset {subset}"]
                    mask |= 1 << m
                if len(subset) != 4 or mask.bit_count() != 4:
                    return [f"subset {subset} is not four distinct modes"]
                if mask & used:
                    return [f"subsets overlap inside a round at {subset}"]
                if mask in seen:
                    return [f"subset {subset} appears twice"]
                used |= mask
                seen.add(mask)
    except (KeyError, TypeError) as exc:
        return [f"unreadable schedule file: {exc}"]
    if len(rounds) != comb(n - 1, 3) or len(seen) != comb(n, 4):
        return [f"{len(rounds)} rounds covering {len(seen)} subsets, expected "
                f"{comb(n - 1, 3)} rounds covering {comb(n, 4)}"]
    return []
