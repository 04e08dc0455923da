"""Show that the checker accepts a real families file and rejects corrupted copies.

Usage, from the root of a checkout:  python3 perfbench/selfcheck.py

Writes ``paulisched families --n 8``, then checks it as is, with one Pauli
letter flipped in a dominant string, with one dominant string dropped, and
with every family that names one residual term dropped, strings, terms and
all.  Each corrupted copy is checked with a summary that agrees with it.
Exits 0 only if the first passes and every corruption fails.
"""

import copy
import json
import sys

import checker
from run import Run, cli_argv

N = 8


def corruptions(document):
    flipped = copy.deepcopy(document)
    family = next(f for f in flipped if f["origin"] == "dominant")
    text = family["strings"][0]
    at = next(t for t, char in enumerate(text) if char in "XY")
    family["strings"][0] = text[:at] + ("Y" if text[at] == "X" else "X") + text[at + 1:]
    yield "one flipped letter", flipped

    dropped = copy.deepcopy(document)
    family = next(f for f in dropped if f["origin"] == "dominant")
    del family["strings"][0], family["coefficients"][0]
    yield "one dropped dominant string", dropped

    term = next(f["terms"][0] for f in document if f["origin"] == "residual")
    yield "one residual term dropped with its families", [f for f in document if term not in f["terms"]]


def main() -> int:
    run = Run(0)
    try:
        op = run.fresh_dir()
        out = op / "families.json"
        child = run.child(cli_argv("families", "--n", N, "--format", "json", "--out", out), op)
        if child.status != 0:
            print(f"paulisched failed: {child.stderr.strip()}")
            return 1
        summary = json.loads(child.stdout.strip().splitlines()[-1])
        document = json.loads(out.read_text())
    finally:
        run.close()
    ok = True
    problems = checker.check_families(checker.parse_families(document, N), N, summary)
    print(f"unchanged file: {'accepted' if not problems else problems}")
    ok &= not problems
    for name, corrupted in corruptions(document):
        families = checker.parse_families(corrupted, N)
        # A summary that agrees with the corrupted file, as a program that
        # wrote it would print: the other checks must catch the corruption.
        problems = checker.check_families(families, N, {**summary, **checker.summary_of(families)})
        print(f"{name}: {'rejected: ' + '; '.join(problems) if problems else 'ACCEPTED'}")
        ok &= bool(problems)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
