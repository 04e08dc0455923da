"""The committed BENCH files that ``tools/stages.py`` writes: their counts are a build's.

Times are not tested; counts are deterministic.  Every N the file records
is held to the paper's counts, and every N <= 16 to a fresh build; the
weighted rows at N = 12 are held to a fresh weighted build.  The
output's bytes and sha256 are a record of the build measured, not held to
the current code: the output pins in the other tests hold those.  The
tool itself reaches into private functions of ``partition``, so its
in-process stages run here on the current tree at N = 8, and their counts
are held to a fresh build; its one rule of which tree each run measures
first is held to alternating.
"""

import json
import runpy
from math import ceil, comb
from pathlib import Path

import pytest

from paulisched.baranyai import build_schedule
from paulisched.partition import commuting_families, load_coefficients, schedule_for

ROOT = Path(__file__).resolve().parents[1]
STAGE_FILES = [path for path in sorted(ROOT.glob("BENCH_*.json")) if "stages" in json.loads(path.read_text())]
WEIGHTED_FILES = [path for path in STAGE_FILES if "weighted" in json.loads(path.read_text())]


def test_a_stage_file_is_committed():
    assert STAGE_FILES


def test_a_weighted_file_is_committed():
    assert WEIGHTED_FILES


def fresh_counts(n: int) -> dict:
    """The counts of ``tools/stages.py`` for an unweighted build at n modes,
    but for the output's bytes and sha256."""
    schedule = build_schedule(n)
    families = list(commuting_families(schedule))
    dominant = [len(family.rows) for family in families if family.origin == "dominant"]
    residual = [len(family.rows) for family in families if family.origin == "residual"]
    return {
        "rounds": len(schedule.rounds),
        "four_mode_blocks": comb(n, 4),
        "other_blocks": 1 + comb(n, 2),
        "dominant_families": len(dominant),
        "residual_families": len(residual),
        "dominant_strings": sum(dominant),
        "residual_strings": sum(residual),
        "string_slots": sum(dominant) + sum(residual),
    }


@pytest.mark.parametrize("path", STAGE_FILES, ids=lambda path: path.name)
def test_counts_are_the_paper_s_and_a_fresh_build_s(path):
    fresh: dict[int, dict] = {}
    for label, sizes in json.loads(path.read_text())["stages"].items():
        assert sizes, label
        for key, entry in sizes.items():
            n, counts = int(key), entry["counts"]
            # t = ceil(C(N,4) / floor(N/4)) rounds of two families each; one
            # residual family per 0- or 2-bit X mask; 16 strings per 4-subset
            rounds = ceil(comb(n, 4) / (n // 4))
            paper = (rounds, 2 * rounds, 1 + comb(n, 2), 16 * comb(n, 4))
            recorded = ("rounds", "dominant_families", "residual_families", "dominant_strings")
            assert tuple(counts[name] for name in recorded) == paper, (label, n)
            if n <= 16:
                if n not in fresh:
                    fresh[n] = fresh_counts(n)
                assert {name: counts[name] for name in fresh[n]} == fresh[n], (label, n)


def fresh_weighted_counts(n: int, path: Path) -> dict:
    """The counts of ``tools/stages.py`` for the weighted build of
    ``perfbench/hamiltonian.generate(n, 1, 0)``, but for the output's bytes and sha256."""
    # the generator is stdlib-only and is read, not imported as a module
    document = runpy.run_path(str(ROOT / "perfbench" / "hamiltonian.py"))["generate"](n, 1, 0)
    path.write_text(json.dumps(document))
    coeffs = load_coefficients(path)
    families = list(commuting_families(schedule_for(n), coeffs))
    return {
        "entries": len(document["one_body"]) + len(document["two_body"]),
        "one_body_keys": sum(len(creates) == 1 for creates, _ in coeffs.terms),
        "two_body_keys": sum(len(creates) == 2 for creates, _ in coeffs.terms),
        "dominant_families": sum(family.origin == "dominant" for family in families),
        "residual_families": sum(family.origin == "residual" for family in families),
        "string_slots": sum(len(family.rows) for family in families),
    }


@pytest.mark.parametrize("path", WEIGHTED_FILES, ids=lambda path: path.name)
def test_weighted_counts_are_a_fresh_build_s(path, tmp_path):
    fresh = fresh_weighted_counts(12, tmp_path / "h12.json")
    for label, sizes in json.loads(path.read_text())["weighted"].items():
        counts = sizes["12"]["counts"]
        assert {name: counts[name] for name in fresh} == fresh, label


def test_the_tool_measures_the_current_tree(tmp_path):
    # the tool's in-process stages, read as a script, run on this tree at N = 8
    tool = runpy.run_path(str(ROOT / "tools" / "stages.py"))
    for measure, fresh in (
        (tool["measure_size"], fresh_counts(8)),
        (tool["measure_weighted"], fresh_weighted_counts(8, tmp_path / "fresh8.json")),
    ):
        table = measure(8, tmp_path)
        assert all(seconds >= 0 for seconds in table["times"].values()), table["times"]
        assert {name: table["counts"][name] for name in fresh} == fresh


def test_each_run_alternates_which_tree_goes_first():
    in_turn = runpy.run_path(str(ROOT / "tools" / "stages.py"))["in_turn"]
    trees = {"parent": None, "change": None}
    orders = [in_turn(trees, run) for run in range(3)]
    assert orders == [["parent", "change"], ["change", "parent"], ["parent", "change"]]
