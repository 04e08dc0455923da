import ast
import gc
import hashlib
import json
import os
import re
import runpy
import stat
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from conftest import seeded_hermitian_entries, strings_of, write_coefficients
from paulisched import partition
from paulisched.cli import main
from paulisched.partition import HamiltonianCoefficients, read_schedule_file, schedule_json
from paulisched.oracles import ExactComplex, PauliString, WeightedPauliString, parse_pauli
from paulisched.baranyai import build_schedule

TERM = re.compile(r"^a\+(\d+) a\+(\d+) a-(\d+) a-(\d+)$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScheduleCommand:
    def test_minimal_register_line(self, capsys):
        code, out, _ = run(capsys, "schedule", "--n", "4")
        assert code == 0
        assert out == "a+3 a+2 a-1 a-0\n"

    def test_eight_modes_text_layout(self, capsys):
        code, out, _ = run(capsys, "schedule", "--n", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 35
        for line in lines:
            terms = line.split("    ")
            assert len(terms) == 2
            assert all(TERM.match(t) for t in terms)

    @pytest.mark.parametrize("command", ["schedule", "families", "verify"])
    def test_too_small_register(self, capsys, command):
        code, out, err = run(capsys, command, "--n", "3")
        assert code == 2
        assert "at least 4" in err
        assert out == ""

    def test_json_output_round_trips(self, capsys, tmp_path):
        path = tmp_path / "sched.json"
        code, _, _ = run(capsys, "schedule", "--n", "8", "--format", "json", "--out", str(path))
        assert code == 0
        assert read_schedule_file(path) == build_schedule(8)

    def test_json_output_byte_identical(self, capsys, tmp_path):
        _, first, _ = run(capsys, "schedule", "--n", "8", "--format", "json")
        _, second, _ = run(capsys, "schedule", "--n", "8", "--format", "json")
        assert first == second
        # stdout and --out share one serializer
        out = tmp_path / "out.json"
        run(capsys, "schedule", "--n", "8", "--format", "json", "--out", str(out))
        assert out.read_text() == schedule_json(build_schedule(8)) == first

    def test_padded_size(self, capsys):
        code, out, _ = run(capsys, "schedule", "--n", "5")
        assert code == 0
        assert len(out.strip().split("\n")) == 5


class TestFamiliesCommand:
    def test_summary_and_file(self, capsys, tmp_path):
        path = tmp_path / "families.json"
        code, out, _ = run(
            capsys, "families", "--n", "8", "--out", str(path), "--format", "json"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["dominant_families"] == 70
        assert summary["dominant_strings"] == 1120
        data = json.loads(path.read_text())
        assert len(data) == summary["family_count"]

    def test_zero_hamiltonian_retains_nothing(self, capsys, tmp_path):
        coeffs = tmp_path / "zeros.json"
        coeffs.write_text(json.dumps({"n": 8, "one_body": [], "two_body": []}))
        code, out, _ = run(
            capsys, "families", "--n", "8", "--hamiltonian", str(coeffs), "--format", "json"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["dominant_strings"] == 0
        assert summary["family_count"] == 0

    def test_bad_coefficients_file(self, capsys, tmp_path):
        coeffs, out = tmp_path / "bad.json", tmp_path / "families.json"
        texts = [
            "{broken",
            json.dumps({"n": 8.7, "one_body": [], "two_body": []}),
            json.dumps({"n": "8", "one_body": [], "two_body": []}),
            json.dumps({"n": 8, "one_body": [{"pq": [1.5, 0], "value": 1}]}),
            json.dumps({"n": 8, "two_body": [{"pqrs": [7, 5, 3.0, 0], "value": 1}]}),
            # one-sided, so not Hermitian
            json.dumps({"n": 8, "two_body": [{"pqrs": [7, 5, 3, 0], "value": 0.5}]}),
            # values must be finite JSON numbers
            '{"n": 8, "one_body": [{"pq": [0, 0], "value": Infinity}]}',
            '{"n": 8, "one_body": [{"pq": [0, 0], "value": -Infinity}]}',
            '{"n": 8, "one_body": [{"pq": [0, 0], "value": NaN}]}',
            '{"n": 8, "one_body": [{"pq": [0, 0], "value": "0.5"}]}',
            '{"n": 8, "one_body": [{"pq": [0, 0], "value": true}]}',
            '{"n": 8, "two_body": [{"pqrs": [1, 0, 1, 0], "value": Infinity}]}',
            # an integer past the float range
            '{"n": 8, "one_body": [{"pq": [0, 0], "value": 1' + "0" * 400 + '}]}',
            # each value fits, but the I coefficient sums past the float range
            json.dumps({"n": 8, "one_body": [{"pq": [0, 0], "value": 1.7e308}, {"pq": [1, 1], "value": 1.7e308}],
                        "two_body": [{"pqrs": [1, 0, 1, 0], "value": -1.7e308}]}),
            # the I and Z coefficients are +-2.5e-324, nonzero but zero as floats
            json.dumps({"n": 8, "one_body": [{"pq": [0, 0], "value": 5e-324}]}),
        ]
        for text in texts:
            coeffs.write_text(text)
            code, _, err = run(capsys, "families", "--n", "8", "--hamiltonian", str(coeffs), "--out", str(out))
            assert code == 2, text
            assert "coefficients" in err
            assert not out.exists()
            assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]
        # the last two files fail only in the writer: an existing --out keeps
        # its bytes, and no temporary file remains beside it
        out.write_bytes(b"earlier output\n")
        for text in texts[-2:]:
            coeffs.write_text(text)
            code, _, err = run(capsys, "families", "--n", "8", "--hamiltonian", str(coeffs), "--out", str(out))
            assert code == 2, text
            assert "coefficients" in err
            assert out.read_bytes() == b"earlier output\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "families.json"]

    def test_entry_outside_its_body(self, capsys, tmp_path):
        coeffs = tmp_path / "bad.json"
        one = {"pq": [0, 0], "value": 1}
        two = {"pqrs": [1, 0, 1, 0], "value": 1}
        for data in [
            {"n": 8, "two_body": [two, one]},
            {"n": 8, "one_body": [one, two]},
            {"n": 8, "one_body": one},
            {"n": 8, "one_body": [one], "two_body": two},
            {"n": 8, "two_body": "pqrs"},
            {"n": 8, "one_body": 3},
        ]:
            coeffs.write_text(json.dumps(data))
            code, out, err = run(capsys, "families", "--n", "8", "--hamiltonian", str(coeffs))
            assert (code, out) == (2, ""), data
            assert err.startswith(f"error: malformed coefficients file {coeffs}: "), data

    def test_wrong_n_in_coefficients(self, capsys, tmp_path):
        coeffs = tmp_path / "small.json"
        coeffs.write_text(json.dumps({"n": 4, "one_body": [], "two_body": []}))
        code, _, err = run(capsys, "families", "--n", "8", "--hamiltonian", str(coeffs))
        assert code == 2


class TestStreamedFamilies:
    """``families`` writes each family as it is certified and holds none of them."""

    @pytest.mark.parametrize("n, seed", [(8, None), (9, None), (12, None), (8, 5)])
    def test_matches_the_library(self, capsys, tmp_path, n, seed):
        argv = ["families", "--n", str(n), "--format", "json", "--out", str(tmp_path / "F")]
        coeffs = None
        if seed is not None:
            path = write_coefficients(tmp_path / "h.json", n, *seeded_hermitian_entries(n, seed))
            argv += ["--hamiltonian", str(path)]
            coeffs = partition.load_coefficients(path)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        report = partition.build_partition(n, coeffs)
        partition.save_families(report.families, tmp_path / "G")
        assert (tmp_path / "F").read_bytes() == (tmp_path / "G").read_bytes()
        assert out == json.dumps(report.summary(), separators=(",", ":")) + "\n"

    def test_peak_memory_under_half_of_the_held_partition(self, capsys, tmp_path):
        partition.schedule_for(12)  # neither side counts the schedule

        def peak(compile_and_write):
            tracemalloc.start()
            try:
                compile_and_write()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        held = peak(lambda: partition.save_families(partition.build_partition(12).families, tmp_path / "G"))
        streamed = peak(lambda: main(["families", "--n", "12", "--format", "json", "--out", str(tmp_path / "F")]))
        capsys.readouterr()
        assert (tmp_path / "F").read_bytes() == (tmp_path / "G").read_bytes()
        assert streamed < held / 2, (streamed, held)

    def test_failure_mid_stream_keeps_the_existing_out(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "families.json"
        out.write_bytes(b"earlier output\n")
        certify, calls, temporaries = partition._certified, [], []

        def reject_tenth(family):
            calls.append(len(family.rows))
            if len(calls) < 10:
                return certify(family)
            temporaries.extend(p.name for p in tmp_path.glob(".paulisched-*.tmp"))
            raise partition.FamilyCertificationError("the tenth family is rejected")

        monkeypatch.setattr(partition, "_certified", reject_tenth)
        with pytest.raises(partition.FamilyCertificationError):
            main(["families", "--n", "8", "--format", "json", "--out", str(out)])
        assert capsys.readouterr().out == ""
        # the first nine families were already being written when the tenth failed
        assert len(calls) == 10 and len(temporaries) == 1
        assert out.read_bytes() == b"earlier output\n"
        assert [p.name for p in tmp_path.iterdir()] == ["families.json"]


@pytest.mark.parametrize("command", [["schedule", "--n", "8"], ["families", "--n", "8"]])
@pytest.mark.parametrize("target", ["missing/out.json", "a-directory"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, monkeypatch, command, target):
    (tmp_path / "a-directory").mkdir()
    certify, certified = partition._certified, []

    def counted(family):
        certified.append(len(family.rows))
        return certify(family)

    monkeypatch.setattr(partition, "_certified", counted)
    out = tmp_path / target
    code, stdout, err = run(capsys, *command, "--out", str(out))
    assert code == 2
    assert certified == []  # the target fails before any family is compiled
    assert stdout == ""
    reason = {"missing/out.json": "No such file or directory", "a-directory": "Is a directory"}[target]
    assert err == f"error: cannot write {out}: {reason}\n"
    # nothing is left behind: no output and no temporary file
    assert [p.name for p in tmp_path.iterdir()] == ["a-directory"]
    assert list((tmp_path / "a-directory").iterdir()) == []


@pytest.mark.parametrize("command", [["schedule", "--n", "8"], ["families", "--n", "8"]])
class TestOutPath:
    """Both commands write ``--out`` through one writer: whole files, no temporary left."""

    def test_long_file_name(self, capsys, tmp_path, command):
        name = "f" * 245 + ".json"
        assert len(name.encode()) == 250
        code, _, err = run(capsys, *command, "--format", "json", "--out", str(tmp_path / name))
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / name).read_text())
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_symlink_target_written_through(self, capsys, tmp_path, command):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out.json"
        target.write_text("stale\n")
        link = tmp_path / "link.json"
        link.symlink_to(Path("real") / "out.json")
        code, _, err = run(capsys, *command, "--format", "json", "--out", str(link))
        assert (code, err) == (0, "")
        assert link.is_symlink() and link.resolve() == target
        expected = tmp_path / "expected.json"
        run(capsys, *command, "--format", "json", "--out", str(expected))
        assert target.read_bytes() == expected.read_bytes()
        # the temporary file sat beside the resolved file and is gone
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.json", "link.json", "real"]
        assert [p.name for p in (tmp_path / "real").iterdir()] == ["out.json"]

    def test_existing_file_keeps_its_permission_bits(self, capsys, tmp_path, command):
        out = tmp_path / "out.json"
        out.write_text("stale\n")
        out.chmod(0o600)
        code, _, err = run(capsys, *command, "--format", "json", "--out", str(out))
        assert (code, err) == (0, "")
        assert json.loads(out.read_text())
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_fifo_out_is_written_through(capsys, tmp_path):
    expected = tmp_path / "expected.json"
    run(capsys, "schedule", "--n", "8", "--format", "json", "--out", str(expected))
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # a reader is open before the write, so opening the FIFO to write does
    # not block, and the 789 bytes fit in its buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, err = run(capsys, "schedule", "--n", "8", "--format", "json", "--out", str(fifo))
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert (code, err) == (0, "")
    assert fifo.is_fifo()
    assert received == expected.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.json", "out.fifo"]


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out

    def test_reports_as_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert all(r["passed"] for r in reports)

    def test_checks_every_family_as_a_partition(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 0
        reports = {r["name"]: r for r in json.loads(out)}
        # the 70 dominant and the 29 residual families of n = 8
        assert reports["family-validation"]["details"]["families"] == 99
        assert reports["partition-validation"]["details"]["families"] == 99
        assert reports["partition-validation"]["passed"]

    def test_tampered_schedule_file_fails(self, capsys, tmp_path):
        schedule = build_schedule(8)
        rounds = [[list(s) for s in rnd] for rnd in schedule.rounds]
        rounds[0][0] = rounds[5][1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 8, "rounds": rounds}))
        code, out, _ = run(capsys, "verify", "--schedule-file", str(path))
        assert code == 1
        reports = json.loads(out)
        assert any(not r["passed"] for r in reports)

    def test_good_schedule_file_passes(self, capsys, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(schedule_json(build_schedule(8)))
        code, _, _ = run(capsys, "verify", "--schedule-file", str(path))
        assert code == 0

    def test_unreadable_schedule_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{")
        code, _, err = run(capsys, "verify", "--schedule-file", str(path))
        assert code == 2

    def test_non_positive_n_schedule_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        for n in (0, -4):
            path.write_text(json.dumps({"n": n, "rounds": []}))
            code, out, err = run(capsys, "verify", "--schedule-file", str(path))
            assert code == 2
            assert out == ""
            assert "n must be positive" in err

    def test_non_integer_schedule_file_is_usage_error(self, capsys, tmp_path):
        rounds = [[list(s) for s in rnd] for rnd in build_schedule(8).rounds]
        rounds[0][0] = [t + 0.5 for t in rounds[0][0]]
        path = tmp_path / "floats.json"
        path.write_text(json.dumps({"n": 8, "rounds": rounds}))
        code, _, err = run(capsys, "verify", "--schedule-file", str(path))
        assert code == 2
        assert "integer" in err

    def test_deep_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--deep", "--format", "json")
        assert code == 0
        details = {r["name"]: r["details"] for r in json.loads(out)}
        assert "jw-dense-n6" in details
        assert "endpoint-sliding" in details
        # the per-term dense check at n = 7: every canonical term, each
        # 4-subset in all six splits, equal to its matrix
        assert details["jw-dense-n7"]["terms_checked"] == details["jw-dense-n7"]["exact_matches"] == 490


class TestStatsCommand:
    def test_table_rows(self, capsys):
        code, out, _ = run(capsys, "stats", "--n-list", "4,8")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3  # header + two rows

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "stats", "--n-list", "4,8,10", "--format", "json")
        rows = json.loads(out)
        assert rows[0]["n"] == 4
        assert rows[0]["terms"] == 1
        assert rows[0]["strings"] == 16
        assert rows[0]["dominant_families"] == 2
        assert rows[1]["dominant_families"] == 70
        assert rows[2]["dominant_families"] == 210  # 2 * ceil(C(10,4) / 2)
        assert all(row["families_per_round"] == 2.0 for row in rows)

    def test_bad_list(self, capsys):
        code, _, err = run(capsys, "stats", "--n-list", "8,x")
        assert code == 2

    def test_too_small_entry(self, capsys):
        code, _, _ = run(capsys, "stats", "--n-list", "2,8")
        assert code == 2


def test_unknown_command_exits_2(capsys):
    for argv in (["frobnicate"], ["schedule", "--n", "8", "--engine", "baseline"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["families", "--n", "8", "--hamiltonian", ""],
        ["families", "--n", "8", "--out", ""],
        ["schedule", "--n", "8", "--out", ""],
        ["verify", "--schedule-file", ""],
    ],
    ids=["families-hamiltonian", "families-out", "schedule-out", "verify-schedule-file"],
)
def test_empty_path_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    # argparse rejects the empty path before any compile runs
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "a path cannot be empty" in captured.err
    assert list(tmp_path.iterdir()) == []


SRC = Path(__file__).resolve().parents[1] / "src"


class TestNumpyOffTheCompilePath:
    """The package is stdlib-only: no module imports numpy, and no command loads it.

    The test process may have numpy loaded already, so each command runs in
    a fresh interpreter and reports its exit status and whether numpy was
    imported.
    """

    def test_no_module_imports_numpy(self):
        def top_levels(node):
            if isinstance(node, ast.Import):
                return {alias.name.partition(".")[0] for alias in node.names}
            if isinstance(node, ast.ImportFrom) and not node.level:
                return {node.module.partition(".")[0]}
            return set()

        trees = _module_trees()
        assert "oracles" in trees
        found = [
            f"{module}:{node.lineno}"
            for module, tree in trees.items()
            for node in ast.walk(tree)
            if "numpy" in top_levels(node)
        ]
        assert found == []

    @pytest.mark.parametrize(
        "code, loads_numpy",
        [
            ("import paulisched", False),
            ("import paulisched.cli", False),
            ("main(['families', '--n', '8', '--format', 'json', '--out', 'F'])", False),
            ("main(['schedule', '--n', '8', '--format', 'json', '--out', 'S'])", False),
            ("main(['stats', '--n-list', '8'])", False),
        ],
    )
    def test_numpy_import(self, tmp_path, code, loads_numpy):
        if code.startswith("main("):
            code = f"from paulisched.cli import main\nstatus = {code}\nassert status == 0, status"
        assert _loads(code, "numpy", tmp_path) is loads_numpy

    def test_deep_verify_passes_without_numpy(self, tmp_path):
        result = _python(
            "import sys\nsys.modules['numpy'] = None  # as if numpy were not installed\n"
            "from paulisched.cli import main\nsys.exit(main(['verify', '--deep']))",
            tmp_path,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stderr == ""
        assert "FAIL" not in result.stdout


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )


def _loads(code: str, module: str, cwd) -> bool:
    """Whether running ``code`` in a fresh interpreter imports ``module``."""
    result = _python(f"import sys\n{code}\nprint({module!r} in sys.modules)", cwd)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("module", ["paulisched.oracles", "dataclasses", "inspect"])
def test_partition_does_not_load_the_oracles(module, tmp_path):
    # nor does any compile, weighted or not: only verify loads the oracles,
    # and so no compile builds one of their view objects; the compile's
    # records are named tuples, so no compile loads a code generator either
    hamiltonian = runpy.run_path(str(SRC.parent / "perfbench" / "hamiltonian.py"))
    (tmp_path / "H").write_text(json.dumps(hamiltonian["generate"](8, 1, 0)))
    codes = [
        "import paulisched.partition",
        "import paulisched.cli",
        *(
            f"from paulisched.cli import main\nstatus = main({argv!r})\nassert status == 0, status"
            for argv in (
                ["families", "--n", "8", "--format", "json", "--out", "F"],
                ["families", "--n", "8", "--hamiltonian", "H", "--format", "json", "--out", "F"],
                ["schedule", "--n", "8", "--format", "json", "--out", "S"],
                ["stats", "--n-list", "8"],
            )
        ),
    ]
    assert [code for code in codes if _loads(code, module, tmp_path)] == []


def _module_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted((SRC / "paulisched").glob("*.py"))}


def test_no_module_imports_a_private_name_of_another():
    # every name one module takes from another is public
    imported = set()
    for module, tree in _module_trees().items():
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module:
                        if alias.name.startswith("_"):
                            imported.add((module, node.module, alias.name))
                    else:
                        siblings.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and node.attr.startswith("_")):
                imported.add((module, node.value.id, node.attr))
    assert imported == set()


def test_only_weighted_strings_builds_and_only_side_calls_ladder():
    # one Jordan-Wigner kernel: _side, which expands each side of a term
    # once, is the only place that reads the ladder table, and
    # weighted_strings, which reads the kernel's rows, the only place that
    # makes weighted strings
    owners = {"_ladder": ("fermion", "_side"), "WeightedPauliString": ("oracles", "weighted_strings")}

    def calls(tree):
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) in owners or getattr(node.func, "attr", None) in owners)
        ]

    trees = _module_trees()
    inside = {
        node.name: calls(node) for module, owner in owners.values() for node in trees[module].body
        if isinstance(node, ast.FunctionDef) and node.name == owner
    }
    assert {owner: {ast.unparse(call.func) for call in found} for owner, found in inside.items()} == {
        owner: {name} for name, (_, owner) in owners.items()
    }
    outside = [
        f"{module}:{call.lineno} {ast.unparse(call.func)}"
        for module, tree in trees.items()
        for call in calls(tree)
        if not any(call in found for found in inside.values())
    ]
    assert outside == []


def test_every_exported_name_is_used_in_the_package():
    # a name only the tests call belongs in the tests; the package
    # __init__ re-exports names and does not count as a use
    trees = _module_trees()
    exports = {
        module: [
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            for elt in node.value.elts
        ]
        for module, tree in trees.items()
    }

    def read(node, name):
        return (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name)

    unused = []
    for module, tree in trees.items():
        for name in exports[module]:
            used = any(
                read(node, name)
                or (isinstance(node, ast.alias) and node.name == name and other != module)
                for other, other_tree in trees.items() if other != "__init__"
                for node in ast.walk(other_tree)
            )
            if not used:
                unused.append(f"{module}.{name}")
    # the one exemption: build_partition hands library callers the whole
    # partition, while the CLI streams the families; its caller is the
    # benchmark's library sweep
    batch = ast.parse((SRC.parent / "perfbench" / "batch.py").read_text())
    assert any(isinstance(node, ast.Attribute) and node.attr == "build_partition" for node in ast.walk(batch))
    assert unused == ["partition.build_partition"]
    # the compile's modules hold only what the compile reads: each public
    # name of baranyai, fermion and partition is read in one of them or in
    # cli; a reader in the oracles or the tests does not count, so the view
    # they read lives in the oracles
    compile_path = ("baranyai", "fermion", "partition")
    readers = [node for module in (*compile_path, "cli") for node in ast.walk(trees[module])]
    unread = [
        f"{module}.{name}"
        for module in compile_path
        for name in exports[module]
        if not any(read(node, name) for node in readers)
    ]
    assert unread == ["partition.build_partition"]
    # the package root re-exports a name only for a caller outside the
    # package that reads it through the root, in code or in the code it
    # hands a child: the benchmark and the tools
    reexported = {
        alias.asname or alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    outside = [path.read_text() for folder in ("perfbench", "tools") for path in (SRC.parent / folder).glob("*.py")]
    read = {name for text in outside for name in re.findall(r"\bpaulisched\.(\w+)", text)}
    assert reexported, "the root re-exports nothing"
    assert sorted(reexported - read) == []


def test_the_oracles_read_only_jw_image_from_fermion():
    # the dense checks read letters by the oracles' own text rule: of the
    # compile's kernel they take the single-term image and nothing else,
    # by no relative or plain import of the module either
    taken = [
        (getattr(node, "module", None), alias.name)
        for node in ast.walk(_module_trees()["oracles"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "fermion" in f"{getattr(node, 'module', None)}.{alias.name}"
    ]
    assert taken == [("fermion", "jw_image")]


class TestCollectorPause:
    """``main`` runs a command with the cyclic collector off, then restores it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, capsys, enabled):
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, "schedule", "--n", "4")[0] == 0
        assert gc.isenabled() is enabled
        assert run(capsys, "schedule", "--n", "3")[0] == 2
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert gc.isenabled() is enabled

    def test_paused_during_the_command(self, capsys, monkeypatch):
        gc.enable()
        seen = []
        schedule_for = partition.schedule_for

        def spy(n):
            seen.append(gc.isenabled())
            return schedule_for(n)

        monkeypatch.setattr(partition, "schedule_for", spy)
        assert run(capsys, "schedule", "--n", "8")[0] == 0
        assert seen == [False]
        assert gc.isenabled()


# sha256 of outputs checked to be right; a change that alters these bytes
# on purpose updates the digest and says why in CHANGES.md
SCHEDULE_16_SHA256 = "705afd82788886e29fe9d73eb9f6a6bd6eb121bec15ab15084c45a4e62572464"
FAMILIES_8_OUT_SHA256 = "b925e78d983b9e14248e35916d27dcb5fddc9311845acf73085f2a36307d4a48"
FAMILIES_8_WEIGHTED_SHA256 = "c45b56f806b37c5a8a5e51efa914f17bc6d909cad104e7d9180e941f814b4842"
SCHEDULE_10_OUT_SHA256 = "f333fff09e4845d152e060917c8614208362fc1de9abc8cc3ba79c05460ba890"
# families --n 12 --hamiltonian H for H = perfbench/hamiltonian.generate(12, 1, 0),
# an input of the benchmark's weighted-batch workload
FAMILIES_12_WEIGHTED_SHA256 = "bc5f2791306cb2783e5a3f9cbda12a709c172a47460df00c8d086de97a359a01"
# the same command for each generate(12, s, i), s and i in 0..2: one sha256
# of the nine outputs concatenated, with s the outer loop
FAMILIES_12_WEIGHTED_NINE_SHA256 = "09d3701d561e2506e3e25056a7b6b4b52115a8c9f3236e7dc7b24c8ec8eb3b74"
# n % 4 == 3: hub edges and long augmenting paths in every insertion network
SCHEDULE_23_SHA256 = "7fea85f0b698773882317754e6b7b9efb94a3d6eefb818b1d8c90670fc0b5f8d"
# odd N: a last round of one subset, hub edges, and the residual families after the rounds
FAMILIES_13_OUT_SHA256 = "466db8446f90dff035e09aa36e4684e3e2de34d7836369e2e84040b971ca2cc2"
# the output of the benchmark's families-cold workload
FAMILIES_20_OUT_SHA256 = "36fea8ca949d5f1ea0bb264d6e86bc5a3af7c6e3c9f08e0a90d5cb2eb12a2cb0"
# the output of the benchmark's schedule-large workload; 4 | 28, so no hub
SCHEDULE_28_OUT_SHA256 = "54c5d55aae4373970842ae23499a81e915d9e40b7756f7c20b5aab9c4bf6216a"
# families --n 28 --format json --out: the longest gaps between the four
# modes of a block of any families pin.  Only CI checks it (tier1.yml reads
# it from here); the compile takes about a second.
FAMILIES_28_OUT_SHA256 = "35f4fdb04c4b311765e16eb6ec5e6a440aaa8a901699610fba2304c2589332fd"
# families --n 20 --hamiltonian H for H = perfbench/hamiltonian.generate(20, 1, 0):
# 183,810 entries, where the N = 12 pins fold about 24,000.  Only CI checks
# it (tier1.yml reads it from here).
FAMILIES_20_WEIGHTED_SHA256 = "450d115defcd7fd25ce6894aec1820a29c28428dad36efbf6ba48e12efbecc2d"
# 4 does not divide 30, so the hub is used, and each round has 7 slots, so
# each row starts as the empty slot 7 times; no other pin has both
SCHEDULE_30_SHA256 = "d9f0016263e972c86b60fab94fe254f823c2c044131994a29ac29b6b39069a9d"
# the deepest Dinic phases of any pin: up to 51 phases in one insertion
# step and sink levels past 1,000 (n = 28: 33 phases, levels up to 465)
SCHEDULE_36_OUT_SHA256 = "11b39c7b9b6201286552a853c672d8e355e9ad40b7c6b6017e3d65377c7feebe"


def test_output_bytes_pinned(capsys, tmp_path):
    assert hashlib.sha256(schedule_json(build_schedule(16)).encode()).hexdigest() == SCHEDULE_16_SHA256
    assert hashlib.sha256(schedule_json(build_schedule(23)).encode()).hexdigest() == SCHEDULE_23_SHA256
    assert hashlib.sha256(schedule_json(build_schedule(30)).encode()).hexdigest() == SCHEDULE_30_SHA256
    path = tmp_path / "families.json"
    assert run(capsys, "families", "--n", "8", "--format", "json", "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FAMILIES_8_OUT_SHA256
    path = tmp_path / "schedule.json"
    assert run(capsys, "schedule", "--n", "10", "--format", "json", "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCHEDULE_10_OUT_SHA256
    path = tmp_path / "families13.json"
    assert run(capsys, "families", "--n", "13", "--format", "json", "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FAMILIES_13_OUT_SHA256
    path = tmp_path / "families20.json"
    assert run(capsys, "families", "--n", "20", "--format", "json", "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FAMILIES_20_OUT_SHA256
    path = tmp_path / "schedule28.json"
    assert run(capsys, "schedule", "--n", "28", "--format", "json", "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCHEDULE_28_OUT_SHA256
    path = tmp_path / "schedule36.json"
    assert run(capsys, "schedule", "--n", "36", "--format", "json", "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCHEDULE_36_OUT_SHA256


def test_weighted_output_bytes_pinned(capsys, tmp_path):
    coeffs = write_coefficients(tmp_path / "h.json", 8, *seeded_hermitian_entries(8, seed=11))
    path = tmp_path / "families.json"
    argv = ["families", "--n", "8", "--hamiltonian", str(coeffs), "--format", "json", "--out", str(path)]
    assert run(capsys, *argv)[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FAMILIES_8_WEIGHTED_SHA256


def test_benchmark_weighted_output_bytes_pinned(capsys, tmp_path):
    # the generator is stdlib-only and is read, not imported as a module
    hamiltonian = runpy.run_path(str(SRC.parent / "perfbench" / "hamiltonian.py"))
    coeffs, path = tmp_path / "h.json", tmp_path / "families.json"
    argv = ["families", "--n", "12", "--hamiltonian", str(coeffs), "--format", "json", "--out", str(path)]
    nine = hashlib.sha256()
    for seed in range(3):
        for index in range(3):
            coeffs.write_text(json.dumps(hamiltonian["generate"](12, seed, index)))
            assert run(capsys, *argv)[0] == 0
            output = path.read_bytes()
            if (seed, index) == (1, 0):
                assert hashlib.sha256(output).hexdigest() == FAMILIES_12_WEIGHTED_SHA256
                # n last: the file is read whole, not folded as it is
                # parsed, and compiles to the same bytes
                data = hamiltonian["generate"](12, seed, index)
                data["n"] = data.pop("n")
                coeffs.write_text(json.dumps(data))
                assert run(capsys, *argv)[0] == 0
                assert hashlib.sha256(path.read_bytes()).hexdigest() == FAMILIES_12_WEIGHTED_SHA256
            nine.update(output)
    assert nine.hexdigest() == FAMILIES_12_WEIGHTED_NINE_SHA256


def test_no_pauli_objects_on_the_compile_path(capsys, tmp_path, monkeypatch):
    # the compile carries ints and texts from the kernel to the file; only
    # the oracles' builder of a family's strings makes Pauli objects
    built = Counter()
    for cls in (PauliString, WeightedPauliString, ExactComplex):
        def counted(self, name=cls.__name__, post_init=cls.__post_init__):
            built[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    parse_pauli("XZ")
    assert built == {"PauliString": 1}  # the count sees a construction
    built.clear()

    argv = ["families", "--n", "8", "--format", "json", "--out", str(tmp_path / "F")]
    assert run(capsys, *argv)[0] == 0
    coeffs = HamiltonianCoefficients.from_entries(8, *seeded_hermitian_entries(8, seed=11))
    report = partition.build_partition(8, coeffs)
    assert report.summary()["family_count"] == len(report.families)
    partition.save_families(report.families, tmp_path / "G")
    assert built == {}

    family = report.families[0]
    size = len(family.rows)
    assert len(strings_of(family)) == size
    assert built == {"PauliString": size, "WeightedPauliString": size, "ExactComplex": size}
