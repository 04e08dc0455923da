"""Stage times and end-to-end runs of the families compile, written as one BENCH file.

Usage, from the root of a checkout:

    python3 tools/stages.py --tree parent=OTHER/src --tree change=src --out BENCH_label.json

Each ``--tree LABEL=SRC`` names the ``src`` directory of a checkout; the
trees are measured in one session, each kind of run alternating the trees,
so that their ratios do not depend on machine drift.  The file records:

- the machine: ``nproc``, the CPU model and the Python version;
- per tree and per N in ``SIZES``, the in-process times of each stage of
  the unweighted ``families --n N`` compile, from ``TREE_RUNS`` fresh
  interpreters per tree, trees alternating which goes first; each stage
  keeps its least time over a tree's interpreters, each of which takes
  the best of ``REPEAT``, and its spread, the largest time less the
  least; the counts must agree between them:
  ``build_schedule``, the block table (``partition._blocks``), the whole
  families pass, ``jw_image`` over the units the compile folds: once per
  schedule round, on that round's blocks, and once per other block, each
  a unit of its own; certification (``partition._certified`` of each
  family), these three dropping each result as it comes, and the
  writer (``save_families``), each timed before a second copy of its
  result could be held; and the counts: rounds, families and strings per
  class, string slots, output bytes and the sha256 of the output;
- per tree and per N in ``WEIGHTED_SIZES``, the same for the weighted
  compile of ``perfbench/hamiltonian.generate(N, 1, 0)``, in the same
  interpreters, which only read the input a child process wrote: the
  times of ``load_coefficients``, the block table, the families pass and
  the writer, each timed before a second copy of its result could be
  held; and the counts: raw entries, one- and two-body keys, read off the
  block table's keys, families per class, string slots, output bytes and
  sha256;
- per tree, each of ``COMMANDS`` (``--format json --out``) run ``RUNS``
  times from a fork-and-exec launcher, trees alternating which goes
  first: the median and quartiles of wall time and of peak RSS, read with
  ``os.wait4``.  ``H20`` in a command is ``generate(20, 1, 0)``, written
  the same way, so the launcher never holds it;
- per tree, each of ``SETUPS`` timed inside ``SETUP_RUNS`` fresh
  processes, trees alternating which goes first, with the collector on,
  as ``perfbench/run.py`` times its ``setup_s``: the median and quartiles.

Every child runs from cached bytecode, as ``perfbench/run.py`` does: each
tree has its own ``PYTHONPYCACHEPREFIX`` in a temporary directory, which
its stage interpreters and then one untimed CLI launch fill, so no timed
launch compiles a module and no tree gains a ``__pycache__``.  Whether a
tree holds stray bytecode beside its sources then moves no row.

The stage times reach into two private functions of ``partition``, so a
tree that renames them needs this script changed too.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIZES = (8, 12, 16, 20, 24, 28)
WEIGHTED_SIZES = (12, 20, 28)
REPEAT = 5  # the stage times are the best of this many
TREE_RUNS = 3  # fresh interpreters per tree for the stage tables
COMMANDS = (
    "families --n 16",
    "families --n 20",
    "families --n 24",
    "families --n 28",
    "families --n 36",
    "schedule --n 28",
    "schedule --n 30",
    "schedule --n 36",
    "families --n 20 --hamiltonian H20",
)
RUNS = 10  # launches of each command per tree
SETUPS = {
    "cli_import": "import paulisched.cli",
    "schedule_for_12": "import paulisched.cli; import paulisched; paulisched.schedule_for(12)",
}
SETUP_RUNS = 15  # fresh processes of each set-up per tree
GENERATOR = Path(__file__).resolve().parents[1] / "perfbench" / "hamiltonian.py"


def best_of(work) -> float:
    """The least wall time, in seconds to five places, of ``REPEAT`` calls of ``work()``."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return round(best, 5)


def each(function, items) -> None:
    """Call ``function`` on each item and drop the results, so that the
    time is the function's and not the collector's scans of a growing heap."""
    for item in items:
        function(item)


def measure_size(n: int, scratch: Path) -> dict:
    """The stage times and counts of the unweighted compile at n modes, in this interpreter.

    The interpreter holds one result at a time, as in
    :func:`measure_weighted`: the block table and the families pass are
    timed before either result is held, the block table is dropped once
    the ``jw_image`` stages are timed, before the families are built, and
    the output file is hashed in chunks, not read whole.  The ``jw_image``
    stages fold the compile's units: each round's blocks, in round order,
    and then each block the rounds leave, as one unit each.
    """
    from paulisched import partition
    from paulisched.baranyai import build_schedule
    from paulisched.fermion import jw_image

    def image(unit):
        return jw_image(n, unit)

    schedule = build_schedule(n)
    times = {
        "schedule_s": best_of(lambda: build_schedule(n)),
        "block_table_s": best_of(lambda: partition._blocks(n, None)),
        "families_pass_s": best_of(lambda: list(partition.commuting_families(schedule))),
    }
    blocks = partition._blocks(n, None)
    four_mode_blocks = sum(mask.bit_count() == 4 for mask in blocks)
    other_blocks = len(blocks) - four_mode_blocks
    # a library schedule names each 4-subset once, with distinct modes
    rounds = [[blocks.pop(sum(1 << m for m in subset)) for subset in rnd] for rnd in schedule.rounds]
    rest = [[block] for block in blocks.values()]
    del blocks
    times["jw_image_four_mode_s"] = best_of(lambda: each(image, rounds))
    times["jw_image_rest_s"] = best_of(lambda: each(image, rest))
    del rounds, rest
    families = list(partition.commuting_families(schedule))
    path = scratch / f"families{n}.json"
    times["certification_s"] = best_of(lambda: each(partition._certified, families))
    times["writer_s"] = best_of(lambda: partition.save_families(families, path))
    summary = partition.summarize(n, False, [(family.origin, len(family.rows)) for family in families])
    counts = {
        "rounds": len(schedule.rounds),
        "four_mode_blocks": four_mode_blocks,
        "other_blocks": other_blocks,
        "dominant_families": summary["dominant_families"],
        "residual_families": summary["residual_families"],
        "dominant_strings": summary["dominant_strings"],
        "residual_strings": summary["residual_strings"],
        "string_slots": summary["dominant_strings"] + summary["residual_strings"],
        "output_bytes": path.stat().st_size,
        "output_sha256": sha256(path),
    }
    return {"times": times, "counts": counts}


def write_hamiltonian(path: Path, n: int) -> int:
    """Write ``generate(n, 1, 0)``, an input of the weighted benchmark's
    kind, to ``path``; returns its number of raw entries.

    A child process builds and writes the document, so no measuring
    interpreter holds it: at N = 28 the write alone peaks at about twice
    what loading the file and compiling its families take.
    """
    # stdlib-only, and read rather than imported: perfbench is not a package
    code = (
        "import json, runpy, sys\n"
        "from pathlib import Path\n"
        "generator, path, n = sys.argv[1:]\n"
        "document = runpy.run_path(generator)['generate'](int(n), 1, 0)\n"
        "Path(path).write_text(json.dumps(document))\n"
        "print(len(document['one_body']) + len(document['two_body']))\n"
    )
    return int(run_python(code, GENERATOR, path, n))


def measure_weighted(n: int, scratch: Path) -> dict:
    """The stage times and counts of the weighted compile at n modes, in this interpreter.

    Each result is timed before it is held, so no timing builds a second
    copy of one: at N = 28 the load and the families are most of the peak.
    """
    from paulisched import partition

    source, path = scratch / f"h{n}.json", scratch / f"weighted{n}.json"
    entries = write_hamiltonian(source, n)
    schedule = partition.schedule_for(n)
    times = {"load_coefficients_s": best_of(lambda: partition.load_coefficients(source))}
    coeffs = partition.load_coefficients(source)
    times["block_table_s"] = best_of(lambda: partition._blocks(n, coeffs))
    # counted off the block table's keys, which every tree builds alike,
    # whatever the layout of its coefficients
    sides = [len(creates) for block in partition._blocks(n, coeffs).values() for (creates, _), _ in block]
    times["families_pass_s"] = best_of(lambda: list(partition.commuting_families(schedule, coeffs)))
    families = list(partition.commuting_families(schedule, coeffs))
    times["writer_s"] = best_of(lambda: partition.save_families(families, path))
    summary = partition.summarize(n, True, [(family.origin, len(family.rows)) for family in families])
    counts = {
        "entries": entries,
        "one_body_keys": sides.count(1),
        "two_body_keys": sides.count(2),
        "dominant_families": summary["dominant_families"],
        "residual_families": summary["residual_families"],
        "string_slots": summary["dominant_strings"] + summary["residual_strings"],
        "output_bytes": path.stat().st_size,
        "output_sha256": sha256(path),
    }
    return {"times": times, "counts": counts}


def in_turn(trees, run: int) -> list[str]:
    """The tree labels in the order run ``run`` measures them: as given on even runs, reversed on odd ones."""
    labels = list(trees)
    return labels if run % 2 == 0 else labels[::-1]


def run_python(code: str, *args, env: dict | None = None, cwd: Path | None = None) -> str:
    """The stdout of a fresh ``python -c code args...``, which must exit 0."""
    argv = [sys.executable, "-c", code, *map(str, args)]
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, check=True).stdout


def launch(argv: list[str], env: dict, cwd: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one child, which must exit 0.

    The peak RSS that ``wait4`` reads counts the launcher's pages up to the
    exec, so the launcher holds no output: it hashes files in chunks.
    """
    errors = cwd / "stderr.txt"
    with errors.open("w") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {errors.read_text()}")
    return seconds, usage.ru_maxrss / 1024  # ru_maxrss is in KB on Linux


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as file:
        while chunk := file.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def spread(values: list[float]) -> dict:
    """The median and quartiles of ``values``, rounded."""
    low, median, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(low, 4), "q3": round(high, 4)}


def tree_env(src: Path, scratch: Path, label: str) -> dict:
    """The environment of a child that imports the tree at ``src``, with its
    bytecode cached in its own directory under ``scratch``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(scratch / f"pycache-{label}"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli_argv(command: str, out: Path) -> list[str]:
    return [sys.executable, "-m", "paulisched", *command.split(), "--format", "json", "--out", str(out)]


def cli_runs(envs: dict[str, dict], scratch: Path) -> dict:
    """Each command run ``RUNS`` times per tree, the trees alternating which goes first."""
    # written by a child, so that the launcher's peak, which wait4 counts in
    # every child's, stays small
    write_hamiltonian(scratch / "H20", 20)
    samples = {label: {command: ([], []) for command in COMMANDS} for label in envs}
    digests: dict[str, set] = {}
    for run in range(RUNS):
        for command in COMMANDS:
            for label in in_turn(envs, run):
                out = scratch / f"{label}-{command.replace(' ', '')}.json"
                seconds, rss = launch(cli_argv(command, out), envs[label], scratch)
                walls, peaks = samples[label][command]
                walls.append(seconds)
                peaks.append(rss)
                digests.setdefault(command, set()).add(sha256(out))
    table = {
        label: {
            command: {"wall_s": spread(walls), "peak_rss_mb": spread(peaks), "runs": len(walls)}
            for command, (walls, peaks) in commands.items()
        }
        for label, commands in samples.items()
    }
    table["identical_outputs"] = {command: len(found) == 1 for command, found in digests.items()}
    return table


def setup_runs(envs: dict[str, dict], scratch: Path) -> dict:
    """Each of ``SETUPS`` timed in ``SETUP_RUNS`` fresh processes per tree, the trees
    alternating which goes first: inside the child, interpreter start-up and exit left out."""
    samples = {label: {name: [] for name in SETUPS} for label in envs}
    for run in range(SETUP_RUNS):
        for label in in_turn(envs, run):
            for name, code in SETUPS.items():
                timed = f"import time; start = time.perf_counter(); {code}; print(time.perf_counter() - start)"
                samples[label][name].append(float(run_python(timed, env=envs[label], cwd=scratch)))
    return {
        label: {name: {"setup_s": spread(seconds), "runs": len(seconds)} for name, seconds in setups.items()}
        for label, setups in samples.items()
    }


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def measure_tree(env: dict) -> dict:
    """The stage table of one tree, from a fresh interpreter that imports it."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import stages\n"
        "print(json.dumps(stages.child()))"
    )
    return json.loads(run_python(code, env=env))


def least(tables: list[dict]) -> dict:
    """One tree's table of a part from its interpreters' tables: each stage's
    least time, and its spread, the largest time less the least; the
    counts, which must agree between them."""
    merged = {}
    for size, first in tables[0].items():
        entries = [table[size] for table in tables]
        if any(entry["counts"] != first["counts"] for entry in entries):
            raise RuntimeError(f"the counts at N = {size} differ between interpreters of one tree")
        times = {stage: min(entry["times"][stage] for entry in entries) for stage in first["times"]}
        widths = {
            stage: round(max(entry["times"][stage] for entry in entries) - low, 5) for stage, low in times.items()
        }
        merged[size] = {"times": times, "spread": widths, "counts": first["counts"]}
    return merged


def child() -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        return {
            "stages": {str(n): measure_size(n, Path(scratch)) for n in SIZES},
            "weighted": {str(n): measure_weighted(n, Path(scratch)) for n in WEIGHTED_SIZES},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                        help="a source tree to measure, by label; repeat for each tree")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH JSON file to write")
    args = parser.parse_args(argv)
    trees = {}
    for spec in args.tree:
        label, _, src = spec.partition("=")
        if not (label and src and Path(src, "paulisched").is_dir()):
            parser.error(f"--tree {spec!r}: want LABEL=SRC, with SRC holding the paulisched package")
        trees[label] = Path(src).resolve()
    report = {
        "machine": machine(),
        "method": {
            "stages": (
                f"best of {REPEAT} in process per interpreter, least over {TREE_RUNS} fresh interpreters "
                "per tree, trees alternating first, spread the largest less the least; counts agree; "
                "unweighted compile"
            ),
            "weighted": (
                f"best of {REPEAT} in process, the same interpreters, on generate(n, 1, 0); collector on; "
                "each result timed before it is held"
            ),
            "cli": (
                f"{RUNS} launches per command and tree, trees alternating first; median and quartiles; "
                "launched from cached bytecode, one PYTHONPYCACHEPREFIX per tree, "
                "filled by one untimed launch per tree"
            ),
            "setup": (
                f"{SETUP_RUNS} fresh processes per set-up and tree, trees alternating first, "
                "timed inside the child with the collector on; median and quartiles; "
                "cached bytecode filled by one untimed launch per tree"
            ),
        },
    }
    with tempfile.TemporaryDirectory() as scratch:
        envs = {label: tree_env(src, Path(scratch), label) for label, src in trees.items()}
        measured: dict[str, list] = {label: [] for label in envs}
        for run in range(TREE_RUNS):
            for label in in_turn(envs, run):
                measured[label].append(measure_tree(envs[label]))
        for part in ("stages", "weighted"):
            report[part] = {label: least([tables[part] for tables in runs]) for label, runs in measured.items()}
        # with the stage interpreters, this compiles every module a timed child imports
        for env in envs.values():
            launch(cli_argv(COMMANDS[0], Path(scratch, "warm-up.json")), env, Path(scratch))
        report["cli"] = cli_runs(envs, Path(scratch))
        report["setup"] = setup_runs(envs, Path(scratch))
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
