"""The paulisched benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

  families-cold   ``paulisched families --n 20 --format json --out F`` in a
                  fresh process; one operation is one invocation.
  schedule-large  ``paulisched schedule --n 28 --format json --out S`` in a
                  fresh process; one operation is one invocation.
  weighted-batch  one process runs batch.py, which feeds seeded dense real
                  Hermitian N=12 Hamiltonians through load_coefficients,
                  build_partition and save_families; one operation is one
                  Hamiltonian after set-up.

Load is closed-loop with a single client: the next operation starts when
the previous one has ended, until S seconds have passed and at least two
invocations (four Hamiltonians on weighted-batch, the fourth repeating the
first of three) are done.  The seed
only shapes the Hamiltonians; the CLI workloads take no input.  Every
operation runs in a fresh directory that HOME, XDG_CACHE_HOME and TMPDIR
point into, under .perfbench_work/ in the checkout, which is removed at the
end.  The program is imported from src/ of the checkout.

With --trace 0 the run reports the end-to-end metrics as medians over its
operations.  With --trace 1 it runs one untraced and one traced operation
(tracer.py; on weighted-batch each is a sweep of the three
Hamiltonians), and reports the per-layer metrics of the traced one; on
schedule-large it also traces a build with ``--engine baseline`` when the
CLI still offers it.  Every output is checked by checker.py, and repeated
operations on the same input must write identical bytes.  The last line
of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of benchmark bytecode

import checker  # noqa: E402
import hamiltonian  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

FAMILIES_N = 20
SCHEDULE_N = 28
BATCH_N = 12
BATCH_INPUTS = 3  # distinct Hamiltonians; a sweep cycles through them
BATCH_MIN = BATCH_INPUTS + 1  # so every untraced sweep repeats an input and compares its bytes
CLI_MIN = 2  # so every run also compares the bytes of two invocations
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 160


@dataclass(frozen=True)
class Child:
    """A finished child process: exit status, wall time, peak RSS and output."""

    status: int
    seconds: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Run:
    """One benchmark run: its work directory, child environment and tallies."""

    def __init__(self, seconds: float):
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.seconds = seconds
        self.dirs = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, tuple[list[str], dict]] = {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    def fresh_dir(self) -> Path:
        """A new operation directory holding its own home, cache and tmp."""
        self.dirs += 1
        op = self.dir / f"op-{self.dirs}"
        for sub in ("home", "cache", "tmp"):
            (op / sub).mkdir(parents=True)
        return op

    def child(self, argv: list[str], op: Path) -> Child:
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update(
            PYTHONPATH=str(SRC),
            HOME=str(op / "home"),
            XDG_CACHE_HOME=str(op / "cache"),
            TMPDIR=str(op / "tmp"),
            # Bytecode of every module goes under the run directory, so the
            # untimed warm-up import compiles it once and nothing is written
            # outside the checkout.
            PYTHONPYCACHEPREFIX=str(self.dir / "pycache"),
            # numpy is imported but does no work on any workload; starting its
            # BLAS thread pool on two CPUs made the import time bimodal.
            OPENBLAS_NUM_THREADS="1",
        )
        with open(op / "stdout", "w+") as out, open(op / "stderr", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=op, env=env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, seconds, usage.ru_maxrss / 1024, out.read(), err.read())

    def operation(self, problems: list[str], label: str) -> bool:
        """Count one attempted operation and record why it failed, if it did."""
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: " + "; ".join(problems))
        return not problems

    def checked(self, key: str, path: Path, stdout: str, check) -> dict:
        """Count one operation whose output must match the first written for ``key``.

        ``check(data)`` returns (problems, stats); it runs once per distinct
        output and stdout, and an identical repeat reuses its verdict.
        Returns the stats, or {} if the operation failed.
        """
        try:
            data = path.read_bytes()
        except OSError as exc:
            problems, stats = [f"no output: {exc}"], {}
        else:
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(key, digest) != digest:
                problems, stats = [f"output bytes differ between runs of {key}"], {}
            else:
                seen = f"{digest} {stdout}"
                if seen not in self.verdicts:
                    self.verdicts[seen] = check(data)
                problems, stats = self.verdicts[seen]
        return stats if self.operation(problems, key) else {}

    @property
    def failed(self) -> int:
        return len(self.problems)


def cli_argv(*args) -> list[str]:
    return ["-m", "paulisched", *map(str, args)]


def _tracer(spans: Path, mode: str, args: list[str]) -> list[str]:
    return [str(BENCH / "tracer.py"), str(spans), mode, *args]


def _failure(child: Child) -> list[str]:
    if child.status == 0:
        return []
    tail = child.stderr.strip().splitlines()[-1:] or ["no stderr"]
    return [f"exit status {child.status}: {tail[0]}"]


# ---------------------------------------------------------------------------
# Workloads.  Each operation function returns a record of what it measured.


def cli_op(run: Run, command: list[str], tracer_mode: bool = False) -> dict:
    """One ``paulisched`` invocation writing JSON to a fresh directory."""
    op = run.fresh_dir()
    out = op / "out.json"
    args = [*command, "--format", "json", "--out", str(out)]
    spans = op / "spans.json"
    argv = _tracer(spans, "cli", args) if tracer_mode else cli_argv(*args)
    return {"child": run.child(argv, op), "out": out, "spans": spans if tracer_mode else None}


def _checked_cli(run: Run, record: dict, key: str, check) -> dict:
    child = record["child"]
    if child.status:
        run.operation(_failure(child), key)
        return {}
    return run.checked(key, record["out"], child.stdout, check)


def check_families_op(run: Run, record: dict) -> dict:
    child = record["child"]

    def check(data: bytes) -> tuple[list[str], dict]:
        try:
            summary = json.loads(child.stdout.strip().splitlines()[-1])
            families = checker.parse_families(json.loads(data), FAMILIES_N)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc}"], {}
        stats = checker.family_stats(families)
        stats["bytes"] = len(data)
        return checker.check_families(families, FAMILIES_N, summary), stats

    return _checked_cli(run, record, "families", check)


def check_schedule_op(run: Run, record: dict, key: str = "schedule") -> dict:
    child = record["child"]

    def check(data: bytes) -> tuple[list[str], dict]:
        try:
            document = json.loads(data)
        except ValueError as exc:
            return [f"unreadable output: {exc}"], {}
        problems = checker.check_schedule(document, SCHEDULE_N)
        if problems:
            return problems, {}
        rounds = document["rounds"]
        if str(len(rounds)) not in child.stdout.split():
            problems.append(f"stdout does not report the {len(rounds)} rounds written")
        return problems, {"families": 2 * len(rounds), "slots": 16 * sum(len(r) for r in rounds)}

    return _checked_cli(run, record, key, check)


def batch_inputs(run: Run, seed: int) -> tuple[list[Path], dict]:
    """Write the seeded Hamiltonians; returns their paths and documents by path."""
    folder = run.dir / "inputs"
    folder.mkdir()
    paths, documents = [], {}
    for index in range(BATCH_INPUTS):
        document = hamiltonian.generate(BATCH_N, seed, index)
        path = folder / f"h{index}.json"
        path.write_text(json.dumps(document))
        paths.append(path)
        documents[str(path)] = document
    return paths, documents


def batch_op(run: Run, inputs: list[Path], seconds: float, count: int, tracer_mode: bool = False) -> dict:
    op = run.fresh_dir()
    args = [str(BATCH_N), str(op), str(seconds), str(count)] + [str(p) for p in inputs]
    spans = op / "spans.json"
    argv = _tracer(spans, "batch", args) if tracer_mode else [str(BENCH / "batch.py"), *args]
    child = run.child(argv, op)
    lines = []
    for line in child.stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            continue
    return {"child": child, "lines": lines, "spans": spans if tracer_mode else None}


def check_batch_op(run: Run, record: dict, documents: dict) -> list[dict]:
    child = record["child"]
    stats = []
    for line in record["lines"]:
        source = documents[line["input"]]

        def check(data: bytes) -> tuple[list[str], dict]:
            try:
                families = checker.parse_families(json.loads(data), BATCH_N)
            except (ValueError, KeyError, TypeError) as exc:
                return [f"unreadable output: {exc}"], {}
            item = checker.family_stats(families)
            item["bytes"] = len(data)
            return checker.check_families(families, BATCH_N, line["summary"], source), item

        key = f"weighted-batch {Path(line['input']).name}"
        item = run.checked(key, Path(line["out"]), json.dumps(line["summary"]), check)
        if item:
            stats.append(item)
    if child.status != 0 or not record["lines"]:
        run.operation(_failure(child) or ["no Hamiltonian finished"], "weighted-batch")
    return stats


CLI_WORKLOADS = {
    "families-cold": (["families", "--n", str(FAMILIES_N)], check_families_op),
    "schedule-large": (["schedule", "--n", str(SCHEDULE_N)], check_schedule_op),
}


# ---------------------------------------------------------------------------
# End-to-end run


def setup_seconds(run: Run, workload: str) -> list[float]:
    """Set-up times of fresh processes, each timed inside the child.

    Set-up is ``import paulisched.cli``; weighted-batch also fills the
    schedule cache.  Interpreter start-up and exit are left out.
    """
    code = "import paulisched.cli"
    if workload == "weighted-batch":
        code += f"; import paulisched; paulisched.schedule_for({BATCH_N})"
    timed = f"import time; start = time.perf_counter(); {code}; print(time.perf_counter() - start)"
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        child = run.child(["-c", timed], run.fresh_dir())
        if child.status != 0:
            raise SystemExit(f"set-up failed: {child.stderr.strip()}")
        if index:  # the first compiles the bytecode and is not counted
            samples.append(float(child.stdout))
    return samples


def end_to_end(run: Run, workload: str, seed: int) -> dict:
    setups = setup_seconds(run, workload)
    walls, rss, stats = [], [], []
    if workload == "weighted-batch":
        inputs, documents = batch_inputs(run, seed)
        record = batch_op(run, inputs, run.seconds, BATCH_MIN)
        walls = [line["seconds"] for line in record["lines"]]
        rss = [record["child"].peak_rss_mb]
        stats = check_batch_op(run, record, documents)
    else:
        command, check = CLI_WORKLOADS[workload]
        records = []
        start = time.perf_counter()
        while len(records) < CLI_MIN or time.perf_counter() - start < run.seconds:
            records.append(cli_op(run, command))
        for record in records:
            walls.append(record["child"].seconds)
            rss.append(record["child"].peak_rss_mb)
            item = check(run, record)
            if item:
                stats.append(item)
    values = {
        "wall_s": (walls, "operations"),
        "setup_s": (setups, "set-ups"),
        "peak_rss_mb": (rss, "child processes"),
        "families": ([s["families"] for s in stats], "checked outputs"),
        "string_slots": ([s["slots"] for s in stats], "checked outputs"),
    }
    metrics = {}
    for name, (samples, what) in values.items():
        if not samples:
            continue
        metrics[name] = statistics.median(samples)
        print(f"  {name:<12} median {metrics[name]:.6g} over {len(samples)} {what}; "
              f"no percentile above the median has ten samples beyond it")
    return metrics


# ---------------------------------------------------------------------------
# Traced run


def _module(label: str) -> str:
    return label.split(".", 1)[0]


def _layer_self(node: dict) -> float:
    """Self time of a span plus that of the same-module spans beneath it."""
    return node["self_s"] + sum(
        _layer_self(c) for c in node["children"] if _module(c["label"]) == _module(node["label"])
    )


def flatten(tree: dict) -> dict:
    """Per label: calls, time, self times and counters, summed over the tree.

    ``s`` and ``self_s`` leave out calls nested in a call of the same label.
    ``own_s`` is the plain self time.  ``self_s`` is the layer's share of the call: its own time
    plus that of the same module's spans beneath it, so the private work of
    ``pad_and_build`` done in ``build_schedule`` counts, and calls into
    other modules do not.
    """
    by_label: dict[str, dict] = {}

    def visit(node: dict, ancestors: frozenset) -> None:
        label = node["label"]
        entry = by_label.setdefault(
            label, {"calls": 0, "s": 0.0, "self_s": 0.0, "own_s": 0.0, "counters": {}}
        )
        entry["calls"] += node["calls"]
        entry["own_s"] += node["self_s"]
        if label not in ancestors:
            entry["s"] += node["total_s"]
            entry["self_s"] += _layer_self(node)
        for name, amount in node["counters"].items():
            entry["counters"][name] = entry["counters"].get(name, 0) + amount
        for child in node["children"]:
            visit(child, ancestors | {label})

    visit(tree, frozenset())
    return by_label


def layer_metrics(calls: dict, xcheck: dict | None, stats: list[dict]) -> dict:
    """Per-layer metric values; a metric whose source was never called is left out."""
    found: dict[str, float] = {}

    def span(label: str, field: str) -> None:
        if label in calls:
            found[f"{label}.{field}"] = calls[label][field]

    for label in ("flows.round_flow", "baranyai.pad_and_build", "fermion.jw_excitation",
                  "fermion.jw_term", "pauli.multiply", "partition.schedule_for"):
        span(label, "s")
        span(label, "calls")
    span("baranyai.pad_and_build", "self_s")
    for label in ("partition.commuting_families", "partition.residual_families",
                  "partition.apply_coefficients", "cli.main"):
        span(label, "self_s")
    span("partition.load_coefficients", "s")
    span("partition.save_families", "s")
    if "fermion.jw_excitation" in calls:
        counters = calls["fermion.jw_excitation"]["counters"]
        found["fermion.jw_excitation.strings_out"] = counters.get("items_out", 0)

    flow_counters: dict[str, int] = {}
    for label in ("flows.round_flow", "flows.max_flow_integral"):
        for name, amount in calls.get(label, {}).get("counters", {}).items():
            flow_counters[name] = flow_counters.get(name, 0) + amount
    for name in ("network_nodes", "network_edges", "fractional_edges"):
        if name in flow_counters:
            found[f"flows.{name}"] = flow_counters[name]

    # Dinic calls of the run itself plus those of the engine cross-check build.
    dinic = [c["flows.max_flow_integral"] for c in (calls, xcheck or {})
             if "flows.max_flow_integral" in c]
    if dinic:
        found["flows.max_flow_integral.s"] = sum(d["s"] for d in dinic)
        found["flows.max_flow_integral.calls"] = sum(d["calls"] for d in dinic)

    if "partition.schedule_for" in calls:
        builds = calls.get("baranyai.pad_and_build", {}).get("calls", 0)
        found["partition.schedule_cache_hits"] = calls["partition.schedule_for"]["calls"] - builds

    if stats:
        slots = sum(s["slots"] for s in stats)
        found["partition.output_bytes"] = sum(s["bytes"] for s in stats)
        found["partition.certified_pairs"] = sum(s["certified_pairs"] for s in stats)
        found["partition.dominant_families"] = sum(s["dominant_families"] for s in stats)
        found["partition.residual_family_count"] = sum(s["residual_families"] for s in stats)
        found["partition.distinct_string_ratio"] = sum(s["distinct"] for s in stats) / slots
        found["partition.nonzero_string_ratio"] = sum(s["nonzero"] for s in stats) / slots
    return found


def engine_crosscheck(run: Run, command: list[str]) -> dict | None:
    """Flattened spans of a traced ``--engine baseline`` build, or None once it is gone."""
    usage = run.child(cli_argv(command[0], "--help"), run.fresh_dir())
    if "baseline" not in usage.stdout:
        print("  engine cross-check: --engine baseline is gone, row absent")
        return None
    cross = cli_op(run, [*command, "--engine", "baseline"], tracer_mode=True)
    check_schedule_op(run, cross, key="schedule baseline")
    if not cross["spans"].is_file():
        return None
    return flatten(json.loads(cross["spans"].read_text())["tree"])


def traced(run: Run, workload: str, seed: int) -> dict:
    xcheck = None
    if workload == "weighted-batch":
        inputs, documents = batch_inputs(run, seed)
        # A fixed count, so that per-layer counts do not depend on machine speed.
        plain = batch_op(run, inputs, 0, BATCH_INPUTS)
        check_batch_op(run, plain, documents)
        timed = batch_op(run, inputs, 0, BATCH_INPUTS, tracer_mode=True)
        stats = check_batch_op(run, timed, documents)
    else:
        command, check = CLI_WORKLOADS[workload]
        plain = cli_op(run, command)
        check(run, plain)
        timed = cli_op(run, command, tracer_mode=True)
        item = check(run, timed)
        stats = [item] if item and workload == "families-cold" else []
        if workload == "schedule-large":
            xcheck = engine_crosscheck(run, command)

    if not timed["spans"].is_file():
        run.operation(["traced run wrote no spans"], "trace")
        return {}
    spans = json.loads(timed["spans"].read_text())
    called = flatten(spans["tree"])
    traced_wall, plain_wall = timed["child"].seconds, plain["child"].seconds
    found = layer_metrics(called, xcheck, stats)
    found["trace.overhead_ratio"] = traced_wall / plain_wall - 1
    # The root's self time is the time outside every span, so it is left out.
    root = spans["tree"]
    in_spans = root["total_s"] - root["self_s"]
    found["trace.self_time_coverage"] = in_spans / traced_wall

    print(f"  traced wall {traced_wall:.3f} s, untraced {plain_wall:.3f} s; "
          f"span self times cover {found['trace.self_time_coverage']:.1%} of the traced wall, "
          f"{traced_wall - in_spans:.3f} s is outside every span")
    if xcheck and "flows.max_flow_integral" in xcheck:
        print(f"  engine cross-check: baseline max_flow_integral "
              f"{xcheck['flows.max_flow_integral']['s']:.3f} s, rounding round_flow "
              f"{found.get('flows.round_flow.s', 0):.3f} s")
    print("  time by boundary:")
    for label, entry in sorted(called.items(), key=lambda kv: -kv[1]["own_s"]):
        print(f"    {label:<36} calls {entry['calls']:>9}  total {entry['s']:9.4f} s  "
              f"self {entry['own_s']:9.4f} s  layer self {entry['self_s']:9.4f} s")
    never = [b for b in spans["boundaries"] if b not in called]
    print(f"  boundaries never called (absent): {', '.join(never) or 'none'}")
    return found


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("families-cold", "schedule-large", "weighted-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "paulisched" / "__init__.py").is_file():
        print(f"error: no paulisched package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"closed loop, one client")
    run = Run(args.seconds)
    try:
        found = (traced if args.trace else end_to_end)(run, args.workload, args.seed)
    finally:
        run.close()

    metrics = {}
    absent = []
    for metric in declared:
        value = found.get(metric["name"])
        if value is None:
            absent.append(metric["name"])
            value = 0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if absent:
        print(f"  absent on this workload, reported as 0: {', '.join(absent)}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
