"""Command-line front end: schedules, families, verification, scaling stats.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All configuration comes in through flags; outputs are deterministic for
fixed arguments (the stats command additionally prints wall times, which
naturally vary between runs).

:func:`main` pauses Python's cyclic garbage collector for the duration of
a command and restores its previous state on the way out.  A compile
allocates hundreds of thousands of long-lived, acyclic objects (the rows
of ints and texts of its strings, terms, families), so every full
collection would walk all of them and free nothing.  This is safe because the library builds no
reference cycles (the test suite checks it): reference counting frees
everything a command lets go of, collector or not.  Only the argument
parser, a few hundred objects, waits for the collector to run again.
"""

import argparse
import gc
import json
import sys
import time
from math import comb

from . import baranyai, partition

__all__ = ["main"]


def _err(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cannot_write(path, exc: OSError) -> int:
    # strerror leaves out the file name, which may be a temporary file's
    return _err(f"cannot write {path}: {exc.strerror or exc}")


def _path(text: str) -> str:
    """The argparse type of every path option: any string but the empty one."""
    if not text:
        raise argparse.ArgumentTypeError("a path cannot be empty")
    return text


def _schedule_text(schedule: baranyai.Schedule) -> str:
    lines = []
    for rnd in schedule.rounds:
        terms = [f"a+{p} a+{q} a-{r} a-{s}" for p, q, r, s in rnd]
        lines.append("    ".join(terms))
    return "\n".join(lines) + "\n"


def _cmd_schedule(args) -> int:
    if args.n < 4:
        return _err(f"need at least 4 modes, got {args.n}")
    schedule = partition.schedule_for(args.n)
    text = partition.schedule_json(schedule) if args.format == "json" else _schedule_text(schedule)
    if args.out:
        try:
            partition.write_replacing(args.out, [text])
        except OSError as exc:
            return _cannot_write(args.out, exc)
        print(f"wrote {len(schedule.rounds)} rounds to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_families(args) -> int:
    if args.n < 4:
        return _err(f"need at least 4 modes, got {args.n}")
    coeffs = None
    if args.hamiltonian:
        try:
            coeffs = partition.load_coefficients(args.hamiltonian)
        except partition.CoefficientsLoadError as exc:
            return _err(str(exc))
        if coeffs.n != args.n:
            return _err(f"coefficients file is for n={coeffs.n}, not n={args.n}")
    families = partition.commuting_families(partition.schedule_for(args.n), coeffs)
    shapes = []

    def recorded():
        # the summary needs only each family's origin and size, so no family is held
        for family in families:
            shapes.append((family.origin, len(family.rows)))
            yield family

    if args.out:
        try:
            partition.save_families(recorded(), args.out)
        except partition.FamiliesWriteError as exc:
            return _err(str(exc))
        except OSError as exc:
            return _cannot_write(args.out, exc)
    else:
        for _ in recorded():
            pass
    summary = partition.summarize(args.n, coeffs is not None, shapes)
    if args.format == "json":
        print(json.dumps(summary, separators=(",", ":")))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
    return 0


def _cmd_verify(args) -> int:
    from . import oracles  # imported here, so no other command pays for loading it

    reports = [oracles.verify_disjoint_term_commutation()]
    dense_sizes = (4, 5, 6, 7) if args.deep else (4, 5)
    reports += [oracles.verify_jw_against_matrices(n) for n in dense_sizes]
    reports.append(oracles.verify_anticommuting_chains())

    schedule = None
    if args.schedule_file:
        try:
            schedule = partition.read_schedule_file(args.schedule_file)
        except partition.ScheduleLoadError as exc:
            return _err(str(exc))
    else:
        if args.n < 4:
            return _err(f"need at least 4 modes, got {args.n}")
        schedule = partition.schedule_for(args.n)
    schedule_report = oracles.validate_schedule(schedule)
    reports.append(schedule_report)
    if schedule_report.passed:
        families = list(partition.commuting_families(schedule))  # both validators read it
        reports.append(oracles.validate_families(families))
        reports.append(oracles.validate_partition(families, schedule.n))
    if args.deep:
        reports.append(oracles.verify_sliding_invariance())

    passed = all(r.passed for r in reports)
    if args.format == "json" or not passed:
        print(json.dumps([r.to_dict() for r in reports], separators=(",", ":")))
    else:
        for r in reports:
            print(f"{r.name}: {'PASS' if r.passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_stats(args) -> int:
    try:
        sizes = [int(tok) for tok in args.n_list.split(",") if tok]
    except ValueError:
        return _err(f"cannot parse --n-list {args.n_list!r}")
    if not sizes or any(n < 4 for n in sizes):
        return _err("every N in --n-list must be at least 4")
    rows = []
    for n in sizes:
        begin = time.perf_counter()
        schedule = baranyai.build_schedule(n)
        elapsed = time.perf_counter() - begin
        terms = comb(n, 4)
        families = 2 * len(schedule.rounds)
        rows.append(
            {
                "n": n,
                "terms": terms,
                "strings": 16 * terms,
                "dominant_families": families,
                "families_per_round": families / len(schedule.rounds),
                "strings_per_family": 16 * terms / families,
                "families_over_n3": families / n**3,
                "strings_over_n4": 16 * terms / n**4,
                "build_seconds": round(elapsed, 4),
            }
        )
    if args.format == "json":
        print(json.dumps(rows, separators=(",", ":")))
        return 0
    header = (
        f"{'n':>4} {'terms':>8} {'strings':>9} {'families':>9} "
        f"{'fam/round':>9} {'str/fam':>8} {'fam/n^3':>8} {'str/n^4':>8} {'seconds':>8}"
    )
    print(header)
    for row in rows:
        print(
            f"{row['n']:>4} {row['terms']:>8} {row['strings']:>9} {row['dominant_families']:>9} "
            f"{row['families_per_round']:>9.2f} {row['strings_per_family']:>8.1f} "
            f"{row['families_over_n3']:>8.4f} {row['strings_over_n4']:>8.4f} "
            f"{row['build_seconds']:>8.4f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulisched",
        description="Partition second-quantized Hamiltonian terms into commuting measurement families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="emit the round schedule of disjoint 4-subsets")
    p_sched.add_argument("--n", type=int, required=True, help="number of modes (>= 4)")
    p_sched.add_argument("--format", choices=("text", "json"), default="text")
    p_sched.add_argument("--out", type=_path, help="write to this file instead of stdout")
    p_sched.set_defaults(func=_cmd_schedule)

    p_fam = sub.add_parser("families", help="emit commuting measurement families")
    p_fam.add_argument("--n", type=int, required=True)
    p_fam.add_argument("--hamiltonian", type=_path, help="coefficients JSON used as zero filter and weights")
    p_fam.add_argument("--out", type=_path, help="write the families JSON here")
    p_fam.add_argument("--format", choices=("text", "json"), default="text")
    p_fam.set_defaults(func=_cmd_families)

    p_ver = sub.add_parser("verify", help="run the brute-force oracle suite")
    p_ver.add_argument("--deep", action="store_true", help="add 6- and 7-mode dense checks and sliding tests")
    p_ver.add_argument("--n", type=int, default=8, help="schedule size to validate")
    p_ver.add_argument("--schedule-file", type=_path, help="validate this schedule file instead of building one")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=_cmd_verify)

    p_stats = sub.add_parser("stats", help="scaling table over a list of sizes")
    p_stats.add_argument("--n-list", required=True, help="comma-separated sizes, e.g. 8,12,16,20")
    p_stats.add_argument("--format", choices=("text", "json"), default="text")
    p_stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    finally:
        if was_enabled:
            gc.enable()

