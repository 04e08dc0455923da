"""The weighted-batch operation: a sweep of Hamiltonians through the library API.

Usage: python3 batch.py N OUT_DIR SECONDS MIN_COUNT INPUT...

Processes the inputs in order, starting again from the first when they run
out, until SECONDS have passed and at least MIN_COUNT are done.  Per
Hamiltonian it calls load_coefficients, build_partition and save_families,
and prints one JSON line with the output file, its wall time and the
report summary.  The schedule cache is filled before the first Hamiltonian
and outside its timing, as set-up (run.py times that set-up on its own).
"""

import json
import sys
import time
from pathlib import Path

import paulisched


def run(argv: list[str]) -> int:
    n, out_dir, seconds, min_count = int(argv[0]), Path(argv[1]), float(argv[2]), int(argv[3])
    inputs = argv[4:]
    paulisched.schedule_for(n)
    start = time.perf_counter()
    done = 0
    while done < min_count or time.perf_counter() - start < seconds:
        source = inputs[done % len(inputs)]
        out = out_dir / f"families-{done}.json"
        begin = time.perf_counter()
        coeffs = paulisched.load_coefficients(source)
        report = paulisched.build_partition(n, coeffs)
        paulisched.save_families(list(report.families), out)
        elapsed = time.perf_counter() - begin
        print(json.dumps({"input": source, "out": str(out), "seconds": elapsed,
                          "summary": report.summary()}), flush=True)
        done += 1
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
