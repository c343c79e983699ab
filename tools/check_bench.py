#!/usr/bin/env python3
"""Gates BENCH_*.json results against the floors in tools/bench_baseline.json.

Usage: tools/check_bench.py OUT_DIR BENCH...

Each BENCH names a bench that ran (fig8, safety, matmul_sweep, ...); its
OUT_DIR/BENCH_<bench>.json must exist. A floor "<bench>.<field>" of a
named bench passes when that field of its file (a dotted field reads a
nested object) is a number at or above the floor; a missing file or
field fails. Floors of benches that did not run are skipped. Prints one
line per gate and exits 1 when any gate fails.
"""

import json
import os
import sys


def load(out_dir, bench):
    try:
        with open(os.path.join(out_dir, f"BENCH_{bench}.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def field(data, path):
    for key in path.split("."):
        if not isinstance(data, dict):
            return None
        data = data.get(key)
    return data


def main():
    if len(sys.argv) < 2:
        sys.exit("usage: check_bench.py OUT_DIR BENCH...")
    out_dir, ran = sys.argv[1], sys.argv[2:]
    with open(os.path.join(os.path.dirname(__file__),
                           "bench_baseline.json")) as f:
        floors = json.load(f)["floors"]
    results = {bench: load(out_dir, bench) for bench in ran}

    failed = False
    for bench in ran:
        if results[bench] is None:
            print(f"bench gate: BENCH_{bench}.json missing or unreadable "
                  f"-> FAIL")
            failed = True
    for gate, floor in floors.items():
        bench, path = gate.split(".", 1)
        if bench not in results:
            print(f"bench gate: {gate} skipped ({bench} did not run)")
            continue
        value = field(results[bench], path)
        if isinstance(value, (int, float)):
            ok, shown = value >= floor, f"{value:.4g}"
        else:
            ok, shown = False, "missing" if value is None else repr(value)
        failed |= not ok
        print(f"bench gate: {gate} = {shown} (floor {floor}) -> "
              f"{'PASS' if ok else 'FAIL'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
