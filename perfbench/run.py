#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

    python3 perfbench/run.py --workload serve|compile|kernels --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is compiled from the sources
in this checkout into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with --trace 1 they are its per-layer metrics, taken from a
traced run with the same seed, plus trace.overhead, the traced median
latency divided by that of an untraced run made just before it.

Exit status: 0 when every output was correct, 1 on a wrong output or a
failed build, 2 on a usage error or a refused environment.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFUSED_ENV = ("DESCEND_FAULTS", "DESCEND_TRACE", "DESCEND_WATCHDOG")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures and builds the benchmark; returns the executable path."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", jobs]):
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            log(f"cannot run {cmd[0]}: {err}")
            sys.exit(1)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log("build failed")
            sys.exit(1)
    return os.path.join(bdir, "perfbench")


def source_id():
    """The git commit when the checkout is a repository, else a digest
    of the sources the benchmark builds."""
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for sub in ("src", "tools", "kernels", "programs", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run_once(exe, workload, seed, seconds, trace, sha):
    """Runs the benchmark binary once; returns its parsed result object."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--sha", sha]
    if trace:
        cmd += ["--trace", "--spans",
                os.path.join(build_dir(), f"spans_{workload}_{seed}.tsv")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = res.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload} printed no result (exit {res.returncode})")
        sys.exit(1)
    if res.returncode not in (0, 1):
        log(f"{workload} exited with {res.returncode}")
        sys.exit(1)
    return out


def declared_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[key]]


def pick(values, names, key):
    """The metrics BENCHMARK.json declares under key, in its order; the
    run and the declaration must name the same set."""
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        log(f"{key} metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}")
        sys.exit(1)
    return {n: values[n] for n in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("serve", "compile", "kernels"))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the harness unit tests and checker self-test")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")

    for name in REFUSED_ENV:
        if name in os.environ:
            log(f"refusing to run with {name} set")
            sys.exit(2)

    exe = build()
    if args.selftest:
        sys.exit(subprocess.run([exe, "--selftest"], cwd=ROOT).returncode)

    sha = source_id()
    runs = []
    if args.trace:
        untraced = run_once(exe, args.workload, args.seed, args.seconds, False, sha)
        runs.append(untraced)
    runs.append(run_once(exe, args.workload, args.seed, args.seconds,
                         bool(args.trace), sha))
    last = runs[-1]
    key = "per_layer" if args.trace else "end_to_end"
    values = dict(last[key])
    if args.trace:
        base = untraced["end_to_end"]["latency_p50_ms"]["value"]
        traced = last["end_to_end"]["latency_p50_ms"]["value"]
        values["trace.overhead"] = {"value": traced / base, "unit": "ratio"}
    metrics = pick(values, declared_metrics(key), key)
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
