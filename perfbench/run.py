#!/usr/bin/env python3
"""Repo benchmark: build the program from source and run one workload.

    python3 perfbench/run.py --workload experiment|spill|query_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root (any directory works; paths are resolved
from this file). The first call configures and builds perfbench/ (the
program's libraries from src/ plus the benchmark binary) into
.bench_build/; later calls rebuild incrementally. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The exit code is 0 only
when every correctness check passed.

--self-test runs every workload at a tiny scale, checks that each metric
named in BENCHMARK.json is printed with its unit, and checks that the
correctness gate trips on a wrong reference digest and on a corrupted
served body. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "v6t_perfbench")
REFERENCES = os.path.join(HERE, "references.txt")
WORKLOADS = ("experiment", "spill", "query_mix")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (cheap when cached) and build the benchmark binary."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "v6t_perfbench", "-j", jobs],
    ]
    with open(build_log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                     timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as exc:
                log(f"perfbench: build step failed: {exc}")
                return False
            if rc != 0:
                out.flush()
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
                log(f"perfbench: build failed (see {build_log})")
                return False
    return True


def catalog():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def invoke(workload, seed, seconds, trace, extra=()):
    """Run the binary; returns (exit code, stdout lines) or None."""
    spans = os.path.join(BUILD, "spans", f"{workload}-{seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--references", REFERENCES,
           "--scratch", os.path.join(BUILD, "scratch"),
           "--spans", spans, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s")
        return None
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The final result object, or None when malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def check_metrics(result, expected):
    """Problems with the printed metrics against name -> unit."""
    got = result["metrics"]
    problems = [f"missing {n}" for n in expected if n not in got]
    problems += [f"unexpected {n}" for n in got if n not in expected]
    problems += [f"{n}: unit {got[n]['unit']} != {u}"
                 for n, u in expected.items()
                 if n in got and got[n]["unit"] != u]
    return problems


def run(args):
    if not build():
        return 1
    end_to_end, per_layer = catalog()
    outcome = invoke(args.workload, args.seed, args.seconds, args.trace)
    if outcome is None:
        return 1
    code, lines = outcome
    result = parse_result(lines)
    if result is None:
        log("perfbench: the benchmark binary printed no result")
        sys.stdout.write("\n".join(lines[-20:]) + "\n")
        return 1
    problems = check_metrics(result, per_layer if args.trace else end_to_end)
    if problems:
        log("perfbench: metrics disagree with BENCHMARK.json: " +
            "; ".join(problems))
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0 if code == 0 and result["correct"] else 1


def self_test():
    """Tiny-scale smoke test of every workload and of the gate."""
    if not build():
        return 1
    end_to_end, per_layer = catalog()
    failures = []

    def problems(outcome, correct, names):
        if outcome is None:
            return ["no result"]
        code, lines = outcome
        result = parse_result(lines)
        if result is None:
            return ["malformed last line"]
        found = []
        if result["correct"] != correct or (code == 0) != correct:
            found.append(f"correct={result['correct']} exit={code}, "
                         f"expected correct={correct}")
        if names is not None:
            found.extend(check_metrics(result, names))
        return found

    def expect(label, outcome, correct, names=None):
        found = problems(outcome, correct, names)
        failures.extend(f"{label}: {p}" for p in found)
        log(f"self-test {label}: " + ("; ".join(found) if found else "ok"))

    tiny = ("--tiny",)
    for workload in WORKLOADS:
        for seed in (42, 7):  # 7: the checks that need no committed digest
            expect(f"{workload} seed {seed}",
                   invoke(workload, seed, 1, False, tiny), True, end_to_end)
        expect(f"{workload} traced",
               invoke(workload, 42, 1, True, tiny), True, per_layer)

    # The gate must trip: a wrong committed digest, a corrupted body.
    wrong = os.path.join(BUILD, "wrong-references.txt")
    with open(wrong, "w") as f:
        for kind in ("pipeline", "stream"):
            f.write(f"tiny 42 {kind} T1 0x0\n")
    for workload in ("experiment", "spill"):
        expect(f"{workload} wrong digest",
               invoke(workload, 42, 1, False, tiny + ("--references", wrong)),
               False)
    expect("query_mix corrupted body",
           invoke("query_mix", 42, 1, False, tiny + ("--corrupt-body",)),
           False)

    for f in failures:
        log(f"SELF-TEST FAILED: {f}")
    print("self-test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
