#!/usr/bin/env python3
"""nocalloc benchmark: build the harness, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record --seed N

Run from the repository root. The first run builds perfbench/nocbench from
the sources under src/ into $CARGO_TARGET_DIR (default .bench_build); later
runs rebuild incrementally. --trace 0 prints the end-to-end metrics, --trace
1 the per-layer ones. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. The
exit code is 0 only when every operation's outputs passed every check.

--record reruns the traced run for one seed and rewrites
perfbench/expected/seed-N.json with every operation's outputs; do that only
for a change that is meant to alter simulation results. See README.md.
"""

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import analysis  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_DIR = HERE / "expected"
HARNESS_TIMEOUT_S = 170
RELEASE_BUILD_TYPES = ("Release", "RelWithDebInfo")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures once, then builds incrementally; returns the binary."""
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = bdir / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(bdir), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail), 3)
    return bdir / "nocbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def check_stamp(stamp):
    """Refuses numbers from a debug or sanitizer build."""
    bad = []
    if stamp.get("build_type") not in RELEASE_BUILD_TYPES:
        bad.append(f"build type {stamp.get('build_type')!r}")
    if stamp.get("sanitized") or "-fsanitize" in stamp.get("cxx_flags", ""):
        bad.append("sanitizer build")
    if not stamp.get("ndebug"):
        bad.append("assertions enabled (no NDEBUG)")
    if bad:
        fail("refusing to measure from this build: " + ", ".join(bad), 4)


def run_harness(binary, bdir, workload, seed, seconds, trace):
    out = bdir / "runs" / f"{workload}-seed{seed}-trace{trace}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    scratch = bdir / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out), "--scratch", str(scratch)]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = "timeout"
    finally:
        # Never leave the harness running: not on a timeout, and not when
        # this script is interrupted or terminated.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    records = analysis.load_records(out) if out.exists() else []
    return code, records, out


def load_expected(seed):
    path = EXPECTED_DIR / f"seed-{seed}.json"
    if not path.exists():
        return None
    with open(path) as f:
        return json.load(f)["groups"]


def write_expected(seed, stamp, records):
    groups = {}
    for r in records:
        if r["t"] == "op":
            groups.setdefault(r["group"], {}).setdefault(r["name"], r["out"])
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"seed-{seed}.json"
    # One operation per line keeps the file reviewable as a diff.
    lines = ['{"seed": %d,' % seed,
             ' "stamp": %s,' % json.dumps(stamp, sort_keys=True),
             ' "groups": {']
    for gi, group in enumerate(sorted(groups)):
        lines.append('  %s: {' % json.dumps(group))
        names = sorted(groups[group])
        for ni, name in enumerate(names):
            sep = "," if ni + 1 < len(names) else ""
            lines.append('   %s: %s%s' % (json.dumps(name),
                                          json.dumps(groups[group][name]), sep))
        lines.append('  }' + ("," if gi + 1 < len(groups) else ""))
    lines.append(' }}')
    path.write_text("\n".join(lines) + "\n")
    return path, sum(len(g) for g in groups.values())


def main():
    # SIGTERM unwinds like an exception, so run_harness can stop the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=analysis.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/expected/seed-N.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record:
        # The traced run covers every workload and the probes in one go.
        args.workload, args.trace, args.seconds = "paper-kernels", 1, 0
    elif args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "noc" / "sim.hpp").exists():
        fail(f"library sources not found under {ROOT / 'src'}; run from a "
             "full checkout of the repository", 2)

    bdir = build_dir()
    binary = build(bdir)
    started = time.time()
    code, records, raw_path = run_harness(binary, bdir, args.workload,
                                          args.seed, args.seconds, args.trace)
    stamp = next((r for r in records if r["t"] == "stamp"), None)
    if stamp is None:
        fail(f"harness produced no records (exit {code})", 5)
    check_stamp(stamp)
    stamp = dict(stamp, cpu=cpu_model())
    del stamp["t"]

    expected = None if args.record else load_expected(args.seed)
    check = analysis.check_outputs(records, expected)
    if code != 0:
        # An abort loses the pass it happened in; count that pass's whole
        # operation set as failed.
        lost = analysis.expected_ops_per_pass(records, args.workload)
        check.attempted += lost
        check.failed += lost
        check.reasons.append(f"harness exited with {code}")

    if args.record:
        if check.failed:
            for reason in check.reasons[:20]:
                print("  " + reason, file=sys.stderr)
            fail("not recording: the run failed its own checks", 6)
        path, n = write_expected(args.seed, stamp, records)
        print(f"perfbench: recorded {n} operations to {path}")
        return 0

    try:
        if args.trace:
            metrics, notes = analysis.layer_metrics(records, args.workload)
        else:
            metrics, notes = analysis.end_to_end_metrics(records, args.workload)
    except (KeyError, StopIteration, statistics.StatisticsError, ValueError):
        if code == 0:
            raise
        metrics, notes = {}, {}  # the abort left too little to measure

    host = (f"nproc={stamp['nproc']} threads={stamp['threads']} "
            f"cpu={stamp['cpu']!r} compiler={stamp['compiler']!r} "
            f"build={stamp['build_type']}")
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} expected="
          f"{'recorded' if expected else 'none (self-consistency only)'}")
    print(f"host: {host}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    frac = check.failed / check.attempted if check.attempted else 1.0
    print(f"  failed_frac = {frac:.6g} ({check.failed} of {check.attempted} "
          "operations)")
    for reason in check.reasons[:20]:
        print(f"  FAIL {reason}")

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_path = bdir / "results" / raw_path.name.replace(".jsonl", ".json")
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": stamp, "elapsed_s": time.time() - started,
        "attempted": check.attempted, "failed": check.failed,
        "failures": check.reasons, "metrics": reported,
    }, indent=1) + "\n")
    if args.trace:
        trace_path = bdir / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        summary = analysis.trace_summary(records)
        trace_path.write_text(json.dumps(summary, indent=1) + "\n")
        for group, layers in sorted(summary["layers"].items()):
            own = ", ".join(f"{k} {v:.4g}" for k, v in layers["self_s"].items())
            print(f"  self time per pass, {group} ({layers['passes']} passes): {own} s")
        print(f"  spans and layer self times: {trace_path}")

    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": reported,
    }))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
