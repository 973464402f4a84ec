#!/usr/bin/env python3
"""End-to-end training + serving benchmark of the CANDLE reproduction.

Builds e2ebench_driver (e2ebench/CMakeLists.txt) from the checkout's sources,
runs one workload in its own work directory, checks every output, and
prints each metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload nt3-overlap-4r --seed 1 \\
        --seconds 18 --trace 0
    python3 e2ebench/run.py --smoke          # every workload, tiny
    python3 e2ebench/run.py ... --record results.jsonl   # for bench_diff.py
    python3 e2ebench/run.py --record-reference 20   # rewrite reference.json

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (see e2ebench/README.md). Stdlib only.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["nt3-overlap-4r", "p1b1-pool-1r", "p1b2-ingest-4r",
             "serve-p1b2-open"]
RELEASE_TYPES = ("Release", "RelWithDebInfo")
DRIVER_TIMEOUT_S = 170
REFERENCE = os.path.join(HERE, "reference.json")
# The in-run reference's test accuracy and final loss must lie this close
# to the figures reference.json records for its seed (absolute on accuracy,
# relative on loss). Within a run every check against the in-run reference
# is bit-exact; across commits a change of summation order may move the
# last bits, so this check only catches a changed computation (data,
# sharding, allreduce, model).
REF_ACCURACY_ABS = 0.02
REF_LOSS_REL = 0.01


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    # CARGO_TARGET_DIR, when set, relocates the build output (relative to
    # the checkout root).
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "e2ebench")


def build():
    """Configures once and builds e2ebench_driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no repo sources next to {HERE} (need CMakeLists.txt and src/)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "e2ebench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "e2ebench_driver")


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def git_revision():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_digest():
    """Digest of src/ so a result names its code even outside git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def context(info):
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    sanitizer = cmake_cache("CANDLE_SANITIZER")
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"],
                                     capture_output=True, text=True,
                                     timeout=10).stdout.splitlines()[0]
        except (OSError, subprocess.TimeoutExpired, IndexError):
            version = compiler
    return {
        "host": socket.gethostname(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "ranks": info["ranks"],
        "pool_width": info["pool_width"],
        "build_type": build_type,
        "non_release_build": build_type not in RELEASE_TYPES or
                             bool(sanitizer),
        "compiler": version,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "load_average": [round(x, 2) for x in os.getloadavg()],
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(driver, workload, seed, seconds, trace, smoke,
               reference_only=False):
    """Runs one workload in a fresh work directory that is removed after."""
    work = os.path.join(ROOT, ".bench_work",
                        f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--workdir", work, "--smoke", "1" if smoke else "0",
           "--reference-only", "1" if reference_only else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{workload}: driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_for(spec, raw, trace):
    """Checks the metrics e2ebench_driver printed against BENCHMARK.json."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = raw["metrics"]
    if set(got) != set(units):
        fail(f"metric names differ from BENCHMARK.json: missing "
             f"{sorted(set(units) - set(got))}, extra "
             f"{sorted(set(got) - set(units))}")
    for name, value in got.items():
        if not math.isfinite(value):
            fail(f"metric {name} is not finite: {value}")
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": got[name], "unit": units[name]}
                    for name in sorted(got)},
    }


def check_recorded(workload, seed, raw):
    """Compares the in-run reference with reference.json, when the seed is
    recorded there; a mismatch is one more failed operation."""
    try:
        with open(REFERENCE) as f:
            recorded = json.load(f).get(workload, {}).get(str(seed))
    except OSError:
        recorded = None
    if recorded is None:
        return "not recorded"
    info = raw["info"]
    acc, loss = info["ref_test_accuracy"], info["ref_final_loss"]
    ok = (abs(acc - recorded["test_accuracy"]) <= REF_ACCURACY_ABS and
          abs(loss - recorded["final_loss"]) <=
          REF_LOSS_REL * abs(recorded["final_loss"]))
    raw["attempted"] += 1
    if not ok:
        raw["failed"] += 1
        raw["failures"].append(
            f"test accuracy {acc:.6g} / final loss {loss:.6g} differ from "
            f"the recorded reference {recorded['test_accuracy']:.6g} / "
            f"{recorded['final_loss']:.6g}")
    return "matched" if ok else "MISMATCH"


def record_reference(driver, seeds):
    """Runs only the reference run of every workload for seeds 1..seeds and
    writes the figures to reference.json."""
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in range(1, seeds + 1):
            raw = run_driver(driver, workload, seed, 1, 0, smoke=False,
                             reference_only=True)
            if raw["failed"]:
                fail(f"{workload} seed {seed}: {raw['failures']}")
            table[workload][str(seed)] = {
                "test_accuracy": raw["info"]["ref_test_accuracy"],
                "final_loss": raw["info"]["ref_final_loss"]}
            print(f"{workload} seed {seed}: {table[workload][str(seed)]}")
    with open(REFERENCE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def smoke(driver, spec):
    """Every workload tiny, both modes: names, units and the gate."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            raw = run_driver(driver, workload, 1, 1, trace, smoke=True)
            result = result_for(spec, raw, trace)
            good = result["correct"] and result["attempted"] >= 1
            ok = ok and good
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({result['attempted']} checked, {result['failed']} failed"
                  f", {len(result['metrics'])} metrics)")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny and check the output")
    parser.add_argument("--record-reference", type=int, metavar="SEEDS",
                        help="rewrite reference.json from the reference runs "
                             "of seeds 1..SEEDS")
    parser.add_argument("--record", metavar="FILE",
                        help="append the result with its context as a JSON "
                             "line (input of bench_diff.py)")
    args = parser.parse_args()
    if not args.smoke and args.record_reference is None and \
            args.workload is None:
        parser.error("--workload is required unless --smoke or "
                     "--record-reference")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail(f"no BENCHMARK.json in {ROOT}")
    spec = load_spec()
    driver = build()
    if args.smoke:
        return smoke(driver, spec)
    if args.record_reference is not None:
        return record_reference(driver, args.record_reference)

    started = time.time()
    raw = run_driver(driver, args.workload, args.seed, args.seconds,
                     args.trace, smoke=False)
    recorded = check_recorded(args.workload, args.seed, raw)
    result = result_for(spec, raw, args.trace)
    ctx = context(raw["info"])
    print("context: " + json.dumps(ctx, sort_keys=True))
    if ctx["non_release_build"]:
        print("WARNING: non-release build; timings are not comparable")
    info = raw["info"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{info.get('train_runs', 0):.0f} training runs; top layers "
          f"{info['top_layers']}; wall {time.time() - started:.1f} s")
    print(f"reference: test accuracy {info['ref_test_accuracy']:.6g}, final "
          f"loss {info['ref_final_loss']:.6g}; recorded reference for the "
          f"seed: {recorded}")
    if "serve_samples" in info:
        print(f"serve at {info['stated_rate']:g}/s: p50 "
              f"{info['serve_p50_median_ms']:.3f} ms (median over passes; "
              f"batch deadline {info['batch_deadline_ms']:g} ms), p99 "
              f"{info['serve_p99_ms']:.3f} ms over "
              f"{info['serve_samples']:.0f} requests in "
              f"{info['serve_passes']:.0f} passes (printed, not bounded); "
              f"SLO for the max rate: p99 <= {info['slo_ms']:g} ms; first "
              f"rung missing it: {info['serve_first_fail_rps']:g}/s "
              f"(median over passes, 0 = none up to the top rung)")
    if "peak_rss_before_serving_mb" in info and "peak_rss_mb" in raw["metrics"]:
        print(f"peak RSS: {info['peak_rss_before_serving_mb']:.1f} MB before "
              f"the server starts, {raw['metrics']['peak_rss_mb']:.1f} MB "
              f"after the first serve pass")
    if "setup_csv_s" in info:
        print(f"setup parts: CSV synthesis + write {info['setup_csv_s']:.3f}"
              f" s, cache warm-up {info['setup_cache_s']:.3f} s, server "
              f"start {info['setup_server_s']:.3f} s")
    if "sync_train_s" in info:
        print(f"train phase: overlap+prefetch {info['overlap_train_s']:.3f} "
              f"s vs synchronous {info['sync_train_s']:.3f} s (same bits)")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':28s} {raw['failed'] / raw['attempted']:14.6g} "
          f"({raw['failed']} of {raw['attempted']} operations failed)")
    for message in raw["failures"]:
        print(f"  FAILED: {message}")
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "context": ctx,
                                "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
