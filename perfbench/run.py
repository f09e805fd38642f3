#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the 2PCP decomposition pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload refine_sync --seed 1 --seconds 20 \
        --trace 0

It builds perfbench/ (which builds the tpcp library from this checkout) in
Release under .bench_build/, generates the workload's tensor store from
--seed under .bench_work/<workload>/, and repeats the full decompose (Phase 1, Phase 2,
assembly) in fresh processes for --seconds seconds. Every rep is checked:
the final fit against the generated tensor must clear the workload's floor,
the final factors must be byte-identical across reps (and, for the dist
workload, to a single-process run of the same plan), the storage
instrument's totals must equal the program's IoStats, and the workload's own
gates must hold (swap counts equal to the simulator's; an exact dist ledger
and no respawns). A rep that fails any check counts as failed.

--trace 0 reports the end-to-end metrics (medians over the reps); --trace 1
reports the per-layer metrics from traced reps, a kernel probe and a decode
probe, writes a Chrome trace-event file (opens in Perfetto) under
.bench_out/ and prints a per-layer self-time table on stderr. The run record
(machine, build, seed, workload config, every rep) is printed and stored
under .bench_out/. The last line of stdout is the JSON result.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SETUP_REPS = 7
MIN_REPS = 3
MIN_TRACED_REPS = 2
REP_TIMEOUT_S = 170

END_TO_END = {
    "decompose_s": "s",
    "fit": "1",
    "io_mb": "MiB",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

HERE = os.path.dirname(os.path.abspath(__file__))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_e2e")


def call(binary, mode, **flags):
    """Runs one step of perfbench_e2e; returns (exit code, last JSON line)."""
    argv = [binary, mode]
    for key, value in flags.items():
        key = key.replace("_", "-")
        argv.append("--" + key if value is True else f"--{key}={value}")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"ok": False, "error": "no result from " + mode}
    return proc.returncode, result


def median(values):
    return statistics.median(values) if values else 0.0


def valid_chrome_trace(path):
    try:
        with open(path) as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        return bool(events) and all(
            e["ph"] == "X" and isinstance(e["ts"], (int, float)) and
            isinstance(e["dur"], (int, float)) and e["name"]
            for e in events)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def run(args, root, binary):
    # One work directory per workload, reused by every run: stores and
    # factor files are overwritten in place, never deleted. On a file system
    # that discards freed blocks online, deleting thousands of small files
    # slows the file creations of the next seconds, which would leak one
    # run's clean-up into the next run's timings.
    work = os.path.join(root, ".bench_work", args.workload)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(work, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return measure(args, binary, work, out_dir)


def measure(args, binary, work, out_dir):
    workload, seed = args.workload, args.seed
    record = {"workload": workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace}
    _, record["system"] = call(binary, "sysinfo")
    code, record["config"] = call(binary, "config", workload=workload)
    if code != 0:
        raise RuntimeError(record["config"].get("error", "bad workload"))

    # Set-up: generate the store several times, report the median.
    setups = []
    for k in range(SETUP_REPS):
        code, gen = call(binary, "generate", workload=workload, seed=seed,
                         root=os.path.join(work, f"gen{k}"))
        if code != 0 or not gen.get("ok"):
            raise RuntimeError("generate failed: " + gen.get("error", ""))
        setups.append(gen["setup_s"])
    store = os.path.join(work, "gen0")
    record["setup_s"] = setups

    # Reference run (also the warm-up): the single-process engine, also for
    # a dist workload. Every timed rep must reproduce its factors byte for
    # byte.
    attempted, failed = 1, 0
    code, ref = call(binary, "decompose", workload=workload, root=store,
                     local=True)
    if code != 0 or not ref.get("ok"):
        failed += 1
        log(f"reference run failed: {ref.get('error')}")
    record["reference"] = {k: ref.get(k) for k in
                           ("ok", "error", "decompose_s", "phase2_s", "fit",
                            "digest")}

    probe = {}
    if args.trace:
        code, probe = call(binary, "probe", workload=workload, seed=seed,
                           root=store)
        attempted += 1
        if code != 0 or not probe.get("ok"):
            failed += 1
            log(f"probe failed: {probe.get('error')}")

    trace_path = os.path.join(out_dir, f"trace-{workload}.json")
    reps = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        n_plain = sum(1 for r in reps if not r["traced"])
        n_traced = len(reps) - n_plain
        enough = n_plain >= MIN_REPS and (
            not args.trace or n_traced >= MIN_TRACED_REPS)
        elapsed = time.monotonic() - start
        estimate = median([r["wall_s"] for r in reps])
        if enough and elapsed + estimate > args.seconds:
            break
        flags = {"workload": workload, "root": store}
        if traced:
            flags["trace_out"] = trace_path
        t0 = time.monotonic()
        code, rep = call(binary, "decompose", **flags)
        rep["wall_s"] = time.monotonic() - t0
        rep["traced"] = traced
        problems = []
        if code != 0 or not rep.get("ok"):
            problems.append(rep.get("error") or f"exit code {code}")
        if rep.get("digest") != ref.get("digest"):
            problems.append("factors differ from the reference run")
        if traced and not valid_chrome_trace(trace_path):
            problems.append("trace file is not Chrome trace-event JSON")
        rep["problems"] = problems
        attempted += 1
        if problems:
            failed += 1
            log(f"rep {len(reps)} failed: {'; '.join(problems)}")
        reps.append(rep)

    plain = [r for r in reps if not r["traced"] and "decompose_s" in r]
    traced_reps = [r for r in reps if r["traced"] and "decompose_s" in r]
    if args.trace:
        metrics = per_layer_metrics(plain, traced_reps, probe, ref)
    else:
        metrics = {name: median([r[name] for r in plain])
                   for name in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = median(setups)
        metrics = {name: {"value": metrics[name], "unit": END_TO_END[name]}
                   for name in END_TO_END}

    record["reps"] = [{k: r.get(k) for k in
                       ("traced", "wall_s", "decompose_s", "fit", "io_mb",
                        "peak_rss_mb", "digest", "checks", "problems",
                        "storage")}
                      for r in reps]
    record["attempted"], record["failed"] = attempted, failed
    record["error_rate"] = failed / attempted
    record["metrics"] = metrics
    record_path = os.path.join(
        out_dir, f"record-{workload}-s{seed}-trace{args.trace}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"workload {workload} seed {seed}: {attempted} operations, "
          f"{failed} failed (error_rate {failed / attempted:.3f}), "
          f"{len(reps)} reps in {time.monotonic() - start:.1f}s")
    print("machine: " + json.dumps(record["system"], sort_keys=True))
    print("config: " + json.dumps(record["config"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"run record: {record_path}")
    if args.trace:
        print(f"trace: {trace_path}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer_metrics(plain, traced, probe, ref):
    """Medians over the traced reps, plus the probes and derived ratios."""
    names = sorted(traced[0]["layers"]) if traced else []
    metrics = {n: median([r["layers"][n] for r in traced]) for n in names}
    metrics.update(probe.get("layers", {}))
    # dist.phase2_s is 0 unless the workload runs a worker fleet.
    local_phase2 = ref.get("phase2_s") or 0.0
    metrics["dist.slowdown_vs_local"] = (
        metrics.get("dist.phase2_s", 0.0) / local_phase2
        if local_phase2 > 0 else 0.0)
    untraced_s = median([r["decompose_s"] for r in plain])
    traced_s = median([r["decompose_s"] for r in traced])
    metrics["trace.overhead_frac"] = (
        traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer"]
    return {m["name"]: {"value": metrics.get(m["name"], 0.0),
                        "unit": m["unit"]} for m in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        log("perfbench: run from the root of a tpcp source checkout")
        return 2
    try:
        binary = build(root)
        result = run(args, root, binary)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
