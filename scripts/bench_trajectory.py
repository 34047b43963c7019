#!/usr/bin/env python3
"""Benchmark-trajectory gate: run the perf suite, record it, compare it.

Runs the four steady benchmarks —

  * micro_kernels (google-benchmark, JSON output, median of N repetitions)
  * host_throughput --poisson (streaming fabric; its --json metrics file)
  * host_throughput --adaptive (closed-loop degrade drill: shedding-only
    baseline vs degrade-don't-drop under calibrated 2x overload)
  * net_loopback --pipeline (wire v2 batched submits vs the v1 per-window
    path over real loopback TCP; its --json metrics file)

— merges them into one BENCH_results.json (the CI artifact, one point of
the performance trajectory), and compares throughput metrics against the
committed baseline (bench/BENCH_baseline.json).  The streaming
throughput (windows/second over a multi-second Poisson run) gates at
--tolerance; the micro-kernel rates gate at the looser --micro-tolerance
because nanosecond-scale benches jitter 10-20% run-to-run on shared
runners even as medians of repetitions.  Latency and allocation metrics
ride along informationally (CI runners are too noisy to gate on absolute
times, so only relative throughput is enforced).

The net_loopback comparison carries a hard floor: pipelined v2 submit
throughput must beat the v1 per-window path by NET_LOOPBACK_SPEEDUP_FLOOR.
Because the two phases race the host scheduler on a shared-core runner,
the invocation is retried (up to NET_LOOPBACK_ATTEMPTS) and the best
attempt is what gates — but bit-exactness is never retried: one corrupt
attempt fails the whole run.

The adaptive drill gates the same way: goodput under overload must beat
the shedding-only baseline by ADAPTIVE_SPEEDUP_FLOOR (retried, best
attempt), the degraded mean SNR must sit within ADAPTIVE_SNR_MARGIN_DB
of the full-iteration Figure-5 point at the degraded CR, and the
correctness bits — off-policy bit-exactness, the per-tier re-solve
audit, and zero urgent degradations — fail immediately on any attempt,
never retried.

Only the standard library is used.  Typical invocations:

  python3 scripts/bench_trajectory.py --build-dir build          # gate
  python3 scripts/bench_trajectory.py --build-dir build \
      --write-baseline                                           # refresh

The tolerance can also be set via WBSN_BENCH_TOLERANCE (fraction, e.g.
0.10).  Baseline refreshes should come from the same class of machine
that gates — in CI, rerun the job with --write-baseline and commit the
result.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HOST_THROUGHPUT_ARGS = [
    "8", "12", "50", "--poisson", "400", "--threads", "2", "--shards", "2",
    "--pool",
]
NET_LOOPBACK_ARGS = [
    "16", "24", "75", "--shards", "1", "--threads", "1",
    "--pipeline", "8", "--batch-frames", "16", "--repeat", "5",
]
NET_LOOPBACK_ATTEMPTS = 3
NET_LOOPBACK_SPEEDUP_FLOOR = 3.0
HOST_ADAPTIVE_ARGS = ["16", "24", "50", "--adaptive", "--threads", "2"]
HOST_ADAPTIVE_ATTEMPTS = 3
ADAPTIVE_SPEEDUP_FLOOR = 1.3
# The capped degraded tier gives up some convergence relative to the
# full-iteration Figure-5 point at the same CR (measured ~0.1 dB on this
# shape at the 40-iteration cap); the margin absorbs that plus
# window-subset variance (which windows demote depends on arrival timing).
ADAPTIVE_SNR_MARGIN_DB = 3.5
MICRO_REPETITIONS = 3

# Gated metrics: higher is better, relative to baseline.
GATED_HOST_METRICS = ["throughput_win_per_s"]


def run_micro(build_dir, repetitions):
    """micro_kernels -> {benchmark_name: items_per_second (median)}."""
    binary = os.path.join(build_dir, "bench", "micro_kernels")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        subprocess.run(
            [
                binary,
                f"--benchmark_repetitions={repetitions}",
                "--benchmark_report_aggregates_only=true",
                f"--benchmark_out={out_path}",
                "--benchmark_out_format=json",
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(out_path) as f:
            raw = json.load(f)
    finally:
        os.unlink(out_path)

    micro = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("aggregate_name") != "median":
            continue
        name = bench["run_name"]
        entry = {"real_time_ns": bench.get("real_time")}
        if "items_per_second" in bench:
            entry["items_per_second"] = bench["items_per_second"]
        if "allocs_per_window" in bench:
            entry["allocs_per_window"] = bench["allocs_per_window"]
        micro[name] = entry
    if not micro:
        raise SystemExit("micro_kernels produced no median aggregates")
    return micro


def run_host_throughput(build_dir):
    """host_throughput --poisson --json -> its flat metrics object."""
    binary = os.path.join(build_dir, "bench", "host_throughput")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        proc = subprocess.run(
            [binary, *HOST_THROUGHPUT_ARGS, "--json", out_path],
            stdout=subprocess.DEVNULL,
        )
        if proc.returncode != 0:
            raise SystemExit(
                f"host_throughput exited {proc.returncode} "
                "(bit-exactness or argument failure)")
        with open(out_path) as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def run_host_adaptive(build_dir):
    """host_throughput --adaptive --json -> best attempt's metrics object.

    Goodput speedup races the scheduler, so whole invocations are
    retried and the best attempt gates.  The correctness bits (off-policy
    bit-exactness, the tier re-solve audit, urgent-lane cleanliness) are
    not timing — any failed attempt fails the run, never retried.
    """
    binary = os.path.join(build_dir, "bench", "host_throughput")
    best = None
    for attempt in range(1, HOST_ADAPTIVE_ATTEMPTS + 1):
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            out_path = tmp.name
        try:
            subprocess.run([binary, *HOST_ADAPTIVE_ARGS, "--json", out_path],
                           stdout=subprocess.DEVNULL)
            try:
                with open(out_path) as f:
                    metrics = json.load(f)
            except (OSError, json.JSONDecodeError):
                raise SystemExit(
                    "host_throughput --adaptive produced no metrics JSON")
        finally:
            os.unlink(out_path)
        for bit in ("off_policy_bit_exact", "tier_audit_bit_exact",
                    "urgent_lane_clean"):
            if metrics.get(bit) != 1:
                raise SystemExit(
                    f"host_throughput --adaptive: {bit} failed "
                    "(not retryable)")
        if metrics.get("adaptive_urgent_degraded", 0) != 0:
            raise SystemExit(
                "host_throughput --adaptive: an urgent window was degraded "
                "(not retryable)")
        if best is None or (metrics.get("adaptive_speedup", 0)
                            > best.get("adaptive_speedup", 0)):
            best = metrics
        print(f"#   attempt {attempt}: adaptive speedup "
              f"{metrics.get('adaptive_speedup', 0):.2f}x, degraded SNR "
              f"{metrics.get('degraded_mean_snr_db', 0):.2f} dB")
        if best.get("adaptive_speedup", 0) >= ADAPTIVE_SPEEDUP_FLOOR:
            break
    best["attempts"] = attempt
    return best


def run_net_loopback(build_dir):
    """net_loopback --pipeline --json -> best attempt's metrics object.

    The binary itself is best-of-N on the submit clock; this retries whole
    invocations because a shared-core runner can steal the CPU for an
    entire phase.  Every attempt must be bit-exact — correctness failures
    are not retried.
    """
    binary = os.path.join(build_dir, "bench", "net_loopback")
    best = None
    for attempt in range(1, NET_LOOPBACK_ATTEMPTS + 1):
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            out_path = tmp.name
        try:
            subprocess.run([binary, *NET_LOOPBACK_ARGS, "--json", out_path],
                           stdout=subprocess.DEVNULL)
            try:
                with open(out_path) as f:
                    metrics = json.load(f)
            except (OSError, json.JSONDecodeError):
                raise SystemExit("net_loopback produced no metrics JSON")
        finally:
            os.unlink(out_path)
        if metrics.get("bit_exact") != 1:
            raise SystemExit(
                "net_loopback: pipelined phase was not bit-exact against the "
                "serial reference (not retryable)")
        if best is None or metrics.get("speedup", 0) > best.get("speedup", 0):
            best = metrics
        print(f"#   attempt {attempt}: speedup {metrics.get('speedup', 0):.2f}x")
        if best.get("speedup", 0) >= NET_LOOPBACK_SPEEDUP_FLOOR:
            break
    best["attempts"] = attempt
    return best


def compare(results, baseline, tolerance, micro_tolerance):
    """Returns a list of failure strings (empty = gate passes)."""
    failures = []

    def check(label, new, old, floor_tolerance):
        if old is None or old <= 0 or new is None:
            return
        ratio = new / old
        line = f"{label}: {new:.1f} vs baseline {old:.1f} ({ratio:.2%})"
        if ratio < 1.0 - floor_tolerance:
            failures.append(line + f"  < {1.0 - floor_tolerance:.2%} floor")
        else:
            print(f"  ok    {line}")

    for name, base_entry in sorted(baseline.get("micro", {}).items()):
        new_entry = results["micro"].get(name)
        if new_entry is None:
            failures.append(f"{name}: present in baseline, missing from run")
            continue
        check(f"{name}/items_per_second",
              new_entry.get("items_per_second"),
              base_entry.get("items_per_second"),
              micro_tolerance)

    base_host = baseline.get("host_throughput_poisson", {})
    new_host = results.get("host_throughput_poisson", {})
    for metric in GATED_HOST_METRICS:
        check(f"host_throughput/{metric}", new_host.get(metric),
              base_host.get(metric), tolerance)

    if new_host.get("bit_exact") == 0:
        failures.append("host_throughput: bit-exactness check failed")

    base_adaptive = baseline.get("host_adaptive", {})
    new_adaptive = results.get("host_adaptive", {})
    check("host_adaptive/goodput_win_per_s",
          new_adaptive.get("adaptive_goodput_win_per_s"),
          base_adaptive.get("adaptive_goodput_win_per_s"),
          micro_tolerance)
    adaptive_speedup = new_adaptive.get("adaptive_speedup")
    if (adaptive_speedup is not None
            and adaptive_speedup < ADAPTIVE_SPEEDUP_FLOOR):
        failures.append(
            f"host_adaptive: goodput speedup {adaptive_speedup:.2f}x "
            f"< {ADAPTIVE_SPEEDUP_FLOOR:.1f}x floor")
    degraded_snr = new_adaptive.get("degraded_mean_snr_db")
    fig5_floor = new_adaptive.get("fig5_floor_snr_db")
    if degraded_snr is not None and fig5_floor is not None:
        floor = fig5_floor - ADAPTIVE_SNR_MARGIN_DB
        line = (f"host_adaptive: degraded SNR {degraded_snr:.2f} dB vs "
                f"Fig-5 floor {fig5_floor:.2f} - {ADAPTIVE_SNR_MARGIN_DB} dB")
        if degraded_snr < floor:
            failures.append(line)
        else:
            print(f"  ok    {line}")
    if new_adaptive.get("adaptive_urgent_degraded", 0) != 0:
        failures.append("host_adaptive: an urgent window was degraded")
    for bit in ("off_policy_bit_exact", "tier_audit_bit_exact",
                "urgent_lane_clean"):
        if new_adaptive.get(bit) == 0:
            failures.append(f"host_adaptive: {bit} failed")

    base_net = baseline.get("net_loopback_pipeline", {})
    new_net = results.get("net_loopback_pipeline", {})
    check("net_loopback/v2_win_per_s", new_net.get("v2_win_per_s"),
          base_net.get("v2_win_per_s"), micro_tolerance)
    speedup = new_net.get("speedup")
    if speedup is not None and speedup < NET_LOOPBACK_SPEEDUP_FLOOR:
        failures.append(
            f"net_loopback: pipelined speedup {speedup:.2f}x "
            f"< {NET_LOOPBACK_SPEEDUP_FLOOR:.1f}x floor")
    if new_net.get("bit_exact") == 0:
        failures.append("net_loopback: bit-exactness check failed")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--output", default="BENCH_results.json")
    parser.add_argument("--baseline",
                        default=os.path.join("bench", "BENCH_baseline.json"))
    parser.add_argument("--write-baseline", action="store_true",
                        help="record this run as the committed baseline "
                             "instead of gating against it")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("WBSN_BENCH_TOLERANCE",
                                                     "0.10")),
                        help="allowed fractional streaming-throughput drop "
                             "(default 0.10, env WBSN_BENCH_TOLERANCE)")
    parser.add_argument("--micro-tolerance", type=float,
                        default=float(os.environ.get(
                            "WBSN_BENCH_MICRO_TOLERANCE", "0.30")),
                        help="allowed fractional micro-kernel rate drop "
                             "(default 0.30 — ns-scale benches jitter "
                             "hard on shared runners; env "
                             "WBSN_BENCH_MICRO_TOLERANCE)")
    parser.add_argument("--repetitions", type=int, default=MICRO_REPETITIONS)
    args = parser.parse_args()

    print(f"# micro_kernels ({args.repetitions} repetitions, median)")
    micro = run_micro(args.build_dir, args.repetitions)
    print(f"#   {len(micro)} benchmarks")
    print("# host_throughput " + " ".join(HOST_THROUGHPUT_ARGS))
    host = run_host_throughput(args.build_dir)
    print("# host_throughput " + " ".join(HOST_ADAPTIVE_ARGS))
    adaptive = run_host_adaptive(args.build_dir)
    print("# net_loopback " + " ".join(NET_LOOPBACK_ARGS))
    net = run_net_loopback(args.build_dir)

    results = {
        "schema": 1,
        "micro": micro,
        "host_throughput_poisson": host,
        "host_adaptive": adaptive,
        "net_loopback_pipeline": net,
    }
    with open(args.output, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"# results -> {args.output}")

    if args.write_baseline:
        with open(args.baseline, "w") as f:
            json.dump(results, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"# baseline -> {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        raise SystemExit(f"no baseline at {args.baseline}; run with "
                         "--write-baseline once and commit it")
    with open(args.baseline) as f:
        baseline = json.load(f)

    print(f"# gate: streaming floor {1.0 - args.tolerance:.2%}, "
          f"micro floor {1.0 - args.micro_tolerance:.2%} of baseline")
    failures = compare(results, baseline, args.tolerance,
                       args.micro_tolerance)
    if failures:
        print("\nbench-trajectory REGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL  {failure}", file=sys.stderr)
        return 1
    print("bench-trajectory: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
