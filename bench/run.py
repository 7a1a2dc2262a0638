#!/usr/bin/env python3
"""The repository's benchmark: four workloads, speed-corrected, traced per layer.

    python3 bench/run.py                         all workloads -> bench/out/latest.json
    python3 bench/run.py --repeat 10             ... ten seeds each, with spreads
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                 one run; last line is its JSON
    python3 bench/run.py --compare A.json B.json B against A, metric by metric

See bench/README.md for the workloads, the metrics and what speed correction
does.  Metric names, units, directions and bounds live in BENCHMARK.json.
"""

from __future__ import annotations

import os

# Pinned before NumPy or the native kernels load: one thread, so the
# calibration kernel and the program never run beside each other.
os.environ["REPRO_NATIVE_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from calibrate import C_REF, Clock
from tracing import TracedClock, Tracer, install

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"
ROUNDS = 3
SETUPS = 7
FSYNC_POLICY = "always"  # the default of ServiceConfig and DurableStore

# NumPy is loaded first: its import is not this repository's code, and the
# kernel needs it to bracket the timed import with two calibration samples.
IMPORT_PROBE = """
import statistics, sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import calibrate
before = statistics.median(calibrate.kernel() for _ in range(3))
begin = time.perf_counter()
import repro
seconds = time.perf_counter() - begin
after = statistics.median(calibrate.kernel() for _ in range(3))
print(seconds, (before + after) / 2.0)
"""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build() -> None:
    """Bring the native kernels up to date with their source (untimed).

    ``build_ext`` is a no-op when the extension is current and degrades to
    the NumPy tier without a compiler; which tier ran is reported as
    ``kernels.tier_native``.
    """
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"bench: cannot build the program in {ROOT}:\n{done.stderr}")


def python(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *arguments], cwd=ROOT, check=True,
                          capture_output=True, text=True)


# --------------------------------------------------------------------- #
# one run of one workload
# --------------------------------------------------------------------- #
def corrected_import_seconds(setups: int) -> float:
    """Median corrected ``import repro`` over fresh interpreters."""
    probe = IMPORT_PROBE.format(src=str(SRC), bench=str(BENCH))
    samples = []
    # One interpreter more than measured: the first warms the page cache
    # and the .pyc files (a quick run measures that one).
    for _ in range(setups + 1 if setups > 1 else 1):
        seconds, cal = map(float, python("-c", probe).stdout.split())
        samples.append(seconds * C_REF / cal)
    return statistics.median(samples[-setups:])


def kernels_import_seconds() -> float:
    """Cumulative import time of ``repro._kernels`` per ``-X importtime``."""
    lines = python("-X", "importtime", "-c",
                   f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                   "import repro").stderr.splitlines()
    for line in lines:
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "repro._kernels":
            return int(fields[1]) / 1e6
    return 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pooled(clocks, kind: str, raw: bool = False) -> list[float]:
    return [seconds for clock in clocks
            for seconds in (clock.raw(kind) if raw else clock.corrected(kind))]


def end_to_end(workload, clocks, rounds, setup_s: float) -> dict:
    ops = pooled(clocks, "op")
    write = sum(ops) + sum(pooled(clocks, "barrier"))
    return {
        "setup_s": setup_s,
        "write_points_per_s": ratio(sum(r.points_written for r in rounds),
                                    write),
        "op_p50_ms": 1e3 * percentile(ops, 0.5),
        "op_tail_ms": 1e3 * percentile(ops, workload.tail),
        "read_points_per_s": ratio(sum(r.points_read for r in rounds),
                                   sum(pooled(clocks, "read"))),
        "compression_ratio": ratio(8.0 * sum(r.points_stored for r in rounds),
                                   sum(r.stored_bytes for r in rounds)),
        "acf_fidelity": 1.0 - max(r.acf_deviation for r in rounds),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, tracer, clocks, rounds) -> dict:
    """Per-layer numbers.  The first round ran untraced, the others traced;
    the ``machine.raw_*`` twins of the timing metrics cover all of them."""
    import repro._kernels as kernels

    self_s = tracer.self_seconds
    spans = tracer.named
    untraced, traced = clocks[0], clocks[1:]

    def duration_s(*names):
        return sum(span.duration for span in spans(*names))

    points = sum(r.points_written for r in rounds[1:])
    requests = spans("service.handle_request")
    adds = spans("streaming.add")
    drains = spans("streaming.drain")
    appends = spans("storage.append")
    reads = [span.duration for span in spans("storage.read")]
    # Measured values, see tracing.install: (fast-path series, series, points)
    # per engine call, (blocks, bits, points) per encode, (kept, points) per
    # CAMEO run, points per decode.
    engine = [span.value for span in spans("engine.compress")]
    encoded = [span.value for span in spans("codecs.encode")]
    core = [span.value for span in spans("core.compress")]
    decoded = sum(span.value for span in spans("codecs.decode"))

    bodies = getattr(workload, "bodies", [])
    parse = Clock()
    parse.time("parse", lambda: [
        [float(value) for value in json.loads(body)["values"]]
        for body in bodies])
    parse.close()

    def busy(clock):
        return sum(sum(clock.corrected(kind))
                   for kind in ("op", "barrier", "read"))

    samples = [value for clock in clocks for value in clock.samples]
    raw_ops = pooled(clocks, "op", raw=True)
    return {
        "service.requests": len(requests),
        "service.failed": sum(span.value != 200 for span in requests),
        "service.shed": sum(span.value in (429, 503) for span in requests),
        "service.http_self_ms_per_op": 1e3 * ratio(
            self_s("harness.op", "harness.barrier") if requests else 0.0,
            len(requests)),
        "service.route_self_ms_per_op": 1e3 * ratio(
            self_s("service.handle_request"), len(requests)),
        "service.json_parse_us_per_op": 1e6 * ratio(
            sum(parse.corrected("parse")), len(bodies)),
        "streaming.add_calls": len(adds),
        "streaming.add_self_us_per_call": 1e6 * ratio(
            self_s("streaming.add"), len(adds)),
        "streaming.drains": len(drains),
        "streaming.drain_self_ms_per_call": 1e3 * ratio(
            self_s("streaming.drain"), len(drains)),
        "streaming.chunks_sealed": sum(span.value for span in adds),
        "storage.append_calls": len(appends),
        "storage.append_self_us_per_call": 1e6 * ratio(
            self_s("storage.append"), len(appends)),
        "storage.seal_append_p50_ms": 1e3 * percentile(
            [span.duration for span in appends if span.value], 0.5),
        "storage.manifest_swaps": sum(span.value
                                      for span in spans("os.replace")),
        "storage.fsyncs": len(spans("os.fsync")),
        "storage.fsync_ms_per_kpoint": 1e6 * ratio(
            self_s("os.fsync", "os.replace"), points),
        "storage.disk_bytes_per_point": ratio(
            sum(r.disk_bytes for r in rounds[1:]),
            sum(r.points_stored for r in rounds[1:])),
        "storage.wal_bytes_per_point": ratio(
            sum(span.value for span in spans("storage.wal_append")), points),
        "storage.read_p50_us": 1e6 * percentile(reads, 0.5),
        "storage.read_p99_us": 1e6 * percentile(reads, 0.99),
        "storage.reopen_s": percentile(pooled(traced, "reopen"), 0.5),
        "engine.compress_calls": len(engine),
        "engine.self_ms_per_kpoint": 1e6 * ratio(
            self_s("engine.compress"), sum(p for _f, _s, p in engine)),
        "engine.fastpath_ratio": ratio(sum(fast for fast, _s, _p in engine),
                                       sum(series for _f, series, _p in engine)),
        "codecs.encode_calls": sum(blocks for blocks, _b, _p in encoded),
        "codecs.encode_self_ms_per_kpoint": 1e6 * ratio(
            self_s("codecs.encode"), sum(p for _c, _b, p in encoded)),
        "codecs.decode_ms_per_kpoint": 1e6 * ratio(
            duration_s("codecs.decode"), decoded),
        "codecs.bits_per_value": ratio(sum(bits for _c, bits, _p in encoded),
                                       sum(p for _c, _b, p in encoded)),
        "core.compress_calls": len(core),
        "core.ms_per_kpoint": 1e6 * ratio(
            duration_s("core.compress"), sum(p for _k, p in core)),
        "core.kept_ratio": ratio(sum(kept for kept, _p in core),
                                 sum(p for _k, p in core)),
        "kernels.tier_native": int(all(
            tier == "native" for tier in kernels.active_tier().values())),
        "kernels.import_s": kernels_import_seconds(),
        "trace.coverage": ratio(
            duration_s("harness.op", "harness.barrier", "harness.read"),
            sum(clock.window("op", "barrier", "read") for clock in traced)),
        "trace.overhead_ratio": ratio(
            sum(busy(clock) for clock in traced) / len(traced),
            busy(untraced)),
        "machine.cal_p50_ms": 1e3 * percentile(samples, 0.5),
        "machine.cal_p90_ms": 1e3 * percentile(samples, 0.9),
        "machine.raw_write_points_per_s": ratio(
            sum(r.points_written for r in rounds),
            sum(raw_ops) + sum(pooled(clocks, "barrier", raw=True))),
        "machine.raw_op_p50_ms": 1e3 * percentile(raw_ops, 0.5),
        "machine.raw_op_tail_ms": 1e3 * percentile(raw_ops, workload.tail),
        "machine.raw_read_points_per_s": ratio(
            sum(r.points_read for r in rounds),
            sum(pooled(clocks, "read", raw=True))),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """One run: set-up, the rounds, the checks; returns the result object."""
    # A traced run needs one untraced round to compare the traced ones with.
    total_rounds = (2 if trace else 1) if quick else ROUNDS
    setups = 1 if quick or trace else SETUPS
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    tracer = Tracer()
    try:
        import_s = 0.0 if trace else corrected_import_seconds(setups)
        from workloads import REFERENCE_SECONDS, WORKLOADS

        workload = WORKLOADS[name](seed, seconds / REFERENCE_SECONDS, workdir)
        workload.prepare()
        ready = Clock()
        for _ in range(setups):
            workload.ready(ready)
        ready.close()
        setup_s = import_s + statistics.median(ready.corrected("ready"))

        clocks, rounds = [], []
        for index in range(total_rounds):
            if trace and index == 1:
                install(tracer)
            clock = TracedClock(tracer) if trace and index else Clock()
            rounds.append(workload.round(clock))
            clock.close()
            clocks.append(clock)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(clock.raw(kind)) for clock in clocks
                    for kind in ("op", "barrier", "read", "reopen"))
    failed = sum(r.failed for r in rounds)
    if len({r.digest for r in rounds}) != 1:
        failed += 1  # the kept points differ between identical rounds
    if trace:
        metrics = per_layer(workload, tracer, clocks, rounds)
    else:
        metrics = end_to_end(workload, clocks, rounds, setup_s)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def with_units(metrics: dict, declared: list[dict]) -> dict:
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        raise SystemExit("bench: BENCHMARK.json and bench/run.py disagree on "
                         f"metric names: {sorted(set(units) ^ set(metrics))}")
    return {name: {"value": metrics[name], "unit": units[name]}
            for name in units}


def single_run(args) -> int:
    spec = load_spec()
    if not args.quick:
        build()
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick)
    result["metrics"] = with_units(
        result["metrics"], spec["per_layer" if args.trace else "end_to_end"])
    for name, entry in result["metrics"].items():
        print(f"{args.workload}/{name} {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload}/ops_attempted {result['attempted']} count")
    print(f"{args.workload}/ops_failed {result['failed']} count")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------- #
# every workload, and comparing two result files
# --------------------------------------------------------------------- #
def filesystem_of(path: Path) -> str:
    best = ("", "unknown")
    for line in Path("/proc/mounts").read_text().splitlines():
        _device, mount, kind, *_rest = line.split()
        if str(path).startswith(mount) and len(mount) > len(best[0]):
            best = (mount, kind)
    return best[1]


def all_workloads(args) -> int:
    spec = load_spec()
    if not args.quick:
        build()
    WORK.mkdir(exist_ok=True)
    document = {
        "environment": {
            "python": sys.version.split()[0],
            "cpus": os.cpu_count(),
            "fsync_policy": FSYNC_POLICY,
            "work_dir_filesystem": filesystem_of(WORK),
            "native_threads": os.environ["REPRO_NATIVE_THREADS"],
            "seconds": args.seconds,
            "seeds": list(range(args.seed, args.seed + args.repeat)),
        },
        "workloads": {},
    }
    wanted = [args.workload] if args.workload else [
        entry["name"] for entry in spec["workloads"]]
    status = 0
    for name in wanted:
        runs = document["workloads"][name] = []
        for seed in document["environment"]["seeds"]:
            run = {"seed": seed, "ops_attempted": 0, "ops_failed": 0}
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                command = [sys.executable, str(BENCH / "run.py"),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace)]
                if args.quick:
                    command.append("--quick")
                done = subprocess.run(command, cwd=ROOT, text=True,
                                      stdout=subprocess.PIPE)
                if not done.stdout.strip():
                    return done.returncode or 1
                result = json.loads(done.stdout.splitlines()[-1])
                run[key] = {metric: entry["value"] for metric, entry
                            in result["metrics"].items()}
                run["ops_attempted"] += result["attempted"]
                run["ops_failed"] += result["failed"]
                status |= done.returncode
            runs.append(run)
        report(name, runs, spec)
    OUT.mkdir(exist_ok=True)
    target = Path(args.out) if args.out else OUT / "latest.json"
    target.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {target}")
    return status


def median_of(runs: list[dict], section: str, metric: str) -> float:
    return statistics.median(run[section][metric] for run in runs)


def spread_of(runs: list[dict], section: str, metric: str) -> float | None:
    """Interquartile range as a share of the median (needs four runs)."""
    values = [run[section][metric] for run in runs]
    if len(values) < 4:
        return None
    low, _mid, high = statistics.quantiles(values, n=4)
    return ratio(high - low, statistics.median(values))


def report(name: str, runs: list[dict], spec: dict) -> None:
    print(f"== {name}: {len(runs)} run(s), "
          f"ops_attempted {sum(run['ops_attempted'] for run in runs)}, "
          f"ops_failed {sum(run['ops_failed'] for run in runs)}")
    for section in ("end_to_end", "per_layer"):
        for entry in spec[section]:
            metric = entry["name"]
            line = (f"{name}/{metric:<34} "
                    f"{median_of(runs, section, metric):>14.6g} "
                    f"{entry['unit']}")
            spread = spread_of(runs, section, metric)
            if spread is not None:
                line += f"   spread {100 * spread:.2f} %"
                if "bound" in entry:
                    line += f" of bound {100 * entry['bound']:.1f} %"
            print(line)


def compare(args) -> int:
    """B against A: relative change of each median versus the metric's bound."""
    spec = load_spec()
    before, after = (json.loads(Path(path).read_text())["workloads"]
                     for path in args.compare)
    breaches = 0
    for name in before:
        if name not in after:
            continue
        tiers = [median_of(runs[name], "per_layer", "kernels.tier_native")
                 for runs in (before, after)]
        if tiers[0] != tiers[1]:
            print(f"{name}: refusing to compare, kernels.tier_native is "
                  f"{tiers[0]:g} in A and {tiers[1]:g} in B")
            breaches += 1
            continue
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            old = median_of(before[name], "end_to_end", metric)
            new = median_of(after[name], "end_to_end", metric)
            change = ratio(new - old, old)
            worse = -change if entry["better"] == "higher" else change
            breach = worse > entry["bound"]
            breaches += breach
            print(f"{name}/{metric:<22} A {old:>12.6g}  B {new:>12.6g}  "
                  f"{100 * change:+7.2f} %  bound {100 * entry['bound']:.1f} %"
                  f"  {'BREACH' if breach else 'ok'}")
    return 1 if breaches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one round, no build (smoke test)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on consecutive seeds")
    parser.add_argument("--out", help="result file (default bench/out/latest.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else load_spec()["run_seconds"]
    if args.workload and args.trace is not None:
        return single_run(args)
    return all_workloads(args)


if __name__ == "__main__":
    sys.exit(main())
