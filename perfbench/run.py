"""Benchmark of the mixedform CLI and library on pinned, seeded inputs.

    python3 perfbench/run.py --workload {cli-small,cli-large,sampling} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: it needs ``src/mixedform`` and
``tests/geomfix.py`` and exits with code 2 without a result when they are
missing.  Inputs, child output, traces and a full result record are written
under ``.perfbench_work/``.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics, taken from a traced run
of S/2 seconds that follows an untraced run of S/2 seconds (the pair gives
the tracing overhead).  ``NOTES.md`` says why each workload exists and which
layer should move which metric.
"""

import os

# Cap BLAS threads before numpy is imported here or in any child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"

WORKLOADS = ("cli-small", "cli-large", "sampling")
PAIR_RATES = ("minkowski_pairs_per_s", "af_pairs_per_s", "fuchsian_pairs_per_s")
SETUP_REPEATS = 5
# Untraced CLI phases run at least this many cycles, so that a slow spell of
# the machine does not halve a run's sample.
MIN_CYCLES = 2
PINNED_CPU = min(os.sched_getaffinity(0))
CALL_TIMEOUT_S = 120
# No new work starts after this; every run must end within 180 s.
DEADLINE_S = 140
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mixedform.cli; "
                "print(time.perf_counter() - t)")


def spawn(argv, log_prefix, timeout=CALL_TIMEOUT_S):
    """Run ``python3 argv...`` to completion.

    Returns (exit code, wall seconds, max RSS in MiB, stdout text); stdout
    and stderr go to ``log_prefix``.out / .err.
    """
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                         file_actions=actions)
    watchdog = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    with open(out_path) as fh:
        out = fh.read()
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0, out


def out_of_time():
    return time.perf_counter() - STARTED > DEADLINE_S


def percentile(values, q):
    return float(np.percentile(values, q))


def end_to_end(costs, setups, rss_mb):
    """The end-to-end metrics from per-operation costs in reference units."""
    return {"setup_s": statistics.median(setups),
            "op_cost.p50": percentile(costs, 50),
            "op_cost.mean": statistics.fmean(costs),
            "peak_rss_mb": max(rss_mb)}


def wall_summary(walls, setups):
    """Raw wall-time figures, recorded and printed beside the metrics."""
    return {"op_wall_ms.p50": 1000.0 * percentile(walls, 50),
            "op_wall_ms.p90": 1000.0 * percentile(walls, 90),
            "ops_per_s": len(walls) / sum(walls),
            "setup_wall_s": statistics.median(setups)}


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, what, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {error}")

    def merge(self, attempted, failed, failures):
        self.attempted += attempted
        self.failed += failed
        self.failures += failures[:20 - len(self.failures)]


# =============================================================================
# CLI WORKLOADS
# =============================================================================

def import_probe(work, tally, times, probe_s):
    """Time ``import mixedform.cli`` in a fresh interpreter.

    Appends (raw seconds, seconds at nominal speed); ``probe_s`` is the
    reference probe taken just before.
    """
    code, _, _, out = spawn(["-c", IMPORT_PROBE], os.path.join(work, f"import{len(times)}"))
    tally.add("import mixedform.cli", None if code == 0 else f"exit code {code}")
    if code == 0:
        times.append((float(out), calibrate.at_nominal_speed(float(out), probe_s)))


def cli_phase(manifest, seconds, work, tally, traced, import_times=None, min_cycles=1):
    """Whole cycles over the call list, as many as come closest to ``seconds``.

    Returns one record per call, and the span sets and import times of the
    traced children when ``traced``.  A reference probe runs between calls;
    a call's ``cost`` is its wall time over the mean of the probes on either
    side.  With ``import_times``, an import probe runs before every third of
    a cycle, so the set-up samples are spread over the phase like the calls.
    """
    calls = manifest["calls"]
    probe_every = -(-len(calls) // 3)
    tag = "traced" if traced else "plain"
    records, span_sets, imports = [], [], []
    cycles = None
    refs = [calibrate.probe()]
    start = time.perf_counter()
    while cycles is None or len(records) < cycles * len(calls):
        if import_times is not None and len(records) % probe_every == 0:
            import_probe(work, tally, import_times, refs[-1])
        call = calls[len(records) % len(calls)]
        prefix = os.path.join(work, f"{tag}{len(records)}")
        argv = ["-m", "mixedform", *call["argv"]]
        if traced:
            argv = [os.path.join(HERE, "traced_cli.py"), prefix + ".spans", *call["argv"]]
        code, wall, rss, out = spawn(argv, prefix)
        refs.append(calibrate.probe())
        fixture = manifest["fixtures"].get(call["fixture"])
        error = oracle.check_cli(call, fixture, code, out)
        tally.add(" ".join(call["argv"][:3]), error)
        records.append({"command": call["command"], "wall_s": wall,
                        "cost": 2.0 * wall / (refs[-2] + refs[-1]), "rss_mb": rss,
                        "ok": error is None})
        if traced and os.path.exists(prefix + ".spans"):
            trace = tracer.load(prefix + ".spans")
            span_sets.append(trace["spans"])
            imports.append(trace["import_s"])
        if cycles is None and len(records) == len(calls):
            cycles = max(min_cycles, round(seconds / (time.perf_counter() - start)))
        if out_of_time():
            break
    return records, span_sets, imports


def run_cli(manifest, seconds, trace, work, tally):
    if not trace:
        setup = []
        records, _, _ = cli_phase(manifest, seconds, work, tally, traced=False,
                                  import_times=setup, min_cycles=MIN_CYCLES)
        metrics = end_to_end([r["cost"] for r in records], [s for _, s in setup],
                             [r["rss_mb"] for r in records])
        wall = wall_summary([r["wall_s"] for r in records], [raw for raw, _ in setup])
        return metrics, {"wall": wall, "calls": records, "import_s": setup}
    plain, _, _ = cli_phase(manifest, seconds / 2, work, tally, traced=False)
    traced, span_sets, imports = cli_phase(manifest, seconds / 2, work, tally, traced=True)
    metrics = tracer.summarize(span_sets)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_ratio"] = (statistics.fmean(r["cost"] for r in traced)
                                       / statistics.fmean(r["cost"] for r in plain))
    metrics.update(dict.fromkeys(PAIR_RATES, 0.0))
    return metrics, {"plain": plain, "traced": traced}


# =============================================================================
# SAMPLING WORKLOAD
# =============================================================================

def sampling_child(manifest_path, seconds, work, tally, tag, extra=()):
    out = os.path.join(work, tag + ".json")
    code, _, rss, _ = spawn([os.path.join(HERE, "sampling.py"), manifest_path,
                             str(seconds), out, *extra], os.path.join(work, tag),
                            timeout=seconds + CALL_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"sampling child {tag} exited with code {code}; "
                           f"see {os.path.join(work, tag)}.err")
    with open(out) as fh:
        report = json.load(fh)
    report["rss_mb"] = rss
    tally.merge(report["attempted"], report["failed"], report["failures"])
    return report


def round_walls(report):
    return [sum(r[:3]) for r in report["rounds"]]


def round_costs(report):
    """Round times over the mean of the reference probes around their block."""
    probes, every = report["probes"], report["probe_every"]
    return [wall * 2.0 / (probes[k // every] + probes[k // every + 1])
            for k, wall in enumerate(round_walls(report))]


def run_sampling(manifest_path, seconds, trace, work, tally):
    if not trace:
        # one loop child per set-up sample, so set-up is timed across the run
        chunks = [sampling_child(manifest_path, seconds / SETUP_REPEATS, work, tally,
                                 f"loop{i}", ["--chunk", str(i)]) for i in range(SETUP_REPEATS)]
        # set-up ends right before the loop's first reference probe
        setups = [calibrate.at_nominal_speed(r["setup_s"], r["probes"][0]) for r in chunks]
        metrics = end_to_end([c for r in chunks for c in round_costs(r)], setups,
                             [r["rss_mb"] for r in chunks])
        wall = wall_summary([w for r in chunks for w in round_walls(r)],
                            [r["setup_s"] for r in chunks])
        return metrics, {"wall": wall, "setup_s": setups}
    plain = sampling_child(manifest_path, seconds / 2, work, tally, "plain")
    traced = sampling_child(manifest_path, seconds / 2, work, tally, "traced",
                            ["--spans", os.path.join(work, "traced.spans")])
    metrics = tracer.summarize([tracer.load(os.path.join(work, "traced.spans"))["spans"]])
    metrics["cli.import_s"] = 0.0
    metrics["trace.overhead_ratio"] = (statistics.median(round_costs(traced))
                                       / statistics.median(round_costs(plain)))
    for k, name in enumerate(PAIR_RATES):
        block = statistics.median(r[k] for r in plain["rounds"])
        metrics[name] = plain["pairs_per_round"][k] / block
    return metrics, {"plain_rounds": len(plain["rounds"]),
                     "traced_rounds": len(traced["rounds"])}


# =============================================================================
# ENTRY POINT
# =============================================================================

def environment():
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "pinned_cpu": PINNED_CPU, "blas_threads": BLAS_THREADS,
            "machine": platform.machine()}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description="mixedform benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so spawn() stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for need in ("src/mixedform/__init__.py", "tests/geomfix.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found; run from the root of a mixedform "
                  "source checkout", file=sys.stderr)
            return 2
    declared = declared_metrics(args.trace)
    # One process runs at a time; keeping them all on one CPU makes the
    # reference probes (calibrate.py) see the CPU the measured work runs on.
    os.sched_setaffinity(0, {PINNED_CPU})

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    import fixtures
    import mixedform

    if not os.path.abspath(mixedform.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported mixedform from {mixedform.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    manifest = fixtures.write_fixtures(args.workload, args.seed, os.path.join(work, "inputs"))
    manifest_path = os.path.join(work, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1)

    tally = Tally()
    if args.workload == "sampling":
        computed, detail = run_sampling(manifest_path, args.seconds, args.trace, work, tally)
    else:
        computed, detail = run_cli(manifest, args.seconds, args.trace, work, tally)
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "inputs": {n: f["sha256"] for n, f in manifest["fixtures"].items()},
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures, "metrics": metrics, "detail": detail,
              "elapsed_s": time.perf_counter() - STARTED}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for name, digest in record["inputs"].items():
        print(f"input {name}: sha256 {digest}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(f"failed_ratio: {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, value in detail.get("wall", {}).items():
        print(f"(raw) {name}: {value:.6g}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
