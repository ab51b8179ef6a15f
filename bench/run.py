"""opshift benchmark: closed-loop workloads with oracle-checked outputs.

    python3 bench/run.py --workload moi-remainder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One caller in one process sends
the next op only after the previous one returns; ops come in whole
periods of the workload's instance stream, so each run sees the same
class mix.  After the timed loop every output is compared with a
reference from ``bench/oracles.py``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` first runs half the time untraced,
then the rest with layer spans (``bench/tracing.py``) and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import clock

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("moi-remainder", "eta-density", "cli-all")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
REFERENCE_PROCESS = ["-c", "import decimal, email.parser, json, numpy; print('ready', flush=True)"]
REFERENCE_PROCESS_S = 0.18  # its median time on the host class of clock.py


def _import_program():
    if not (ROOT / "src" / "opshift" / "__init__.py").is_file():
        raise SystemExit(f"error: no opshift sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


def make_workload(name, out_root):
    import workloads

    if name == "moi-remainder":
        return workloads.MoiRemainder()
    if name == "eta-density":
        return workloads.EtaDensity()
    return workloads.CliAll(ROOT, out_root)


def setup_probe(name, seed):
    """Child side of a set-up measurement: import, stream, first op ready."""
    _import_program()
    with tempfile.TemporaryDirectory(dir=ROOT / ".benchrun") as tmp:
        make_workload(name, tmp).op(seed, 0)
        print("ready", flush=True)


def _seconds_to_ready(argv):
    """Wall time from spawning a fresh interpreter until it prints "ready"."""
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.close()
        child.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with code {child.returncode} before it was ready")
    return elapsed


def measure_setup(name, seed):
    """Median set-up time, from process start to the first op's inputs ready.

    Process start-up and imports drift with the host's speed as op times
    do (see clock.py), and the calibration kernel does not track them, so
    each probe is scaled by a reference process that imports only numpy
    and the standard library, timed just before and just after it.
    """
    probe = [str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        before = _seconds_to_ready(REFERENCE_PROCESS)
        elapsed = _seconds_to_ready(probe)
        after = _seconds_to_ready(REFERENCE_PROCESS)
        times.append(elapsed * REFERENCE_PROCESS_S / (0.5 * (before + after)))
    return statistics.median(times)


class Record:
    __slots__ = ("op", "timing", "output", "error")

    def __init__(self, op, timing, output, error):
        self.op, self.timing, self.output, self.error = op, timing, output, error


def closed_loop(workload, seed, seconds, start, min_periods, run_op=None):
    """Whole periods of ops until at least ``seconds`` reference seconds of op time.

    Returns the records and their total op time in reference seconds.
    """
    period = len(workload.PERIOD)
    records, total, k = [], 0.0, start
    while total < seconds or len(records) < min_periods * period:
        batch = []
        for _ in range(period):
            op = workload.op(seed, k)
            k += 1
            timing, output, exc = clock.time_op((lambda: run_op(op.run)) if run_op else op.run)
            error = None if exc is None else f"{type(exc).__name__}: {exc}"
            batch.append(Record(op, timing, output, error))
        clock.scale([r.timing for r in batch])
        total += sum(r.timing.scaled for r in batch)
        records += batch
    return records, total


def check_records(workload, records):
    """Per-op (ok, unexpected, digits) plus the failure ledger."""
    import workloads

    verdicts, ledger = [], Counter()
    for r in records:
        if r.error is not None:
            ledger["raised:" + r.error.split(":")[0]] += 1
            verdicts.append((False, True, 0.0))
            continue
        checks = r.op.check(r.output)
        failed = [c.id for c in checks if not c.ok]
        unexpected = [cid for cid in failed if not workload.known_defect(r.op.cls, cid)]
        for cid in failed:
            ledger[f"unexpected:{cid} {r.op.cls}" if cid in unexpected else "known:" + cid] += 1
        verdicts.append((not failed, bool(unexpected), workloads.digits(checks)))
    return verdicts, ledger


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics, steadier than one order statistic when few ops of a
    mixed workload sit near the quantile."""
    from scipy.stats import beta

    xs = sorted(values)
    n = len(xs)
    edges = beta.cdf([i / n for i in range(n + 1)], q * (n + 1), (1 - q) * (n + 1))
    return sum(w * x for w, x in zip(edges[1:] - edges[:-1], xs))


def latency_metrics(records, op_time):
    lat = [r.timing.scaled for r in records]
    tail_q = max(0.5, 1.0 - 10.0 / len(lat))  # ten samples lie beyond the tail quantile
    return {
        "ops_per_s": len(lat) / op_time,
        "op_p50_ms": 1e3 * quantile(lat, 0.5),
        "op_tail_ms": 1e3 * quantile(lat, tail_q),
    }, 100.0 * tail_q


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.setup_probe and not (args.seconds or 0) > 0:
        parser.error("--seconds must be given and positive")
    _import_program()
    (ROOT / ".benchrun").mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    import workloads

    out_root = Path(tempfile.mkdtemp(prefix="out-", dir=ROOT / ".benchrun"))
    try:
        workload = make_workload(args.workload, out_root)
        run_checks = [workload.threads_determinism(args.seed)] if hasattr(workload, "threads_determinism") else []
        if args.trace:
            import tracing

            records, op_time = closed_loop(workload, args.seed, args.seconds / 2, 0, workload.prefix_periods)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, traced_op_time = closed_loop(workload, args.seed, args.seconds / 2, len(records), 1, tracer.run_op)
            finally:
                tracer.uninstall()
            records += traced
        else:
            records, op_time = closed_loop(workload, args.seed, args.seconds, 0, workload.prefix_periods)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts, ledger = check_records(workload, records)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    prefix = len(workload.PERIOD) * workload.prefix_periods
    prefix_digits = [v[2] for v in verdicts[:prefix]]
    attempted = len(records)
    ok_share = sum(v[0] for v in verdicts) / attempted
    failed = sum(v[1] for v in verdicts)
    for c in run_checks:
        if not c.ok:
            ledger["unexpected:" + c.id] += 1
    correct = failed == 0 and all(c.ok for c in run_checks)

    if args.trace:
        untraced = records[: len(records) - len(traced)]
        values = tracer.layer_metrics()
        values["trace.overhead_ratio"] = (len(traced) / traced_op_time) / (len(untraced) / op_time)
        values["checks.ops_failed_share"] = 1.0 - ok_share
        values["accuracy.min_digits"] = min(prefix_digits)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        tail_pct = None
        tracer.write(
            ROOT / ".benchrun" / f"trace-{args.workload}-seed{args.seed}.json.gz",
            {"workload": args.workload, "seed": args.seed, "ledger": dict(ledger), "metrics": values},
        )
    else:
        values, tail_pct = latency_metrics(records, op_time)
        values.update(
            setup_s=setup_s,
            accuracy_digits=statistics.fmean(prefix_digits),
            ops_ok_share=ok_share,
            peak_rss_mb=peak_rss_mb,
        )
        units = {
            "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
            "accuracy_digits": "digits", "ops_ok_share": "ratio", "peak_rss_mb": "MB",
        }
    info = {
        "workload": args.workload, "seed": args.seed, "ops": attempted,
        "periods": attempted // len(workload.PERIOD), "op_tail_percentile": tail_pct,
        "failure_ledger": dict(sorted(ledger.items())),
    }
    print("# " + json.dumps(info, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
