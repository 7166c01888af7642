"""The closed loop and the statistics computed from its op latencies.

The 2-vCPU host this benchmark was tuned on switches between a fast state and
a state about 1.4x slower, for seconds at a time and, in some periods, for
minutes. Each op's time is therefore scaled by calibration passes timed in
the process that ran it (see calibrate.py), and every end-to-end op metric
is computed from scaled times; unscaled figures are recorded beside them.

Means over the run vary least between runs (a median over all ops lands in
whichever state held longest). So the throughput is correct ops per second
of (scaled) time spent in ops, and the typical latency is the median over
inputs of each input's mean latency; the all-op median is recorded beside it.

Medians, like the tail percentile, are nearest-rank (the lower middle value).
paper_sweeps splits into 38 cheap inputs (diagonal qsc and bitflip states)
and 38 dearer ones, and the midpoint of the two middle values swung with the
gap between the groups.
"""

import statistics
import time

import calibrate

# Candidate tail percentiles, in tenths of a percent, highest first. A coarse
# ladder keeps the chosen percentile fixed while a run's op count drifts: at
# 20 s a run makes 70-100 cli ops (p75, p90 from 100) and 200-5,000 ops on the
# other workloads (p90). Between seeds, p95 of classical_tables (ten samples
# beyond) varied by 53% and p99 of paper_sweeps by 17%.
TAIL_LADDER = (900, 750, 500)
TAIL_BEYOND = 10


def tail_percentile(latencies):
    """(percentile, value, samples beyond) for the highest ladder percentile
    that leaves at least TAIL_BEYOND samples above it. Below the ladder, the
    sample with exactly TAIL_BEYOND above it; the maximum if there are fewer."""
    xs = sorted(latencies)
    n = len(xs)
    for tenths in TAIL_LADDER:
        rank = -(-tenths * n // 1000)  # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return tenths / 10, xs[rank - 1], n - rank
    if n > TAIL_BEYOND:
        return 100 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1], TAIL_BEYOND
    return 100.0, xs[-1], 0


def run_loop(workload, seconds, tracer=None, first_op=0):
    """Closed loop over whole passes of the inputs until ``seconds`` have passed.

    Op i runs input i % workload.n. Each output is checked against the
    reference as soon as its op is timed, and then dropped, so memory does not
    grow with the op count. For in-process workloads a calibration pass runs
    before the first op and after every op, outside the op's time; a child
    process times its own passes. Returns (op id, latency s, failure or None,
    scale) per op, where latency * scale is host-speed independent.
    """
    ops = []
    i = first_op
    before = calibrate.seconds() if workload.in_process else None
    start = time.perf_counter()
    while True:
        for _ in range(workload.n):
            out = None
            t0 = time.perf_counter()
            try:
                out = workload.op(i) if tracer is None else workload.traced_op(tracer, i, i)
            except Exception as exc:  # an op that raises is a failed op
                latency = time.perf_counter() - t0
                problem = f"raised {type(exc).__name__}: {exc}"
            else:
                latency = time.perf_counter() - t0
                problem = workload.check(i, out)
            scale = 1.0
            if before is not None:
                after = calibrate.seconds()
                scale = calibrate.REFERENCE_S / (0.5 * (before + after))
                before = after
            elif out is not None:
                latency, scale = calibrate.child_time(latency, workload.child_passes(out))
            ops.append((i, latency, problem, scale))
            i += 1
        if time.perf_counter() - start >= seconds:
            return ops


def failures(ops):
    """Failure message by op id."""
    return {i: problem for i, _, problem, _ in ops if problem}


def scaled(ops):
    """Each op's latency in host-speed independent seconds."""
    return [latency * scale for _, latency, _, scale in ops]


def raw(ops):
    """Each op's latency in wall-clock seconds."""
    return [latency for _, latency, _, _ in ops]


def mean_latencies(ops, n):
    """Each input's mean scaled latency over its repetitions in the run."""
    by_input = {}
    for (i, *_), latency in zip(ops, scaled(ops)):
        by_input.setdefault(i % n, []).append(latency)
    return [statistics.fmean(v) for v in by_input.values()]


def op_rate(ops, times=scaled):
    """Correct ops completed per second of (by default scaled) time spent in ops.

    The reference checks and calibration passes between ops are left out.
    """
    return (len(ops) - len(failures(ops))) / sum(times(ops))


def end_to_end(ops, n, setup_s, rss_mb):
    """The end-to-end metrics of an untraced run, and the figures behind them."""
    latencies = scaled(ops)
    failed = len(failures(ops))
    pct, tail, beyond = tail_percentile(latencies)
    metrics = {
        "ops_per_s": {"value": op_rate(ops), "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median_low(mean_latencies(ops, n)) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    details = {
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(latencies),
        "inputs": n,
        "all_ops_p50_ms": statistics.median_low(latencies) * 1e3,
        "mean_scale": statistics.fmean(scale for *_, scale in ops),
        "unscaled_ops_per_s": op_rate(ops, raw),
        "unscaled_all_ops_p50_ms": statistics.median_low(raw(ops)) * 1e3,
        "failed_frac": failed / len(ops),
    }
    return metrics, details
