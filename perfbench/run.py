"""qeci benchmark: one closed-loop caller, one op in flight, outputs checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see workloads.py): paper_sweeps, random_qudits, classical_tables
and cli. An op is one verdict (one sweep grid point for paper_sweeps) for the
in-process workloads and one CLI process for cli. The loop runs whole passes
over the seeded inputs until S seconds have passed and checks every output,
between ops, against the numpy-only reference in refcheck.py. Op and set-up
times are scaled by calibration passes timed in the process that did the work
(calibrate.py), which takes the host's changing speed out of them.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
passes with passes under span wrappers on qeci's public functions, and
reports the per-layer metrics (spans.PER_LAYER) plus the tracing overhead. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the same figures for a reader, and
.perfbench_out/ receives the full record (machine, input digest, spans).
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads BLAS; children inherit it

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed in fresh processes, half before the timed loop and half
# after it. Each one times calibration passes once set up, and its set-up
# time is scaled by them like an op's (calibrate.py).
SETUP_REPEATS = 3
OUT_DIR = ".perfbench_out"


def measure_setup(args, times, raw_times, digests):
    """Time SETUP_REPEATS fresh processes that only set up; collect their digests."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
        child = json.loads(proc.stdout)
        digests.add(child["inputs_sha256"])
        seconds, scale = calibrate.child_time(wall, child["calibration_s"])
        times.append(seconds * scale)
        raw_times.append(seconds)


def machine_record():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's .git if there is one, read without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args, root):
    outdir = os.path.join(root, OUT_DIR)
    os.makedirs(outdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
    workload.warm_up()
    if args.setup_only:
        print(json.dumps({"inputs_sha256": workload.digest,
                          "calibration_s": calibrate.child_passes()}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": workload.digest,
              "machine": machine_record()}
    setup_times, raw_setup_times, digests = [], [], {workload.digest}
    if args.trace:
        # Untraced and traced passes alternate, so that both see the same
        # host states; the wrappers are off during every untraced pass.
        tracer = spans.Tracer()
        plain, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            plain += measure.run_loop(workload, 0, first_op=len(plain) + len(traced))
            tracer.install()
            try:
                traced += measure.run_loop(workload, 0, tracer, len(plain) + len(traced))
            finally:
                tracer.uninstall()
        ops = plain + traced
        metrics = tracer.per_layer(1.0 - measure.op_rate(traced) / measure.op_rate(plain))
        tracer.write(os.path.join(outdir, f"spans_{args.workload}.jsonl"))
        details = {"traced_ops": len(traced), "untraced_ops": len(plain)}
    else:
        measure_setup(args, setup_times, raw_setup_times, digests)
        ops = measure.run_loop(workload, args.seconds)
        rss_mb = workload.peak_rss_mb()
        measure_setup(args, setup_times, raw_setup_times, digests)
        metrics, details = measure.end_to_end(ops, workload.n, statistics.median(setup_times),
                                              rss_mb)
        details["unscaled_setup_s"] = statistics.median(raw_setup_times)
    identical_inputs = digests == {workload.digest}

    defects = workload.probe_known_defects()
    failures = measure.failures(ops)
    correct = not failures and identical_inputs
    record.update(details=details, identical_inputs=identical_inputs, metrics=metrics,
                  failures={str(k): v for k, v in list(failures.items())[:50]},
                  known_defects=defects)
    with open(os.path.join(outdir, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  inputs_sha256 {workload.digest[:16]}"
          f"  identical across set-ups: {identical_inputs}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    for key, value in details.items():
        print(f"  {key:48s} {value:14.6g}")
    for i, problem in list(failures.items())[:10]:
        print(f"  FAILED op {i}: {problem}")
    if defects:
        failing = [d for d in defects if d["fails"]]
        share = len(failing) / (workload.n + len(defects))
        print(f"  known defects (ROADMAP 4a): {len(failing)} of {len(defects)} still fail;"
              f" {share:.4g} of the {workload.n + len(defects)} cli cases")
        for d in defects:
            print(f"    {d['case']:26s} exit {d['exit']}  "
                  f"{'FAILS: ' + d['problem'] if d['fails'] else 'ok'}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args):
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qeci", "__init__.py")):
        print("perfbench: no qeci source at ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
