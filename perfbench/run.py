"""The chi2chaos benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is ``scenarios-mc``, ``exact-grid``, ``highorder-mc`` or ``all``.  One
invocation runs one workload in this process (``all`` runs each workload,
untraced and then traced, in a fresh process of its own).

``--trace 0`` sets the workload up in several fresh processes (``setup_s``),
then runs whole passes over its items, untraced, until ``--seconds`` have
been measured, and prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics.  Every output
is checked by ``gates``; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans
and the full result go to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_env

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("scenarios-mc", "exact-grid", "highorder-mc")
SETUP_PROBES = 7
END_TO_END = {"wall_s": "s", "item_p50_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name == "sym_tensor.elem_ops":
        return "ops-computed"
    if name == "chaos.peak_order":
        return "order"
    if name == "montecarlo.cdf_node_us":
        return "us"
    if name == "trace.overhead_frac":
        return "ratio"
    if name.endswith((".s", "self_s", "cpu_s")):
        return "s"
    return "count"


def digest(output) -> str:
    """Exact fingerprint of an item's output (floats by repr, arrays by bytes)."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, bytes):
            h.update(obj)
        elif hasattr(obj, "tobytes"):
            h.update(obj.tobytes())
        elif isinstance(obj, (list, tuple)):
            for x in obj:
                feed(x)
        elif isinstance(obj, dict):
            for key in sorted(obj):
                h.update(key.encode())
                feed(obj[key])
        else:
            h.update(repr(obj).encode())

    feed(output)
    return h.hexdigest()


def run_pass(items) -> tuple:
    """One call of every item: (seconds per item, output per item).

    An item that raises has the exception as its output."""
    times, outputs = [], []
    for item in items:
        start = time.perf_counter()
        try:
            result = item.call()
        except Exception as exc:  # a raising item is a failed item, not a crash
            times.append(time.perf_counter() - start)
            outputs.append(exc)
            continue
        times.append(time.perf_counter() - start)
        outputs.append(item.output(result))
    return times, outputs


def setup_seconds(workload: str, seed: int) -> list:
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - start)
    return out


def check_items(gates, workload, items, outputs, notes) -> list:
    """Gate each item's output; returns a list of failures per item."""
    found = []
    for item, output in zip(items, outputs):
        if isinstance(output, Exception):
            found.append([gates.Failure("raised", f"{type(output).__name__}: {output}")])
        else:
            found.append(gates.check(workload, item, output, notes))
    return found


def repeat_failures(gates, reference, outputs, what) -> list:
    """Failures for outputs whose digest differs from the reference pass."""
    return [[] if digest(a) == digest(b) else
            [gates.Failure(what, "output differs bitwise from the first pass")]
            for a, b in zip(reference, outputs)]


def provenance(seed: int) -> dict:
    import numpy

    from chi2chaos import montecarlo
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (bench_env.ROOT / ".git").exists():  # a checkout without git has no commit
        try:
            commit = subprocess.run(["git", "-C", str(bench_env.ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in bench_env.THREAD_VARS},
        "nproc": bench_env.nproc(),
        "cpu": cpu,
        "git_commit": commit,
        "generator_id": montecarlo.GENERATOR_ID,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import gates
    import tracing
    import workloads

    out_dir = bench_env.OUT / workload
    setup = [] if trace else setup_seconds(workload, seed)
    items = workloads.WORKLOADS[workload](seed, out_dir)
    notes = []
    if trace:
        cpu_start = time.process_time()
        times, reference = run_pass(items)
        cpu_s = time.process_time() - cpu_start
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_times, traced = run_pass(items)
        finally:
            tracer.uninstall()
        tracer.write(bench_env.OUT / f"trace-{workload}-seed{seed}.jsonl")
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = sum(traced_times) / sum(times) - 1.0
        metrics["process.cpu_s"] = cpu_s
        units = {name: layer_unit(name) for name in metrics}
        per_pass = [check_items(gates, workload, items, reference, notes),
                    repeat_failures(gates, reference, traced, "traced output")]
        pass_times = [times, traced_times]
    else:
        pass_times, repeats = [], []
        start = time.perf_counter()
        while not pass_times or time.perf_counter() - start < seconds:
            times, outputs = run_pass(items)
            if pass_times:
                repeats.append(repeat_failures(gates, reference, outputs,
                                               "repeat pass"))
            else:
                reference = outputs
                # set-up plus one pass: independent of how many passes fit
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            pass_times.append(times)
        per_pass = [check_items(gates, workload, items, reference, notes)] + repeats
        item_times = [t for times in pass_times for t in times]
        metrics = {
            "wall_s": statistics.median(sum(times) for times in pass_times),
            "item_p50_s": statistics.median(item_times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    # the gated output of the first pass stands for every pass that repeats it
    failures = []
    for index, item in enumerate(items):
        first = per_pass[0][index]
        for n, found in enumerate(per_pass):
            for failure in (found[index] + (first if n else [])):
                failures.append((n, item.name, failure))
    failed = {(n, name) for n, name, _ in failures}
    attempted = len(items) * len(per_pass)
    return {
        "workload": workload,
        "correct": all(f.known_defect for _, _, f in failures),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "passes": len(pass_times),
        "items": [item.name for item in items],
        "pass_times": pass_times,
        "setup_times": setup,
        "failures": [{"pass": n, "item": name, "gate": f.gate, "detail": f.detail,
                      "known_defect": f.known_defect} for n, name, f in failures],
        "notes": notes,
        "provenance": provenance(seed),
    }


def report(result: dict) -> None:
    """Human-readable lines; the caller prints the JSON line after them."""
    m = result["metrics"]
    print(f"workload {result['workload']}  seed {result['provenance']['seed']}  "
          f"passes {result['passes']}  items {', '.join(result['items'])}")
    counts = {"wall_s": f"median of {result['passes']} passes",
              "item_p50_s": f"median of {sum(map(len, result['pass_times']))} items",
              "setup_s": f"median of {len(result['setup_times'])} fresh processes",
              "sym_tensor.elem_ops": "computed from symmetrize arguments"}
    for name, entry in m.items():
        extra = f"  ({counts[name]})" if name in counts else ""
        print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}{extra}")
    print(f"  {'failed_fraction':<40} {result['failed'] / result['attempted']:.6g} "
          f"ratio  ({result['failed']} of {result['attempted']} items)")
    for failure in result["failures"]:
        tag = "known defect" if failure["known_defect"] else "FAILED"
        print(f"  {tag}: pass {failure['pass']} {failure['item']} "
              f"[{failure['gate']}] {failure['detail']}")
    for defect in sorted({f["known_defect"] for f in result["failures"]
                          if f["known_defect"]}):
        print(f"  known defect: {defect}")
    for note in result["notes"]:
        print(f"  note: {note}")
    print(f"  provenance: {json.dumps(result['provenance'])}")


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            if proc.returncode:
                return proc.returncode
            last = json.loads(proc.stdout.splitlines()[-1])
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for name, entry in last["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        bench_env.prepare()
    except FileNotFoundError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bench_env.OUT.mkdir(parents=True, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(bench_env.OUT / name, "w") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
