"""Benchmark of the toda-darboux library: one workload per run.

    python3 bench/run.py --workload cli|diagram|flow-large|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the library is imported from ``src/`` next to this
directory and nowhere else.  An untraced run (``--trace 0``) measures
set-up time, then times whole passes over the workload's fixed call list
until about ``--seconds`` seconds after it started, and prints the
end-to-end metrics; a traced run runs each call
untraced and then traced, once, and prints self time and call counts
per library function.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; a human-readable
summary goes to standard error and the full record, with every call's
outcome and the environment, to ``bench/out/``.  The exit code is
nonzero when an output oracle rejects a result or the library cannot be
imported.  ``--workload all`` runs the three workloads one after another,
each in its own process, and prints every metric by name and unit.

See NOTES.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

# One thread per process, decided before numpy loads its BLAS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import refclock  # noqa: E402
import tracer  # noqa: E402

STARTED = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 11
NAMES = ("cli", "diagram", "flow-large")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "toda_steps_per_s": "1/s",
    "kdv_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "verdict_pass_share": "share",
}

TRACED = {
    "banded": ("multiply", "multiply_chain", "residual", "random_hessenberg", "graded_scale"),
    "lu": ("lu_factorize",),
    "darboux": (
        "darboux_factorization", "darboux_factorize", "sample_parameters",
        "hyperplane_determinant", "peel", "table_fill", "factors_to_table",
        "assemble_transform", "backlund_entry",
    ),
    "lattice": (
        "theorem1_diagram", "evolve_toda", "evolve_kdv", "toda_rhs", "kdv_rhs",
        "reconstruct_transform", "verify_toda", "verify_kdv",
    ),
    "cli": ("main",),
}


def import_library():
    """Import toda_darboux from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import toda_darboux
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import toda_darboux from {SRC}: {exc}\n")
        sys.exit(2)
    if SRC not in Path(toda_darboux.__file__).resolve().parents:
        sys.stderr.write(f"bench: toda_darboux resolved outside {SRC}\n")
        sys.exit(2)
    return toda_darboux


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# passes


FLOWS = ("toda", "kdv")


def run_pass(ops, index, records, classify, counters=None):
    """Time each op once; return the pass's seconds, failed calls included.

    Each op runs between two calibration loops, outside its timed region;
    their mean time is recorded as ``cal_s``.  With ``counters`` (a Tracer on
    the evolve functions) each record also gets the RK4 steps and
    nanoseconds of the flows the op completed.
    """
    total = 0.0
    for op in ops:
        cal_before = refclock.calibration_seconds()
        if counters is not None:
            mark = len(counters.spans)
            steps_before = {f: counters.totals[f"lattice.evolve_{f}"] for f in FLOWS}
        t0 = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # every raise is a recorded outcome
            result, error = None, exc
        seconds = time.perf_counter() - t0
        cal_s = (cal_before + refclock.calibration_seconds()) / 2
        total += seconds
        outcome = op.check(result) if error is None else classify(error)
        del result
        op.cleanup()
        rec = {
            "pass": index,
            "op": op.label,
            "seconds": seconds,
            "cal_s": cal_s,
            "status": outcome.status,
            "detail": outcome.detail,
            "reports": [outcome.reports_passed, outcome.reports_total],
            "out_bytes": outcome.out_bytes,
        }
        if counters is not None:
            for f in FLOWS:
                name = f"lattice.evolve_{f}"
                rec[f"{f}_steps"] = counters.totals[name] - steps_before[f]
                rec[f"{f}_ns"] = sum(
                    end - start for _c, _p, n, start, end, err in counters.spans[mark:]
                    if n == name and err is None
                )
        records.append(rec)
    return total


def _steps(traj):
    return len(traj) - 1


def setup_seconds(name, seed):
    """Median over fresh processes of import plus input construction.

    Returns the median in reference seconds and every probe's
    [seconds, reference seconds].
    """
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append([float(x) for x in proc.stdout.split()])
    return median([ref for _raw, ref in probes]), probes


def untraced(ops, deadline, lattice, namespaces, classify):
    """Passes over the call list until the next one would end after
    ``deadline`` (a ``time.perf_counter`` value); at least one pass.

    The evolve functions are counted wherever ``namespaces`` bind them:
    ``cli`` calls them through its own imports.
    """
    records, walls, elapsed = [], [], []
    counters = tracer.Tracer(
        [(lattice, f"evolve_{f}") for f in FLOWS],
        on_return={f"lattice.evolve_{f}": _steps for f in FLOWS},
    )
    with counters.install(namespaces):
        while True:
            start = time.perf_counter()
            walls.append(run_pass(ops, len(walls), records, classify, counters))
            elapsed.append(time.perf_counter() - start)
            if time.perf_counter() + median(elapsed) > deadline:
                break
    metrics = end_to_end(records)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, records, walls


def ref(record, key="seconds"):
    """A recorded time in reference seconds, by its call's calibration."""
    return record[key] * refclock.REF_SECONDS / record["cal_s"]


def end_to_end(records):
    """End-to-end metrics from the call records of an untraced run.

    Every time is first rescaled to reference seconds with the
    calibration loops run around its call (see refclock.py).
    ``wall_s`` is the median over passes of a pass's time, failed calls
    included; ``op_s_p50`` the median over the call list of each call's
    median time.  The step rates divide the steps of the completed evolve
    calls by their median time.
    """
    by_op, by_pass = {}, {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r)
        by_pass.setdefault(r["pass"], []).append(r)
    metrics = {
        "wall_s": median([sum(ref(r, "seconds") for r in recs) for recs in by_pass.values()]),
        "op_s_p50": median([median([ref(r, "seconds") for r in recs]) for recs in by_op.values()]),
    }
    for f in FLOWS:
        steps = sum(recs[0][f"{f}_steps"] for recs in by_op.values())
        seconds = sum(median([ref(r, f"{f}_ns") for r in recs]) for recs in by_op.values()) * 1e-9
        metrics[f"{f}_steps_per_s"] = steps / seconds if seconds else 0.0
    passed = sum(r["reports"][0] for r in records)
    total = sum(r["reports"][1] for r in records)
    metrics["verdict_pass_share"] = passed / total if total else 0.0
    return metrics


def state_bytes(traj):
    """Bytes of the stored states, computed from array sizes."""
    total = 0
    for state in traj.states:
        arrays = getattr(state, "bands", None) or (state.values,)
        total += sum(a.nbytes for a in arrays)
    return total


def traced(ops, toda_darboux, classify, span_path):
    """Per-layer metrics from one traced pass, each call right after its
    untraced twin so that both see the same machine speed."""
    modules = {m: importlib.import_module(f"toda_darboux.{m}") for m in TRACED}
    namespaces = [toda_darboux, *modules.values()]
    targets = [(modules[m], fn) for m, fns in TRACED.items() for fn in fns]
    hooks = {"lattice.evolve_toda": state_bytes, "lattice.evolve_kdv": state_bytes}
    tr = tracer.Tracer(targets, on_return=hooks)
    records, plain, with_trace = [], 0.0, 0.0
    for op in ops:
        plain += run_pass([op], 0, records, classify)
        with tr.install(namespaces):
            with_trace += run_pass([op], 1, records, classify)
    tr.write(span_path)
    per = tracer.self_times(tr.spans)
    metrics = {}
    for m, fns in TRACED.items():
        for fn in fns:
            name = f"{m}.{fn}"
            if name in tr.absent:
                continue
            rec = per.get(name, {"self_s": 0.0, "calls": 0, "errors": {}})
            metrics[f"{name}.self_s"] = (rec["self_s"], "s")
            metrics[f"{name}.calls"] = (rec["calls"], "count")
            if name == "darboux.sample_parameters":
                metrics[f"{name}.failed"] = (sum(rec["errors"].values()), "count")
            if name in hooks:
                metrics[f"{name}.blowups"] = (rec["errors"].get("BlowUp", 0), "count")
                metrics[f"{name}.state_bytes"] = (int(tr.totals[name]), "B-computed")
    if "cli.main" not in tr.absent:
        out_bytes = sum(r["out_bytes"] for r in records if r["pass"] == 1)
        metrics["cli.main.out_bytes"] = (out_bytes, "B")
    overhead = sum(ref(r) for r in records if r["pass"] == 1) - sum(
        ref(r) for r in records if r["pass"] == 0
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, records, tr.absent, [plain, with_trace]


# ---------------------------------------------------------------------------
# entry points


def run_one(args):
    toda_darboux = import_library()
    import workloads
    from toda_darboux import cli, lattice

    classify = workloads.classify_exception

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        ops = workloads.build(args.workload, args.seed, str(scratch))
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "environment": environment(),
        }
        if args.trace:
            metrics, records, absent, walls = traced(ops, toda_darboux, classify, OUT / f"{stem}.spans.jsonl.gz")
            record["absent"] = absent
        else:
            setup, probes = setup_seconds(args.workload, args.seed)
            deadline = STARTED + args.seconds
            values, records, walls = untraced(ops, deadline, lattice, [lattice, cli], classify)
            values["setup_s"] = setup
            record["setup_probes"] = probes
            metrics = {k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
            record["op_samples"] = {"calls": len(ops), "passes": len(walls)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    incorrect = [r for r in records if r["status"] in ("oracle", "crash")]
    result = {
        "correct": not incorrect,
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(pass_seconds=walls, calls=records, result=result)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    outcomes = {}
    for r in records:
        outcomes[r["status"]] = outcomes.get(r["status"], 0) + 1
    sys.stderr.write(f"{args.workload} seed={args.seed} passes={len(walls)} outcomes={outcomes}\n")
    for r in incorrect:
        sys.stderr.write(f"  INCORRECT {r['op']}: {r['status']} {r['detail']}\n")
    for name in record.get("absent", ()):
        sys.stderr.write(f"  absent: {name}\n")
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"  {name} = {value:.6g} {unit}\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in its own process; print each metric by name and unit."""
    status = 0
    print(f"{'workload':<11} {'metric':<44} {'value':>14} unit")
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        if not lines:
            print(f"{name:<11} failed with exit code {proc.returncode}")
            return proc.returncode or 1
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<11} {metric:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<11} {'correct':<44} {str(result['correct']):>14} "
              f"({result['failed']}/{result['attempted']} calls failed)")
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
