"""Command line front end for batch experiments and reproducible fixtures.

Every run is driven by one seed.  Results are strict one-line JSON with
sorted keys (``python -m json.tool`` indents them), so identical configs
give byte-identical files apart from the timestamp; a NaN or infinite
value fails the run with a ValueError.  Trajectories are CSV, formatted
in contiguous chunks of whole samples, one per CPU: forked children
format every chunk but the first into anonymous files, appended in
order, so the bytes are those of a serial run.  The writer stays serial
for small trajectories, while another thread runs, and where the
platform lacks fork, memfd_create or CPU affinity.  Exit code 0 means
every residual report in the run passed its tolerance.  Module errors
surface as a one-line JSON object on stdout and a nonzero exit.

Set TODA_DARBOUX_LOG=DEBUG (or INFO, ...) for progress logging on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import signal
import stat
import sys
import threading
import time
from dataclasses import asdict

import numpy as np

from .banded import _pair, graded_scale, random_hessenberg, residual, to_json_dict
from .darboux import (
    DarbouxFactors,
    PeelBreakdown,
    SamplingFailed,
    _factor,
    assemble_transform,
    factors_to_table,
)
from .lattice import (
    BlowUp,
    _cpus,
    _report,
    evolve_kdv,
    evolve_toda,
    reconstruct_transform,
    theorem1_diagram,
)
from .lu import SingularLeadingMinor

log = logging.getLogger("toda_darboux.cli")
# one line, no indent: json runs its C encoder only when indent is None
_dumps = functools.partial(json.dumps, sort_keys=True, allow_nan=False)

# ValueError covers ShapeError, InsufficientSamples and json.JSONDecodeError
_MODULE_ERRORS = (
    SingularLeadingMinor,
    SamplingFailed,
    PeelBreakdown,
    BlowUp,
    ValueError,
    KeyError,
    OSError,
)


# the options a payload's config records, where its subcommand takes them
_RECORDED = ("p", "n", "seed", "dt", "steps", "mode", "tol_verify", "scale")


def _check(args) -> dict:
    """Reject options the library cannot run, set args.C, and return the recorded config."""
    args.C = complex(args.C_re, args.C_im)
    for name in ("dt", "C", "scale"):
        if name in args and not np.isfinite(getattr(args, name)):
            raise ValueError(f"{name} must be finite, got {getattr(args, name)}")
    if "dt" in args and (args.dt <= 0 or args.steps < 0):
        raise ValueError("dt must be positive and steps nonnegative")
    for name in ("tol_verify", "tol_path"):
        if name in args and not (np.isfinite(getattr(args, name)) and getattr(args, name) > 0):
            raise ValueError(f"{name} must be finite and positive, got {getattr(args, name)}")
    config = {name: value for name, value in vars(args).items() if name in _RECORDED}
    return {**config, "C": [args.C.real, args.C.imag]}


def _instance(args):
    if args.p < 1 or args.n <= args.p:
        raise ValueError(f"need n > p >= 1, got p={args.p} n={args.n}")
    J = random_hessenberg(args.p, args.n, seed=args.seed, mode=args.mode)
    return graded_scale(J, args.scale)


def _emit(payload: dict, out, reports=()) -> int:
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = _dumps(payload) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        for r in reports:
            print(r.line())
        log.info("wrote %s", out)
    else:
        for r in reports:
            log.info("%s", r.line())
        sys.stdout.write(text)
    return 0 if all(r.passed for r in reports) else 1


def _factorize(args):
    J = _instance(args)
    factors = _factor(J, args.C, rng=np.random.default_rng(args.seed))
    return J, factors, factors_to_table(factors)


def cmd_factorize(args) -> int:
    config = _check(args)
    J, factors, table = _factorize(args)
    log.info("factorized p=%d n=%d into %d lower factors", args.p, args.n, len(factors.factors))
    # both relative to max|J|, which is at least 1
    jmax = np.abs(J.data).max()
    rt = residual(assemble_transform(factors, 0), J) / jmax
    # the j = 0 closed form of the n-column table gives all n rows of J
    uniq = residual(reconstruct_transform(table, 0, factors.C), J) / jmax
    reports = [
        _report("factorization round trip", rt, ("product vs J", 0), args.tol_verify),
        _report("table cross-construction", uniq, ("gamma table", 0), args.tol_verify),
    ]
    payload = {"config": config, "factors": factors.to_json_dict(), "table": table.to_json_dict(),
               "reports": [asdict(r) for r in reports]}
    return _emit(payload, args.out, reports)


def cmd_transform(args) -> int:
    config = _check(args)
    if args.factors:
        with open(args.factors) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and isinstance(data.get("factors"), dict):
            data = data["factors"]
        factors = DarbouxFactors.from_json_dict(data)
        # the instance is the loaded one; the instance flags build nothing here
        config = {"p": factors.p, "n": factors.n, "tol_verify": args.tol_verify,
                  "C": _pair(factors.C)}
    else:
        factors = _factorize(args)[1]
    i = args.i
    Ji = assemble_transform(factors, i)
    closed = reconstruct_transform(factors_to_table(factors), i, factors.C)
    # relative to max|J^(i)|; hypot is Python's abs(complex) bit for bit, where
    # np.abs may round differently; max propagates NaN, so a NaN entry fails
    diff = np.stack(Ji.bands) - np.stack(closed.bands)
    scale = np.max(np.hypot(Ji.data.real, Ji.data.imag))
    worst = float(np.max(np.hypot(diff.real, diff.imag), initial=0.0) / scale)
    label = f"transform {i} product vs closed form"
    reports = [_report(label, worst, (f"rows 0..{Ji.n - 1}", 0), args.tol_verify)]
    payload = {"config": config, "i": i, "matrix": to_json_dict(Ji),
               "reports": [asdict(r) for r in reports]}
    return _emit(payload, args.out, reports)


# A fork, with the child's exit and reap, costs about 2.5 ms, and repr about
# 0.65 us per float (2-core x86-64, Python 3.11.7): a worker's share of at
# least this many entries spends twice its fork's cost in repr.
_ENTRIES_PER_WORKER = 8000


def _workers(samples: int, entries: int) -> int:
    """Processes that format the CSV: one per CPU, each with enough entries.

    One, so the caller writes serially, where the platform lacks fork or
    memfd_create, or where another thread runs, because a forked child holds
    only the thread that forked it; lattice._cpus gives one where it lacks
    CPU affinity.
    """
    needed = ("fork", "memfd_create")
    if threading.active_count() > 1 or not all(hasattr(os, name) for name in needed):
        return 1
    return max(1, min(_cpus(), samples * entries // _ENTRIES_PER_WORKER, samples))


def _entry_ids(traj) -> list:
    """The CSV's entry ids of one sample, in row order: band by band, row by row."""
    if traj.kind == "kdv":
        return [f"gamma[{k}]" for k in range(1, traj.data.shape[1] + 1)]
    bands, n = traj.data.shape[1:]
    return [f"a[{i},{i - d}]" for d in range(bands) for i in range(d, n)]


def _write_rows(fh, times: list, samples: np.ndarray, heads: list) -> None:
    """Write the CSV rows of consecutive samples to fh, one write per sample.

    Of a Toda sample's bands (p + 1, n), band d's rows d..n-1 are written.
    """
    stored = ~np.tri(*samples.shape[1:], -1, dtype=bool) if samples.ndim == 3 else ...
    if np.isrealobj(samples):  # a float64 entry's imaginary part reads 0.0
        for t, sample in zip(map(repr, times), samples):
            values = sample[stored].tolist()
            fh.write("".join([f"{t}{h}{re!r},0.0\n" for h, re in zip(heads, values)]))
    else:
        for t, sample in zip(map(repr, times), samples):
            values = sample[stored]
            rows = zip(heads, values.real.tolist(), values.imag.tolist())
            fh.write("".join([f"{t}{h}{re!r},{im!r}\n" for h, re, im in rows]))


def _write_chunk(fd: int, times: list, samples: np.ndarray, heads: list) -> None:
    """In a forked child: write the rows to file fd, then leave through os._exit."""
    code = 1
    try:
        with open(fd, "w", closefd=False) as out:
            _write_rows(out, times, samples, heads)
        code = 0
    except Exception:
        log.exception("CSV chunk of process %d failed", os.getpid())
    finally:
        os._exit(code)


def _write_csv(fh, traj) -> None:
    """Write the trajectory CSV to fh, in chunks of whole samples, one per worker.

    Each chunk after the first is formatted by a forked child into an
    anonymous file while this process writes the first chunk to fh; the
    children's files are then appended in order, so the bytes are those of
    the serial loop.  With one worker the loop runs here alone.
    """
    samples, heads = traj.data, [f",{eid}," for eid in _entry_ids(traj)]
    times = traj.times.tolist()
    workers = _workers(len(samples), len(heads))
    bounds = [len(samples) * k // workers for k in range(workers + 1)]
    fds, pids = [], []  # of chunks 1.., in order; pids holds the children not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            fds.append(os.memfd_create("toda-darboux-csv"))
            pid = os.fork()
            if pid == 0:
                _write_chunk(fds[-1], times[lo:hi], samples[lo:hi], heads)
            pids.append(pid)
        fh.write("t,entry_id,re,im\n")
        _write_rows(fh, times[: bounds[1]], samples[: bounds[1]], heads)
        fh.flush()
        for fd in fds:
            status = os.waitpid(pids[0], 0)[1]
            pid = pids.pop(0)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"CSV writer process {pid} failed with exit code {code}")
            size, sent = os.fstat(fd).st_size, 0
            while sent < size:
                sent += os.sendfile(fh.fileno(), fd, sent, size - sent)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def cmd_evolve(args) -> int:
    config = _check(args)
    if args.lattice == "toda":
        traj = evolve_toda(_instance(args), args.C, args.dt, args.steps)
    else:
        traj = evolve_kdv(_factorize(args)[2], args.dt, args.steps)
    with open(args.out, "w") as fh:
        _write_csv(fh, traj)
    # decided by the path as given, as /dev/stdout links to whatever stdout is:
    # a device, or a link to a file, takes the CSV but no manifest beside it
    if stat.S_ISREG(os.lstat(args.out).st_mode):
        manifest = {k: config[k] for k in ("dt", "steps", "p", "n", "C", "seed")}
        with open(args.out + ".manifest.json", "w") as fh:
            fh.write(_dumps(manifest) + "\n")
    log.info("wrote %s (%d samples)", args.out, len(traj))
    return 0


def cmd_verify(args) -> int:
    config = _check(args)
    rng = np.random.default_rng(args.seed)
    reports_map = theorem1_diagram(_instance(args), args.C, rng=rng, dt=args.dt, steps=args.steps,
                                   tol_path=args.tol_path, tol_verify=args.tol_verify)
    reports = [reports_map[k] for k in sorted(reports_map)]
    payload = {"config": config, "reports": {k: asdict(r) for k, r in reports_map.items()}}
    return _emit(payload, args.out, reports)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # parents: the instance flags every subcommand takes, then the flow and the
    # tolerance flags, each given only to the subcommands that read it
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--p", type=int, default=1, help="number of subdiagonals")
    instance.add_argument("--n", type=int, default=8, help="truncation size")
    instance.add_argument("--C-re", type=float, default=0.0, help="shift, real part")
    instance.add_argument("--C-im", type=float, default=0.0, help="shift, imaginary part")
    instance.add_argument("--seed", type=int, default=1, help="seed for all randomness")
    instance.add_argument("--mode", choices=("real", "complex"), default="real")
    instance.add_argument("--out", default=None, help="output path (JSON, or CSV for evolve)")
    flow = argparse.ArgumentParser(add_help=False)
    flow.add_argument("--dt", type=float, default=1e-3, help="integration step")
    flow.add_argument("--steps", type=int, default=100, help="integration steps")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tol-verify", type=float, default=1e-5,
                           help="tolerance for residual reports")

    parser = argparse.ArgumentParser(
        prog="toda-darboux",
        description="Darboux factorizations, Backlund transformations, and lattice flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --scale is declared per subcommand: parents= shares Action objects, so
    # a set_defaults(scale=...) on one subcommand would change every default

    f = sub.add_parser("factorize", parents=[instance, tolerance], help="factor a seeded instance")
    f.add_argument("--scale", type=float, default=1.0, help="graded scaling of the instance")
    f.set_defaults(func=cmd_factorize)

    t = sub.add_parser("transform", parents=[instance, tolerance],
                       help="assemble one transformed matrix")
    t.add_argument("--i", type=int, required=True, help="transform index, 0..p")
    t.add_argument("--factors", default=None, help="JSON file with factors (from factorize)")
    t.add_argument("--scale", type=float, default=1.0, help="graded scaling of the instance")
    t.set_defaults(func=cmd_transform)

    e = sub.add_parser("evolve", parents=[instance, flow], help="integrate a lattice, write CSV")
    e.add_argument("--lattice", choices=("toda", "kdv"), default="toda")
    e.add_argument("--scale", type=float, default=0.15, help="graded scaling of the instance")
    e.set_defaults(func=cmd_evolve)

    v = sub.add_parser("verify", parents=[instance, flow, tolerance],
                       help="run the commuting-diagram checks")
    v.add_argument("--tol-path", type=float, default=1e-4,
                   help="tolerance for the path comparison")
    v.add_argument("--scale", type=float, default=0.15, help="graded scaling of the instance")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("TODA_DARBOUX_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "evolve" and not args.out:
        parser.error("evolve requires --out for the CSV path")
    try:
        return args.func(args)
    except _MODULE_ERRORS as exc:
        log.debug("command failed", exc_info=True)
        print(_dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
