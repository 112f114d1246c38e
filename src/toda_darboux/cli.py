"""Command line front end for batch experiments and reproducible fixtures.

Every run is driven by one seed.  Results are strict one-line JSON with
sorted keys (``python -m json.tool`` indents them), so identical configs
give byte-identical files apart from the timestamp; a NaN or infinite
value fails the run with a ValueError.  Trajectories are CSV.  Exit code
0 means every residual report in the run passed its tolerance.  Module
errors surface as a one-line JSON object on stdout and a nonzero exit.

Set TODA_DARBOUX_LOG=DEBUG (or INFO, ...) for progress logging on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .banded import graded_scale, random_hessenberg, residual, to_json_dict
from .darboux import (
    DarbouxFactors,
    PeelBreakdown,
    SamplingFailed,
    assemble_transform,
    darboux_factorization,
    factors_to_table,
)
from .lattice import (
    BlowUp,
    _entry_table,
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


def _check_tolerance(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class RunConfig:
    p: int
    n: int
    C: complex
    seed: int
    dt: float
    steps: int
    mode: str
    tol_verify: float
    out: str
    scale: float

    def __post_init__(self):
        if self.p < 1 or self.n <= self.p:
            raise ValueError(f"need n > p >= 1, got p={self.p} n={self.n}")
        for name in ("dt", "C", "scale"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0 or self.steps < 0:
            raise ValueError("dt must be positive and steps nonnegative")
        _check_tolerance("tol_verify", self.tol_verify)

    def as_dict(self) -> dict:
        """Every field but the output path, with C as [re, im]."""
        config = asdict(self)
        del config["out"]
        return {**config, "C": [self.C.real, self.C.imag]}


def _instance(cfg: RunConfig):
    return graded_scale(random_hessenberg(cfg.p, cfg.n, seed=cfg.seed, mode=cfg.mode), cfg.scale)


def _emit(payload: dict, cfg: RunConfig, reports=()) -> int:
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = _dumps(payload) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        for r in reports:
            print(r.line())
        log.info("wrote %s", cfg.out)
    else:
        for r in reports:
            log.info("%s", r.line())
        sys.stdout.write(text)
    return 0 if all(r.passed for r in reports) else 1


def _factorize(cfg: RunConfig):
    J = _instance(cfg)
    factors = darboux_factorization(J, cfg.C, rng=np.random.default_rng(cfg.seed))[0]
    return J, factors, factors_to_table(factors)


def cmd_factorize(cfg: RunConfig, args) -> int:
    J, factors, table = _factorize(cfg)
    log.info("factorized p=%d n=%d into %d lower factors", cfg.p, cfg.n, len(factors.factors))
    # both relative to max|J|, which is at least 1
    jmax = np.abs(J.data).max()
    rt = residual(assemble_transform(factors, 0), J) / jmax
    # the j = 0 closed form of the n-column table gives all n rows of J
    uniq = residual(reconstruct_transform(table, 0, factors.C), J) / jmax
    reports = [
        _report("factorization round trip", rt, ("product vs J", 0), cfg.tol_verify),
        _report("table cross-construction", uniq, ("gamma table", 0), cfg.tol_verify),
    ]
    payload = {
        "config": cfg.as_dict(),
        "factors": factors.to_json_dict(),
        "table": table.to_json_dict(),
        "reports": [asdict(r) for r in reports],
    }
    return _emit(payload, cfg, reports)


def cmd_transform(cfg: RunConfig, args) -> int:
    if args.factors:
        with open(args.factors) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and isinstance(data.get("factors"), dict):
            data = data["factors"]
        factors = DarbouxFactors.from_json_dict(data)
    else:
        factors = _factorize(cfg)[1]
    i = args.i
    Ji = assemble_transform(factors, i)
    closed = reconstruct_transform(factors_to_table(factors), i, factors.C)
    # relative to max|J^(i)|; hypot is Python's abs(complex) bit for bit, where
    # np.abs may round differently; max propagates NaN, so a NaN entry fails
    diff = np.stack(Ji.bands) - np.stack(closed.bands)
    scale = np.max(np.hypot(Ji.data.real, Ji.data.imag))
    worst = float(np.max(np.hypot(diff.real, diff.imag), initial=0.0) / scale)
    label = f"transform {i} product vs closed form"
    reports = [_report(label, worst, (f"rows 0..{Ji.n - 1}", 0), cfg.tol_verify)]
    payload = {
        "config": cfg.as_dict(),
        "i": i,
        "matrix": to_json_dict(Ji),
        "reports": [asdict(r) for r in reports],
    }
    return _emit(payload, cfg, reports)


def cmd_evolve(cfg: RunConfig, args) -> int:
    if args.lattice == "toda":
        traj = evolve_toda(_instance(cfg), cfg.C, cfg.dt, cfg.steps)
    else:
        traj = evolve_kdv(_factorize(cfg)[2], cfg.dt, cfg.steps)
    ids, samples = _entry_table(traj)
    heads = [f",{eid}," for eid in ids]
    with open(cfg.out, "w") as fh:
        fh.write("t,entry_id,re,im\n")
        for t, values in zip(map(repr, traj.times.tolist()), samples):
            if np.isrealobj(values):  # a float64 entry's imaginary part reads 0.0
                rows = [f"{t}{h}{re!r},0.0\n" for h, re in zip(heads, values.tolist())]
            else:
                rows = zip(heads, values.real.tolist(), values.imag.tolist())
                rows = [f"{t}{h}{re!r},{im!r}\n" for h, re, im in rows]
            fh.write("".join(rows))
    config = cfg.as_dict()
    manifest = {k: config[k] for k in ("dt", "steps", "p", "n", "C", "seed")}
    with open(cfg.out + ".manifest.json", "w") as fh:
        fh.write(_dumps(manifest) + "\n")
    log.info("wrote %s (%d samples)", cfg.out, len(traj))
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    _check_tolerance("tol_path", args.tol_path)
    J = _instance(cfg)
    reports_map = theorem1_diagram(
        J,
        cfg.C,
        rng=np.random.default_rng(cfg.seed),
        dt=cfg.dt,
        steps=cfg.steps,
        tol_path=args.tol_path,
        tol_verify=cfg.tol_verify,
    )
    reports = [reports_map[k] for k in sorted(reports_map)]
    payload = {
        "config": cfg.as_dict(),
        "reports": {k: asdict(r) for k, r in reports_map.items()},
    }
    return _emit(payload, cfg, reports)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=1, help="number of subdiagonals")
    common.add_argument("--n", type=int, default=8, help="truncation size")
    common.add_argument("--C-re", type=float, default=0.0, help="shift, real part")
    common.add_argument("--C-im", type=float, default=0.0, help="shift, imaginary part")
    common.add_argument("--seed", type=int, default=1, help="seed for all randomness")
    common.add_argument("--dt", type=float, default=1e-3, help="integration step")
    common.add_argument("--steps", type=int, default=100, help="integration steps")
    common.add_argument("--mode", choices=("real", "complex"), default="real")
    common.add_argument("--tol-verify", type=float, default=1e-5,
                        help="tolerance for residual reports")
    common.add_argument("--out", default=None, help="output path (JSON, or CSV for evolve)")

    parser = argparse.ArgumentParser(
        prog="toda-darboux",
        description="Darboux factorizations, Backlund transformations, and lattice flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --scale is declared per subcommand: parents= shares Action objects, so
    # a set_defaults(scale=...) on one subcommand would change every default

    f = sub.add_parser("factorize", parents=[common], help="factor a seeded instance")
    f.add_argument("--scale", type=float, default=1.0, help="graded scaling of the instance")
    f.set_defaults(func=cmd_factorize)

    t = sub.add_parser("transform", parents=[common], help="assemble one transformed matrix")
    t.add_argument("--i", type=int, required=True, help="transform index, 0..p")
    t.add_argument("--factors", default=None, help="JSON file with factors (from factorize)")
    t.add_argument("--scale", type=float, default=1.0, help="graded scaling of the instance")
    t.set_defaults(func=cmd_transform)

    e = sub.add_parser("evolve", parents=[common], help="integrate a lattice, write CSV")
    e.add_argument("--lattice", choices=("toda", "kdv"), default="toda")
    e.add_argument("--scale", type=float, default=0.15, help="graded scaling of the instance")
    e.set_defaults(func=cmd_evolve)

    v = sub.add_parser("verify", parents=[common], help="run the commuting-diagram checks")
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
        given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name != "C"}
        cfg = RunConfig(C=complex(args.C_re, args.C_im), **given)
        return args.func(cfg, args)
    except _MODULE_ERRORS as exc:
        log.debug("command failed", exc_info=True)
        print(_dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
