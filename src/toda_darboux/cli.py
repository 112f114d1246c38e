"""Command line front end for batch experiments and reproducible fixtures.

Every run is driven by one seed; outputs are JSON (sorted keys, so
identical configs produce byte-identical files apart from the timestamp
field) and CSV for trajectories.  Exit code 0 means every residual
report in the run passed its tolerance.  Module errors surface as a
one-line machine-readable JSON object on stdout and a nonzero exit.

Set TODA_DARBOUX_LOG=DEBUG (or INFO, ...) for progress logging on
stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .banded import (
    ShapeError,
    graded_scale,
    random_hessenberg,
    residual,
    to_json_dict,
)
from .darboux import (
    DarbouxFactors,
    PeelBreakdown,
    SamplingFailed,
    TableBreakdown,
    assemble_transform,
    darboux_factorization,
    factors_to_table,
)
from .lattice import (
    BlowUp,
    InsufficientSamples,
    ResidualReport,
    _entry_table,
    evolve_kdv,
    evolve_toda,
    reconstruct_transform,
    theorem1_diagram,
)
from .lu import SingularLeadingMinor

log = logging.getLogger("toda_darboux.cli")

_MODULE_ERRORS = (
    ShapeError,
    SingularLeadingMinor,
    SamplingFailed,
    PeelBreakdown,
    TableBreakdown,
    BlowUp,
    InsufficientSamples,
    ValueError,
    KeyError,
    OSError,
    json.JSONDecodeError,
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
    mode: str = "real"
    tol_pivot: float = None
    tol_margin: float = 1e-9
    tol_verify: float = 1e-5
    out: str = None
    scale: float = 1.0

    def __post_init__(self):
        if self.p < 1 or self.n <= self.p:
            raise ValueError(f"need n > p >= 1, got p={self.p} n={self.n}")
        if self.mode not in ("real", "complex"):
            raise ValueError(f"mode must be real or complex, got {self.mode!r}")
        for name in ("dt", "C", "scale"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0 or self.steps < 0:
            raise ValueError("dt must be positive and steps nonnegative")
        for name in ("tol_pivot", "tol_margin", "tol_verify"):
            if getattr(self, name) is not None:
                _check_tolerance(name, getattr(self, name))

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "C": [self.C.real, self.C.imag],
            "seed": self.seed,
            "dt": self.dt,
            "steps": self.steps,
            "mode": self.mode,
            "tol_pivot": self.tol_pivot,
            "tol_margin": self.tol_margin,
            "tol_verify": self.tol_verify,
            "scale": self.scale,
        }


def _instance(cfg: RunConfig):
    J = random_hessenberg(cfg.p, cfg.n, seed=cfg.seed, mode=cfg.mode)
    if cfg.scale != 1.0:
        J = graded_scale(J, cfg.scale)
    return J


def _report_dict(r: ResidualReport) -> dict:
    return {
        "label": r.label,
        "max_residual": r.max_residual,
        "argmax": list(r.argmax),
        "tolerance": r.tolerance,
        "passed": r.passed,
    }


def _emit(payload: dict, cfg: RunConfig, reports=()) -> int:
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
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
    factors, table = darboux_factorization(
        J,
        cfg.C,
        rng=np.random.default_rng(cfg.seed),
        tol_pivot=cfg.tol_pivot,
        tol_margin=cfg.tol_margin,
        mode=cfg.mode,
    )
    return J, factors, table


def cmd_factorize(cfg: RunConfig, args) -> int:
    J, factors, table = _factorize(cfg)
    log.info("factorized p=%d n=%d into %d lower factors", cfg.p, cfg.n, len(factors.factors))
    product, window = assemble_transform(factors, 0)
    rt = residual(product, J, window)
    cross = factors_to_table(factors)
    uniq = float(np.abs(cross.values - table.values).max())
    reports = [
        ResidualReport("factorization round trip", rt, ("product vs J", 0), cfg.tol_verify, rt <= cfg.tol_verify),
        ResidualReport("table cross-construction", uniq, ("gamma table", 0), cfg.tol_verify, uniq <= cfg.tol_verify),
    ]
    rows = [
        [[v.real, v.imag] for v in table.row(r)] for r in range(cfg.p + 1)
    ]
    payload = {
        "config": cfg.as_dict(),
        "factors": factors.to_json_dict(),
        "table": table.to_json_dict(),
        "gamma_rows": rows,
        "reports": [_report_dict(r) for r in reports],
    }
    return _emit(payload, cfg, reports)


def cmd_transform(cfg: RunConfig, args) -> int:
    if args.factors:
        with open(args.factors) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and isinstance(data.get("factors"), dict):
            data = data["factors"]
        factors = DarbouxFactors.from_json_dict(data)
        table = factors_to_table(factors)
        p = len(factors.factors)
    else:
        _, factors, table = _factorize(cfg)
        p = cfg.p
    i = args.i
    if not 0 <= i <= p:
        raise ValueError(f"transform index {i} outside 0..{p}")
    Ji, window = assemble_transform(factors, i)
    wcmp = min(window.rows, table.columns)
    closed = reconstruct_transform(table, i, factors.C, rows=wcmp)
    # hypot is Python's abs(complex) bit for bit, where np.abs may round
    # differently; max propagates NaN, so a NaN entry fails
    diff = np.stack(Ji.bands)[:, :wcmp] - np.stack(closed.bands)
    worst = float(np.max(np.hypot(diff.real, diff.imag), initial=0.0))
    reports = [
        ResidualReport(
            f"transform {i} product vs closed form",
            worst,
            (f"rows 0..{wcmp - 1}", 0),
            cfg.tol_verify,
            worst <= cfg.tol_verify,
        )
    ]
    payload = {
        "config": cfg.as_dict(),
        "i": i,
        "matrix": to_json_dict(Ji),
        "window": wcmp,
        "reports": [_report_dict(r) for r in reports],
    }
    return _emit(payload, cfg, reports)


def cmd_evolve(cfg: RunConfig, args) -> int:
    J = _instance(cfg)
    if args.lattice == "toda":
        traj = evolve_toda(J, cfg.C, cfg.dt, cfg.steps)
    else:
        _factors, table = darboux_factorization(
            J, cfg.C, rng=np.random.default_rng(cfg.seed),
            tol_pivot=cfg.tol_pivot, tol_margin=cfg.tol_margin, mode=cfg.mode,
        )
        traj = evolve_kdv(table, cfg.dt, cfg.steps)
    ids, samples = _entry_table(traj)
    lines = ["t,entry_id,re,im\n"]
    for t, values in zip(traj.times.tolist(), samples):
        t = repr(t)
        rows = zip(ids, values.real.tolist(), values.imag.tolist())
        lines.append("".join([f"{t},{eid},{re!r},{im!r}\n" for eid, re, im in rows]))
    text = "".join(lines)
    manifest = {
        "dt": cfg.dt,
        "steps": cfg.steps,
        "p": cfg.p,
        "n": cfg.n,
        "C": [cfg.C.real, cfg.C.imag],
        "seed": cfg.seed,
    }
    with open(cfg.out, "w") as fh:
        fh.write(text)
    with open(cfg.out + ".manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
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
        "reports": {k: _report_dict(r) for k, r in reports_map.items()},
    }
    return _emit(payload, cfg, reports)


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
    common.add_argument("--tol-pivot", type=float, default=None,
                        help="pivot breakdown threshold (default: scale-aware)")
    common.add_argument("--tol-margin", type=float, default=1e-9,
                        help="smallest accepted row cancellation ratio of a sampled peel")
    common.add_argument("--tol-verify", type=float, default=1e-5,
                        help="tolerance for residual reports")
    common.add_argument("--out", default=None, help="output path (JSON, or CSV for evolve)")

    parser = argparse.ArgumentParser(
        prog="toda-darboux",
        description="Darboux factorizations, Backlund transformations, and lattice flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
        cfg = RunConfig(
            p=args.p,
            n=args.n,
            C=complex(args.C_re, args.C_im),
            seed=args.seed,
            dt=args.dt,
            steps=args.steps,
            mode=args.mode,
            tol_pivot=args.tol_pivot,
            tol_margin=args.tol_margin,
            tol_verify=args.tol_verify,
            out=args.out,
            scale=args.scale,
        )
        return args.func(cfg, args)
    except _MODULE_ERRORS as exc:
        log.debug("command failed", exc_info=True)
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
