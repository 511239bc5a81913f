"""Command line front end: compute, contour and oracle on JSON system files.

A system file looks like

    {
      "name": "heated rod",
      "n": 2,
      "delays": [0.5, 1.0],
      "A0": [[...], [...]],
      "A": [[[...], [...]], [[...], [...]]],
      "weights": [1.0, "inf", 2.0],
      "epsilon": 0.1
    }

delays lists tau_1..tau_m (the zero delay is implicit), A lists the m
delayed matrices, weights has m+1 entries ("inf" marks an unperturbed
matrix).  Exit codes: 0 success, 1 bad input or solver failure, 2 when no
correction start converges.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .corrector import AllStartsFailedError, correct, gn_tolerance
from .model import PerturbationSpec, TimeDelaySystem
from .numerics import DelayPsaError
from .oracle import (
    EmptyPseudospectrumError,
    GridRegion,
    RegionTooSmallError,
    contours,
    grid_psa,
)
from .pipeline import compute_psa
from .predictor import predict


def _reject_constant(token):
    raise ValueError(f"non-finite JSON literal {token!r} is not allowed")


def _as_number(value, label):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{label} must be a number, got {value!r}")


def _as_weight(value):
    return math.inf if value == "inf" else _as_number(value, 'weight (or "inf")')


def _as_matrix(value, n, label):
    a = np.asarray(value)
    if a.dtype.kind not in "iuf":  # not booleans, strings or nulls
        raise ValueError(f"{label} must be a matrix of numbers")
    if a.shape != (n, n):
        raise ValueError(f"{label} must be {n}x{n}, got shape {a.shape}")
    if any(isinstance(x, bool) for row in value for x in row):  # read as 0/1
        raise ValueError(f"{label} must be a matrix of numbers")
    return a.astype(float)


def load_system_file(path):
    """Parse a JSON system file into (name, TimeDelaySystem, PerturbationSpec).

    Raises ValueError on a missing or wrongly typed field.
    """
    with open(path) as fh:
        raw = json.load(fh, parse_constant=_reject_constant)
    if not isinstance(raw, dict):
        raise ValueError("system file must hold a JSON object")
    missing = {"n", "delays", "A0", "A", "weights", "epsilon"} - raw.keys()
    if missing:
        raise ValueError(f"system file is missing fields: {sorted(missing)}")
    for key in ("delays", "A", "weights"):
        if not isinstance(raw[key], list):
            raise ValueError(f"{key} must be a list, got {raw[key]!r}")
    n = raw["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be a positive integer")
    delays = [_as_number(t, "delay") for t in raw["delays"]]
    mats = [_as_matrix(raw["A0"], n, "A0")]
    if len(raw["A"]) != len(delays):
        raise ValueError(
            f"A lists {len(raw['A'])} matrices for {len(delays)} delays"
        )
    for k, a in enumerate(raw["A"]):
        mats.append(_as_matrix(a, n, f"A[{k}]"))
    weights = [_as_weight(w) for w in raw["weights"]]
    system = TimeDelaySystem((0.0, *delays), tuple(mats))
    pert = PerturbationSpec(tuple(weights), _as_number(raw["epsilon"], "epsilon"))
    return str(raw.get("name", "unnamed")), system, pert


def _write(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args):  # the system file, with --epsilon applied
    name, system, pert = load_system_file(args.system)
    if args.epsilon is not None:
        pert = PerturbationSpec(pert.weights, args.epsilon)
    return name, system, pert


def _region_from_args(args):
    return GridRegion(args.re_min, args.re_max, args.im_min, args.im_max,
                      args.n_re, args.n_im)


def cmd_compute(args):
    name, system, pert = _load(args)
    t0 = time.perf_counter()
    try:
        result = compute_psa(system, pert, N=args.N, tol=args.tol,
                             gn_tol=args.gn_tol)
    except AllStartsFailedError as exc:
        record = {"name": name, "error": str(exc),
                  "N": args.N, "tol": args.tol}
        _write(json.dumps(record, indent=2) + "\n", args.output)
        return 2
    elapsed = time.perf_counter() - t0
    record = {
        "name": name,
        "alpha_eps": result.alpha_eps,
        "omega_eps": result.omega_eps,
        "alpha_pred": result.prediction.alpha_pred,
        "frequencies": list(result.prediction.frequencies),
        "spectral_abscissa": result.prediction.shift_used,
        "N": args.N,
        "tol": args.tol,
        "epsilon": pert.epsilon,
        "iterations": {
            "bisection": result.prediction.iterations,
            "gauss_newton": [s.iterations for s in result.correction.per_start],
        },
        "warnings": list(result.warnings),
        "wall_time_seconds": elapsed,
    }
    _write(json.dumps(record, indent=2) + "\n", args.output)
    return 0


def cmd_contour(args):
    name, system, pert = _load(args)
    region = _region_from_args(args)
    # the solver checks --gn-tol, --N and --tol before the contours run
    gn_tol = gn_tolerance(args.gn_tol)
    prediction = predict(system, pert, N=args.N, tol=args.tol)
    try:
        correction = correct(system, pert, prediction, gn_tol=gn_tol)
        answer = [f"# alpha_pred={prediction.alpha_pred!r}",
                  f"# alpha_eps={correction.alpha_eps!r}",
                  f"# omega_eps={correction.omega_eps!r}"]
    except AllStartsFailedError as exc:
        answer = [f"# alpha_eps_error={exc}"]
    curves = contours(system, pert, region)
    lines = [
        f"# name={name}",
        f"# level={curves.level!r}",
        f"# epsilon={pert.epsilon!r}",
        f"# re_min={region.re_min!r} re_max={region.re_max!r}",
        f"# im_min={region.im_min!r} im_max={region.im_max!r}",
        f"# n_re={region.n_re} n_im={region.n_im}",
        f"# spectral_abscissa={prediction.shift_used!r}",
        *answer,
    ]
    for root in prediction.roots:
        lines.append(f"# root={float(root.real)!r},{float(root.imag)!r}")
    lines.append("polyline_id,re,im")
    for pid, poly in enumerate(curves.polylines):
        for z in poly:
            lines.append(f"{pid},{float(z.real)!r},{float(z.imag)!r}")
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_oracle(args):
    name, system, pert = _load(args)
    region = _region_from_args(args)
    gn_tol = gn_tolerance(args.gn_tol) if args.compare else None
    result = grid_psa(system, pert, region, refine_iters=args.refine)
    record = {
        "name": name,
        "alpha_eps_grid": result.value,
        "resolution": result.resolution,
        "location": [result.location.real, result.location.imag],
        "epsilon": pert.epsilon,
    }
    if args.compare:
        psa = compute_psa(system, pert, N=args.N, tol=args.tol, gn_tol=gn_tol)
        record["alpha_eps"] = psa.alpha_eps
        record["gap"] = abs(psa.alpha_eps - result.value)
    _write(json.dumps(record, indent=2) + "\n", args.output)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="delay-psa",
        description="Pseudospectral abscissa of retarded time-delay systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("system", help="path to a JSON system file")
        p.add_argument("--N", type=int, default=15,
                       help="mesh order of the discretization (default 15)")
        p.add_argument("--tol", type=float, default=1e-3,
                       help="predictor bracket width (default 1e-3)")
        p.add_argument("--epsilon", type=float, default=None,
                       help="override the file's perturbation size")
        p.add_argument("--gn-tol", type=float, default=None, dest="gn_tol",
                       help="Gauss-Newton residual tolerance (default 1e-10, scaled)")
        p.add_argument("--output", default=None,
                       help="write the result here instead of stdout")

    def region(p):
        p.add_argument("--re-min", type=float, required=True)
        p.add_argument("--re-max", type=float, required=True)
        p.add_argument("--im-min", type=float, required=True)
        p.add_argument("--im-max", type=float, required=True)
        p.add_argument("--n-re", type=int, default=201)
        p.add_argument("--n-im", type=int, default=201)

    p = sub.add_parser("compute", help="predict and correct the abscissa")
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("contour", help="export boundary polylines for plotting")
    common(p)
    region(p)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("oracle", help="brute-force grid abscissa")
    common(p)
    region(p)
    p.add_argument("--refine", type=int, default=3,
                   help="local refinement rounds, 10x each (default 3)")
    p.add_argument("--compare", action="store_true",
                   help="also run the fast path and report the gap")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AllStartsFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegionTooSmallError as exc:
        print(f"error: {exc} (grow --re-max past the level set)", file=sys.stderr)
        return 1
    except EmptyPseudospectrumError as exc:
        print(f"error: {exc} (check the region against the spectral abscissa)",
              file=sys.stderr)
        return 1
    except (DelayPsaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
