"""Command-line front end.

Three subcommands:

    spectrum   tabulate derived parameters and energy levels over a grid
    eval       tabulate radial wavefunctions as CSV (rho, re, im, abs2)
    verify     run named verification checks over a grid and emit a report

Grid flags take comma-separated lists (--dims, --l, --omega0, --g0);
--n-max bounds the radial quantum number. A JSON config file mirroring the
flag names can seed any option; explicit flags override it. Tolerances are
overridden per check with --tol-<check-id> VALUE.

Exit codes: 0 all checks passed (or tables emitted), 1 verification
failures, 2 configuration/validation errors. Grid points outside the valid
parameter regime are reported as skipped, never crash the run. The
environment variable REL_SINGOSC_THREADS caps worker parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import checks as checks_mod
from .checks import CHECKS, default_grid_points, run_global, run_point
from .oscillator import (
    RHO_SAMPLES,
    InvalidParametersError,
    ModelParams,
    derive_params,
    energy,
    nonrel_energy,
    radial_wavefunction,
)
from .report import build_report

__all__ = ["main", "RunConfig", "cmd_spectrum", "cmd_eval", "cmd_verify"]

THREADS_ENV = "REL_SINGOSC_THREADS"

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Effective run configuration (defaults = the standard verification grid)."""

    dims: tuple = tuple(checks_mod.DEFAULT_GRID["dims"])
    l: tuple = tuple(checks_mod.DEFAULT_GRID["l"])
    n_max: int = checks_mod.DEFAULT_GRID["n_max"]
    omega0: tuple = tuple(checks_mod.DEFAULT_GRID["omega0"])
    g0: tuple = tuple(checks_mod.DEFAULT_GRID["g0"])
    checks: tuple = tuple(sorted(CHECKS))
    tolerances: dict = field(default_factory=dict)
    rho_samples: tuple = RHO_SAMPLES
    grid: tuple = (1e-8, 30.0, 600)  # rho grid for eval: start:stop:count
    format: str = "text"
    out: str | None = None

    def echo(self) -> dict:
        return {
            "dims": list(self.dims),
            "l": list(self.l),
            "n_max": self.n_max,
            "omega0": list(self.omega0),
            "g0": list(self.g0),
            "checks": list(self.checks),
            "tolerances": dict(self.tolerances),
            "rho_samples": list(self.rho_samples),
            "format": self.format,
        }


def _parse_list(value, kind):
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        return tuple(kind(v) for v in items if v != "")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"expected comma-separated {kind.__name__} values, "
                          f"got {value!r}") from exc


def _parse_grid_spec(value):
    if isinstance(value, (list, tuple)) and len(value) == 3:
        start, stop, count = value
    else:
        parts = str(value).split(":")
        if len(parts) != 3:
            raise ConfigError(f"--grid expects start:stop:count, got {value!r}")
        start, stop, count = parts
    try:
        start, stop, count = float(start), float(stop), int(count)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"--grid expects numbers start:stop:count, got {value!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"rho grid bounds must be finite, got {value!r}")
    if not (stop > start and count >= 2):
        raise ConfigError(f"degenerate rho grid {value!r}")
    return (start, stop, count)


def _extract_tol_overrides(argv):
    """Pull --tol-<check_id> VALUE (or =VALUE) pairs out of the raw argv."""
    rest, tols = [], {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol-"):
            if "=" in arg:
                key, val = arg[len("--tol-"):].split("=", 1)
            else:
                key = arg[len("--tol-"):]
                i += 1
                if i >= len(argv):
                    raise ConfigError(f"missing value for {arg}")
                val = argv[i]
            if key not in CHECKS:
                raise ConfigError(f"unknown check id in tolerance override: {key}")
            try:
                tols[key] = float(val)
            except ValueError as exc:
                raise ConfigError(f"bad tolerance for {key}: {val!r}") from exc
        else:
            rest.append(arg)
        i += 1
    return rest, tols


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _build_config(args, tol_overrides) -> RunConfig:
    cfg = RunConfig()
    file_data = _load_config_file(args.config) if args.config else {}

    # config-file keys mirror the flag names (dashes or underscores)
    def file_get(*names):
        for name in names:
            if name in file_data:
                return file_data[name]
        return None

    def pick(flag_value, *file_names):
        return flag_value if flag_value is not None else file_get(*file_names)

    v = pick(args.dims, "dims")
    if v is not None:
        cfg.dims = _parse_list(v, int)
    v = pick(args.l, "l")
    if v is not None:
        cfg.l = _parse_list(v, int)
    v = pick(args.n_max, "n-max", "n_max")
    if v is not None:
        cfg.n_max = int(v)
    v = pick(args.omega0, "omega0")
    if v is not None:
        cfg.omega0 = _parse_list(v, float)
    v = pick(args.g0, "g0")
    if v is not None:
        cfg.g0 = _parse_list(v, float)
    v = pick(getattr(args, "checks", None), "checks")
    if v is not None:
        ids = _parse_list(v, str)
        unknown = [c for c in ids if c not in CHECKS]
        if unknown:
            raise ConfigError(f"unknown check ids: {', '.join(unknown)}")
        cfg.checks = ids
    v = pick(getattr(args, "rho", None), "rho", "rho-samples", "rho_samples")
    if v is not None:
        cfg.rho_samples = _parse_list(v, float)
    v = pick(getattr(args, "grid", None), "grid")
    if v is not None:
        cfg.grid = _parse_grid_spec(v)
    v = pick(getattr(args, "format", None), "format")
    if v is not None:
        if v not in ("text", "json", "csv"):
            raise ConfigError(f"unknown format {v!r}")
        cfg.format = v
    v = pick(args.out, "out")
    if v is not None:
        cfg.out = str(v)

    for key, val in file_data.items():
        if key.startswith("tol-"):
            cid = key[len("tol-"):]
            if cid not in CHECKS:
                raise ConfigError(f"unknown check id in config tolerance: {cid}")
            cfg.tolerances[cid] = float(val)
    cfg.tolerances.update(tol_overrides)

    if cfg.n_max < 0:
        raise ConfigError("n-max must be non-negative")
    return cfg


def _thread_count() -> int:
    cap = os.environ.get(THREADS_ENV)
    n = os.cpu_count() or 1
    if cap is not None:
        try:
            n = max(1, min(n, int(cap)))
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {cap!r}") from exc
    return n


def _grid_points(cfg: RunConfig):
    return default_grid_points({
        "dims": cfg.dims, "l": cfg.l, "omega0": cfg.omega0, "g0": cfg.g0,
    })


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

_SPECTRUM_COLS = ("N", "l", "n", "omega0", "g0", "alpha", "nu", "s",
                  "energy", "excitation", "nonrel_limit")


def cmd_spectrum(cfg: RunConfig) -> int:
    rows, skipped = [], []
    for (N, l, om0, g0) in _grid_points(cfg):
        try:
            p = ModelParams(N=N, l=l, omega0=om0, g0=g0)
            d = derive_params(p)
        except InvalidParametersError as exc:
            skipped.append((N, l, om0, g0, str(exc)))
            continue
        for n in range(cfg.n_max + 1):
            e = energy(n, d, om0)
            rows.append({
                "N": N, "l": l, "n": n, "omega0": om0, "g0": g0,
                "alpha": d.alpha, "nu": d.nu, "s": d.s,
                "energy": e, "excitation": (e - 1.0) / om0,
                "nonrel_limit": nonrel_energy(n, d.L, g0),
            })

    if cfg.format == "json":
        _emit(json.dumps({"rows": rows, "skipped": [
            {"N": s[0], "l": s[1], "omega0": s[2], "g0": s[3], "reason": s[4]}
            for s in skipped]}, indent=2) + "\n", cfg.out)
    elif cfg.format == "csv":
        lines = [",".join(_SPECTRUM_COLS)]
        for r in rows:
            lines.append(",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c])
                                  for c in _SPECTRUM_COLS))
        _emit("\n".join(lines) + "\n", cfg.out)
        for s in skipped:
            print(f"# skipped N={s[0]} l={s[1]} omega0={s[2]} g0={s[3]}: {s[4]}",
                  file=sys.stderr)
    else:
        head = (f"{'N':>3} {'l':>3} {'n':>3} {'omega0':>8} {'g0':>6} "
                f"{'alpha':>12} {'nu':>12} {'s':>12} {'E/mc^2':>14} "
                f"{'(E-1)/w0':>12} {'nonrel':>12}")
        lines = [head]
        for r in rows:
            lines.append(
                f"{r['N']:>3} {r['l']:>3} {r['n']:>3} {r['omega0']:>8g} {r['g0']:>6g} "
                f"{r['alpha']:>12.6f} {r['nu']:>12.6f} {r['s']:>12.6f} "
                f"{r['energy']:>14.8f} {r['excitation']:>12.6f} {r['nonrel_limit']:>12.6f}"
            )
        for s in skipped:
            lines.append(f"# skipped N={s[0]} l={s[1]} omega0={s[2]:g} g0={s[3]:g}: {s[4]}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if rows else EXIT_CONFIG


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def _eval_csv(state, rho):
    vals = np.asarray(state.fn(rho))
    lines = ["rho,re,im,abs2"]
    for r, v in zip(rho, vals):
        lines.append(f"{float(r)!r},{float(v.real)!r},{float(v.imag)!r},"
                     f"{float(abs(v) ** 2)!r}")
    return "\n".join(lines) + "\n"


def cmd_eval(cfg: RunConfig) -> int:
    start, stop, count = cfg.grid
    rho = np.linspace(start, stop, count)
    blocks = []
    for (N, l, om0, g0) in _grid_points(cfg):
        for n in range(cfg.n_max + 1):
            try:
                p = ModelParams(N=N, l=l, omega0=om0, g0=g0)
                state = radial_wavefunction(p, n)
            except InvalidParametersError as exc:
                print(f"# skipped N={N} l={l} omega0={om0} g0={g0}: {exc}", file=sys.stderr)
                break  # same reason for every higher n at this point
            blocks.append((f"N{N}_l{l}_n{n}_w{om0:g}_g{g0:g}", _eval_csv(state, rho)))
    if not blocks:
        print("error: no valid states to evaluate", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.out:
        if len(blocks) == 1:
            _emit(blocks[0][1], cfg.out)
        else:
            base, dot, ext = cfg.out.rpartition(".")
            if not dot:
                base, ext = cfg.out, "csv"
            for tag, text in blocks:
                _emit(text, f"{base}.{tag}.{ext}")
    else:
        for tag, text in blocks:
            if len(blocks) > 1:
                sys.stdout.write(f"# {tag}\n")
            sys.stdout.write(text)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig) -> int:
    points = _grid_points(cfg)
    outcomes = []
    workers = _thread_count()
    if workers > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for res in pool.map(
                lambda pt: run_point(pt, cfg.checks, cfg.tolerances,
                                     cfg.n_max, cfg.rho_samples),
                points,
            ):
                outcomes.extend(res)
    else:
        for pt in points:
            outcomes.extend(run_point(pt, cfg.checks, cfg.tolerances,
                                      cfg.n_max, cfg.rho_samples))
    outcomes.extend(run_global(cfg.checks, cfg.tolerances))

    report = build_report(outcomes, cfg.echo())
    _emit(report.render(cfg.format), cfg.out)
    if cfg.out:
        s = report.summary
        print(f"summary: total={s['total']} passed={s['passed']} "
              f"failed={s['failed']} skipped={s['skipped']} -> {cfg.out}")
    return EXIT_OK if report.all_passed else EXIT_FAILURES


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--dims", help="comma-separated list of spatial dimensions N")
    sub.add_argument("--l", help="comma-separated orbital quantum numbers")
    sub.add_argument("--n-max", dest="n_max", type=int, help="largest radial quantum number")
    sub.add_argument("--omega0", help="comma-separated oscillator strengths")
    sub.add_argument("--g0", help="comma-separated inverse-square couplings")
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument("--config", help="JSON config file mirroring the flags")


def _parser():
    ap = argparse.ArgumentParser(
        prog="relsingosc",
        description="Relativistic singular-oscillator model: spectra, wavefunctions, "
                    "and numerical verification of the model identities.",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="tabulate derived parameters and energies")
    _add_common(sp)
    sp.add_argument("--format", choices=("text", "json", "csv"))

    ev = subs.add_parser("eval", help="tabulate radial wavefunction values as CSV")
    _add_common(ev)
    ev.add_argument("--grid", help="rho grid as start:stop:count")

    vf = subs.add_parser("verify", help="run verification checks and report")
    _add_common(vf)
    vf.add_argument("--format", choices=("text", "json", "csv"))
    vf.add_argument("--checks", help="comma-separated check ids (default: all)")
    vf.add_argument("--rho", help="comma-separated residual sample points")
    vf.add_argument("--list-checks", action="store_true",
                    help="list available check ids and exit")
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, tol_overrides = _extract_tol_overrides(argv)
        args = _parser().parse_args(argv)
        if getattr(args, "list_checks", False):
            for cid, cdef in sorted(CHECKS.items()):
                print(f"{cid:<36} [{cdef.scope}] default tol {cdef.default_tol:g}  "
                      f"{cdef.description}")
            return EXIT_OK
        cfg = _build_config(args, tol_overrides)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
