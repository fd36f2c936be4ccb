"""Command-line front end.

Three subcommands:

    spectrum   tabulate derived parameters and energy levels over a grid
    eval       tabulate radial wavefunctions as CSV (rho, re, im, abs2)
    verify     run named verification checks over a grid and emit a report

Grid flags take comma-separated lists (--dims, --l, --omega0, --g0);
--n-max bounds the radial quantum number. `verify` overrides a check's
tolerance with --tol-<check-id> VALUE.

Each subcommand's argparse parser is the one table of its options, and it
checks every value. A JSON config file (--config FILE) is read as flags of
the chosen subcommand: each key is a flag name, with `_` read as `-`, and a
list value is joined by commas. The file's flags go before the command
line's, so explicit flags override them. A key the subcommand does not take
exits 2, as its flag would; so does a key that only abbreviates a flag
(flags are never abbreviated, on the command line either) and a `config`
key.

Exit codes: 0 all checks passed (or tables emitted), 1 verification
failures, 2 configuration/validation errors, an --out path that cannot be
written among them. Grid points outside the valid
parameter regime are reported as skipped, never crash the run. `verify`
runs the whole grid in the calling thread, each check once for all valid
points (`checks.run_grid`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
# unused: benchmarks/tracing.py patches it by name, in the tracer benchmarks/test_smoke.py installs
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, fields

import numpy as np

from . import checks as checks_mod
from .checks import CHECKS, default_grid_points, run_global, run_grid
from .oscillator import (
    RHO_SAMPLES,
    InvalidParametersError,
    ModelParams,
    PointStack,
    derive_params,
    energy,
    nonrel_energy,
    radial_basis,
)
from .report import build_report

__all__ = ["main", "RunConfig", "cmd_spectrum", "cmd_eval", "cmd_verify"]

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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _list_of(kind):
    """argparse type: comma-separated `kind` values, empty items skipped; a
    list with no value is rejected (argparse names the flag)."""
    def parse(value):
        try:
            values = tuple(kind(v) for v in value.split(",") if v != "")
        except (ValueError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {value!r}") from exc
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one value, got {value!r}")
        return values
    return parse


def _check_ids(value):
    ids = _list_of(str)(value)
    unknown = [c for c in ids if c not in CHECKS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown check ids: {', '.join(unknown)}")
    return ids


def _non_negative_int(value):
    try:
        n = int(value)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return n


def _grid_spec(value):
    """start:stop:count with finite bounds, stop > start and count >= 2."""
    try:
        start, stop, count = value.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected numbers start:stop:count, got {value!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"rho grid bounds must be finite, got {value!r}")
    if not (stop > start and count >= 2):
        raise argparse.ArgumentTypeError(f"degenerate rho grid {value!r}")
    return (start, stop, count)


class _Tolerance(argparse.Action):
    """--tol-<check_id> VALUE: the tolerance of check `const`, kept in `tolerances`."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.tolerances = {**(namespace.tolerances or {}), self.const: value}


def _config_flags(path) -> list:
    """The JSON config file as flag tokens: key -> --key, with `_` read as
    `-`, and a list value joined by commas."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    if "config" in data:
        raise ConfigError("a config file cannot name another config file (key 'config')")
    return [f"--{key.replace('_', '-')}="
            + (",".join(map(str, val)) if isinstance(val, list) else str(val))
            for key, val in data.items()]


def _grid_points(cfg: RunConfig):
    return default_grid_points({
        "dims": cfg.dims, "l": cfg.l, "omega0": cfg.omega0, "g0": cfg.g0,
    })


def _emit(text: str, out_path: str | None):
    """Write text to out_path, or to stdout without one. A path that cannot
    be written is a configuration error (exit 2), not a failed check."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


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

def _eval_csv(rho, vals):
    lines = ["rho,re,im,abs2"]
    for r, v in zip(rho, vals):
        lines.append(f"{float(r)!r},{float(v.real)!r},{float(v.imag)!r},"
                     f"{float(abs(v) ** 2)!r}")
    return "\n".join(lines) + "\n"


def cmd_eval(cfg: RunConfig) -> int:
    start, stop, count = cfg.grid
    rho = np.linspace(start, stop, count)
    valid = []
    for (N, l, om0, g0) in _grid_points(cfg):
        try:
            p = ModelParams(N=N, l=l, omega0=om0, g0=g0)
            derive_params(p)
        except InvalidParametersError as exc:
            print(f"# skipped N={N} l={l} omega0={om0} g0={g0}: {exc}", file=sys.stderr)
            continue
        valid.append(p)
    blocks = []
    if valid:
        # one read of one stacked basis: values (n, point, rho)
        rows = radial_basis(PointStack(valid), cfg.n_max).fn(
            np.broadcast_to(rho, (len(valid),) + rho.shape))
        for i, p in enumerate(valid):
            blocks.extend((f"N{p.N}_l{p.l}_n{n}_w{p.omega0:g}_g{p.g0:g}", _eval_csv(rho, vals))
                          for n, vals in enumerate(rows[:, i]))
    if not blocks:
        print("error: no valid states to evaluate", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.out:
        if len(blocks) == 1:
            _emit(blocks[0][1], cfg.out)
        else:
            # the extension of the file name only: a dotted directory keeps its dot
            base, ext = os.path.splitext(cfg.out)
            for tag, text in blocks:
                _emit(text, f"{base}.{tag}{ext or '.csv'}")
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
    outcomes = run_grid(_grid_points(cfg), cfg.checks, cfg.tolerances,
                        cfg.n_max, cfg.rho_samples)
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
    sub.add_argument("--dims", type=_list_of(int),
                     help="comma-separated list of spatial dimensions N")
    sub.add_argument("--l", type=_list_of(int), help="comma-separated orbital quantum numbers")
    sub.add_argument("--n-max", type=_non_negative_int, help="largest radial quantum number")
    sub.add_argument("--omega0", type=_list_of(float), help="comma-separated oscillator strengths")
    sub.add_argument("--g0", type=_list_of(float), help="comma-separated inverse-square couplings")
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument("--config", help="JSON file whose keys are this subcommand's flag names")


@functools.cache
def _parser():
    """The parser, built once per process: parsing leaves it unchanged, and
    building it (one --tol-<id> flag per check) costs about a millisecond."""
    ap = _Parser(
        prog="relsingosc",
        allow_abbrev=False,
        description="Relativistic singular-oscillator model: spectra, wavefunctions, "
                    "and numerical verification of the model identities.",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", allow_abbrev=False,
                         help="tabulate derived parameters and energies")
    _add_common(sp)
    sp.add_argument("--format", choices=("text", "json", "csv"))

    ev = subs.add_parser("eval", allow_abbrev=False,
                         help="tabulate radial wavefunction values as CSV")
    _add_common(ev)
    ev.add_argument("--grid", type=_grid_spec, help="rho grid as start:stop:count")

    vf = subs.add_parser("verify", allow_abbrev=False,
                         help="run verification checks and report")
    _add_common(vf)
    vf.add_argument("--format", choices=("text", "json", "csv"))
    vf.add_argument("--checks", type=_check_ids,
                    help="comma-separated check ids (default: all)")
    vf.add_argument("--rho", dest="rho_samples", type=_list_of(float),
                    help="comma-separated residual sample points")
    for cid, cdef in sorted(CHECKS.items()):
        vf.add_argument(f"--tol-{cid}", action=_Tolerance, const=cid, dest="tolerances",
                        type=float, metavar="TOL",
                        help=f"tolerance of {cid} (default {cdef.default_tol:g})")
    vf.add_argument("--list-checks", action="store_true",
                    help="list available check ids and exit")
    return ap


_COMMANDS = {"spectrum": cmd_spectrum, "eval": cmd_eval, "verify": cmd_verify}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ap = _parser()
        args = ap.parse_args(argv)
        if args.config:
            # the file's flags go first, so the command line's win
            try:
                args = ap.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
            except ConfigError as exc:
                raise ConfigError(f"config file {args.config}: {exc}") from exc
        if getattr(args, "list_checks", False):
            for cid, cdef in sorted(CHECKS.items()):
                print(f"{cid:<36} [{cdef.scope}] default tol {cdef.default_tol:g}  "
                      f"{cdef.description}")
            return EXIT_OK
        cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                           if getattr(args, f.name, None) is not None})
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
