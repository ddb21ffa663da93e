"""Batch front-end: parameter sweeps to CSV, plus config validation.

A sweep evaluates the requested outage methods over an inclusive grid of
one swept variable and writes one self-describing CSV: a commented
metadata preamble (tool, numpy and scipy versions, the Monte Carlo
stream, config hash, seed), then one row per grid point with one column
per (user, method), Monte Carlo standard error columns and a per-user
feasibility flag.  Re-running the same invocation reproduces the file
byte for byte.

Exit codes: 0 success, 1 configuration or usage error (an ``--out`` that
cannot be written included), 2 numeric failure, 3 invariant violation
(for example a lower bound above the exact value by more than 1e-9
relative; surfaced, never clamped, and no CSV is written).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analytic import NumericsError, _op_asymptotic, _op_exact, _op_lower_bound, _user_view
from .baselines import hd_job, oma_job
from .channel import ERLANG_MAX, SEED_MAX
from .config import ConfigError, SystemConfig, _check_int, config_hash, derive_constants, load_config
from .montecarlo import Job, _estimate

__all__ = ["SweepSpec", "run_sweep", "validate_config", "main"]

SWEEP_VARIABLES = ("snr_db", "mu", "kappa", "d_sr")
METHODS = ("mc", "exact", "lb", "asymp", "hd", "oma")
ORDER_TOL = 1e-6  # absolute lb - exact slack: only bench/workloads.py reads it; _sweep's is relative


class InvariantViolation(RuntimeError):
    """A cross-method consistency check failed on computed results."""


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable, inclusive endpoints, index-based stepping."""

    variable: str
    start: float
    stop: float
    step: float
    methods: tuple[str, ...]
    users: tuple[int, ...]
    trials: int = 100_000
    seed: int = 0
    partitions: int = 1

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep variable must be one of {SWEEP_VARIABLES}")
        if self.step <= 0:
            raise ConfigError("sweep step must be positive")
        if not np.isfinite([self.start, self.stop, self.step, (self.stop - self.start) / self.step]).all():
            raise ConfigError("sweep start, stop, step and point count must be finite")
        if self.start > self.stop:
            raise ConfigError("sweep start must not exceed stop")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        bad = set(self.methods) - set(METHODS)
        if bad:
            raise ConfigError(f"unknown methods: {sorted(bad)}")
        if not self.users:
            raise ConfigError("users must not be empty")
        for name in ("methods", "users"):
            items = getattr(self, name)
            if len(set(items)) != len(items):
                raise ConfigError(f"{name} must not repeat: {list(items)}")
        _check_int("trials", self.trials, 1)
        _check_int("partitions", self.partitions, 1)
        _check_int("seed", self.seed, 0, SEED_MAX)

    def grid(self) -> np.ndarray:
        n = int(np.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return self.start + self.step * np.arange(n)


def _apply_variable(cfg: SystemConfig, variable: str, value: float) -> SystemConfig:
    if variable == "snr_db":
        return replace(cfg, snr_db=float(value))
    if variable == "mu":
        return replace(cfg, li_quality_mu=float(value))
    if variable == "kappa":
        return replace(cfg, kappa_sr=float(value), kappa_ru=float(value))
    # relay placement: the user links make up the remaining distance
    if len(set(cfg.d_ru)) > 1:
        raise ConfigError(f"a d_sr sweep sets every d_ru to 1 - d_sr, but d_ru is per user: {list(cfg.d_ru)}")
    return replace(cfg, d_sr=float(value), d_ru=1.0 - float(value))


def _analytic_cells(dc, spec) -> dict:
    """One grid point's analytic values and feasibility flags, by CSV column,
    from its constants ``dc``; only analytic methods build views (per-user fading has none)."""
    cells = {f"user{u}_feasible": int(dc.feasible[u - 1]) for u in spec.users}
    if not {"exact", "lb", "asymp"} & set(spec.methods):
        return cells
    for u in spec.users:
        view = _user_view(dc, u)
        if "exact" in spec.methods:
            cells[f"user{u}_exact"] = _op_exact(view)
        if "lb" in spec.methods:
            cells[f"user{u}_lb"] = _op_lower_bound(view)
        if "asymp" in spec.methods:
            cells[f"user{u}_asymp"] = _op_asymptotic(view, u).probability(dc.snr_lin)
    return cells


def run_sweep(config_path, spec: SweepSpec, out_path) -> None:
    """Evaluate the sweep and write the CSV artifact, unless a
    cross-method invariant fails (then nothing is written).

    Monte Carlo jobs are built (and validated) first, then the analytic
    cells, so a numeric failure ends the sweep before any Monte Carlo
    time is spent.  One engine call runs every job, drawing each (block,
    column, shape) once for the sweep.
    """
    _sweep(load_config(config_path), spec, out_path)


def _sweep(cfg: SystemConfig, spec: SweepSpec, out_path) -> None:
    """:func:`run_sweep` on a loaded config: ``main`` reads the file once."""
    for u in spec.users:
        _check_int("user", u, 1, cfg.num_users)
    values = spec.grid()
    points = [derive_constants(_apply_variable(cfg, spec.variable, v)) for v in values]
    builders = {
        "mc": lambda dc: Job(dc, spec.users, "mc"),
        "hd": lambda dc: hd_job(dc.cfg, spec.users),
        "oma": lambda dc: oma_job(dc.cfg, spec.users),
    }
    jobs = [(i, builders[m](dc)) for i, dc in enumerate(points) for m in spec.methods if m in builders]

    all_cells = [_analytic_cells(dc, spec) for dc in points]
    if "exact" in spec.methods and "lb" in spec.methods:
        for v, cells in zip(values, all_cells):
            for u in spec.users:
                lb, ex = cells[f"user{u}_lb"], cells[f"user{u}_exact"]
                if lb > ex * (1 + 1e-9) + 1e-300:
                    raise InvariantViolation(
                        f"lower bound {lb:.6e} exceeds exact {ex:.6e} "
                        f"for user {u} at {spec.variable}={v:g}"
                    )

    if jobs:
        results = _estimate([job for _, job in jobs], spec.trials, spec.seed, spec.partitions)
        for (i, _), ests in zip(jobs, results):
            for est in ests:
                all_cells[i][f"user{est.user}_{est.method}"] = est.op_value
                if est.method == "mc":
                    all_cells[i][f"user{est.user}_mc_stderr"] = est.std_error

    meta = {
        "tool": f"fdnoma {__version__}",
        "numpy": np.__version__,  # its SFC64, Gamma sampler and log fix the Monte Carlo draws
        "stream": ("SFC64, SeedSequence(seed, spawn_key=(block, column, shape)); "
                   f"shape k <= {ERLANG_MAX}: -log((1 - U_1)...(1 - U_k)), else standard_gamma"),
        "scipy": scipy.__version__,
        "config_hash": config_hash(cfg),
        "sweep": f"{spec.variable}={spec.start:g}:{spec.stop:g}:{spec.step:g}",
        "methods": ",".join(spec.methods),
        "users": ",".join(str(u) for u in spec.users),
        "trials": str(spec.trials),
        "seed": str(spec.seed),
        "partitions": str(spec.partitions),
    }
    # per user: one column per method (Monte Carlo followed by its
    # standard error), then the feasibility flag
    names = [n for m in spec.methods for n in ((m, "mc_stderr") if m == "mc" else (m,))]
    columns = [f"user{u}_{n}" for u in spec.users for n in (*names, "feasible")]
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append(",".join(["x", *columns]))
    for v, cells in zip(values, all_cells):
        lines.append(",".join([_fmt(float(v)), *(_fmt(cells[c]) for c in columns)]))
    _write_csv(out_path, "\n".join(lines) + "\n")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(path, text: str):
    """Publish ``text`` at ``path`` through a temporary file in the same
    directory and a rename: readers see the old file or the whole new
    one, and a failure leaves the old file and no temporary behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def validate_config(config_path, stream=None) -> int:
    """Check every invariant and echo the derived constants for audit.

    Infeasible users are reported as warnings (their outage is exactly 1,
    which is a legitimate operating point, not a configuration defect).
    """
    stream = sys.stdout if stream is None else stream
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stream)
        return 1
    dc = derive_constants(cfg)
    p = lambda *a: print(*a, file=stream)
    p(f"config ok (hash {config_hash(cfg)})")
    p(f"  snr_db={cfg.snr_db:g}  snr_lin={dc.snr_lin:.6g}")
    p(
        f"  link powers: sr={dc.power_sr:.6g} (est {dc.power_sr_est:.6g})  "
        f"li={dc.power_li:.6g}"
    )
    p(
        "  distortion: rhi_mix=%.6g rhi_amp=%.6g sr_derate=%.6g noise_sr=%.6g"
        % (dc.rhi_mix, dc.rhi_amp, dc.sr_derate, dc.noise_sr)
    )
    p("  user  power  thresh  iui      ipsic    noise_ru  demand       feasible")
    for i in range(cfg.num_users):
        demand = dc.demand[i]
        p(
            f"  {i + 1:4d}  {cfg.power_coeffs[i]:.4f} {cfg.thresholds[i]:6.3f} "
            f"{dc.iui[i]:.6f} {dc.ipsic[i]:.6f} {dc.noise_ru[i]:8.5f} "
            f"{demand:<12.6g} {bool(dc.feasible[i])}"
        )
    infeasible = [i + 1 for i in range(cfg.num_users) if not dc.feasible[i]]
    if infeasible:
        p(f"warning: users {infeasible} are infeasible at this SNR (outage = 1)")
    return 0


def _parse_sweep(text: str):
    try:
        variable, rng = text.split("=", 1)
        start, stop, step = (float(v) for v in rng.split(":"))
    except ValueError as exc:
        raise ConfigError(
            "--sweep expects <var>=<start>:<stop>:<step>, "
            f"got {text!r}"
        ) from exc
    return variable.strip(), start, stop, step


def _parse_csv_list(text, cast, what):
    try:
        return tuple(cast(v.strip()) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} list {text!r}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fdnoma",
        description="Outage-probability sweeps for a dual-hop NOMA "
        "full-duplex relay network.",
    )
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--sweep", help="<var>=<start>:<stop>:<step>")
    parser.add_argument("--methods", default="exact,mc", help="comma list of methods")
    parser.add_argument("--users", default="", help="comma list of user indices (default all)")
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--partitions", type=int, default=1)
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--validate", action="store_true", help="validate config and exit")

    def usage_error(message):
        raise ConfigError(message)

    parser.error = usage_error  # usage errors exit 1, not argparse's 2

    try:
        args = parser.parse_args(argv)
        if args.validate:
            return validate_config(args.config)
        if not args.sweep or not args.out:
            parser.error("--sweep and --out are required unless --validate is given")
        cfg = load_config(args.config)
        users = _parse_csv_list(args.users, int, "user") or tuple(range(1, cfg.num_users + 1))
        variable, start, stop, step = _parse_sweep(args.sweep)
        spec = SweepSpec(
            variable=variable,
            start=start,
            stop=stop,
            step=step,
            methods=_parse_csv_list(args.methods, str, "method"),
            users=users,
            trials=args.trials,
            seed=args.seed,
            partitions=args.partitions,
        )
        try:
            _sweep(cfg, spec, args.out)
        except OSError as exc:  # publishing the CSV failed; no temporary is left
            print(f"output error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
