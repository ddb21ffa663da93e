"""The three workloads: seeded inputs, one checked pass, per-layer runs.

Import only after ``tracing.install_quad_probe()``: this module imports
fdnoma.

A *pass* evaluates the workload's whole result set once and checks it.
Each pass returns the same exact counts for a given seed; the runner
repeats passes for the measured time and asserts that they repeat.

Checks come in two kinds.  Hard checks are invariants that hold at every
point today (lower bound below exact, probabilities in [0, 1], CLI exit
code 0 with a finite CSV, only ``NumericsError`` raised); one failing
makes the run incorrect.  Soft checks compare a route with an
independent one where the package has known defects (exact against the
oracle deep in the tail, MC against exact).  Both kinds, and every
exception, count as failed operations.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import fdnoma
from fdnoma import analytic, baselines, channel, cli, config, montecarlo, specfun
from fdnoma.sidnr import outage_mask

# Ranges of the acceptance suite's random configuration sampler
# (tests/test_acceptance.py::_sample_config).
USER_SETS = {2: ((0.7, 0.3), (0.9, 1.5)), 3: ((1 / 2, 1 / 3, 1 / 6), (0.9, 1.5, 2.0))}
MU_LEVELS = (0.0, 0.2, 0.5, 1.0)
KAPPA_LEVELS = (0.0, 0.14)
SIGMA_LEVELS = (0.0, 0.03)
SNR_RANGE_DB = (0, 30)

# Exact against oracle: the oracle integrates to rel 1e-9 / abs 1e-13,
# so this leaves it a 1000x margin; 1e-6 is the accuracy the package
# aims for down to the deep tail.
EXACT_ORACLE_RTOL = 1e-6
EXACT_ORACLE_ATOL = 1e-12
MC_SIGMAS = 5.0


def _structure(num_users, tx, rx, m_sr, m_ru, m_li, **fixed):
    coeffs, thr = USER_SETS[num_users]
    return dict(
        num_users=num_users, power_coeffs=coeffs, thresholds=thr,
        tx_antennas=tx, rx_antennas=rx, m_sr=m_sr, m_ru=m_ru, m_li=m_li, **fixed,
    )


IMPAIRMENT_LEVELS = {
    "li_quality_mu": MU_LEVELS,
    "kappa_sr": KAPPA_LEVELS,
    "kappa_ru": KAPPA_LEVELS,
    "sigma_e_sr_sq": SIGMA_LEVELS,
    "sigma_e_ru_sq": SIGMA_LEVELS,
    "sigma_ipsic_sq": SIGMA_LEVELS,
}


def _impairments(*index) -> dict:
    """Impairments by level index, in the order of ``IMPAIRMENT_LEVELS``."""
    return {k: levels[i] for (k, levels), i in zip(IMPAIRMENT_LEVELS.items(), index, strict=True)}


# Seeded draws keep a fixed stratum per slot, drawn from the sampler's
# ranges with the levels of each factor spread evenly over the slots:
# structure (users, antennas, fading shapes), which sets the size of
# the closed form's term table.  On analytic-sweep the seed draws the
# impairments and the loop-interference quality.
#
# On cross-check the stratum also holds the user, the impairments
# (including the loop-interference quality) and an SNR band, which set
# how long the oracle's adaptive quadrature runs; the impairment rows
# form a two-level orthogonal pattern.  Each slot gives two cases, the
# slot's impairments at a seeded SNR in its band and their antithetic
# partner, every level mirrored, at the mirrored SNR.  The oracle's cost
# moves with the impairments by a factor of two and with the SNR within
# a band much less, so the seed draws only the SNRs and the MC seed, and
# every seed costs about the same.  The top band holds the deep tail
# (user 3, every impairment low), where op_exact's known NumericsError
# shows; it stays in on purpose.
ANALYTIC_SLOTS = (
    _structure(2, 1, 3, 2, 2, 1),
    _structure(2, 3, 2, 1, 1, 2),
    _structure(3, 2, 1, 2, 2, 2),
    _structure(3, 1, 2, 1, 1, 1),
)
CROSS_SLOTS = (  # (user, structure, impairments), in the order of their SNR bands
    (2, _structure(2, 1, 1, 1, 1, 1), _impairments(0, 1, 0, 1, 1, 1)),
    (1, _structure(3, 2, 2, 2, 1, 2), _impairments(1, 1, 0, 0, 1, 0)),
    (1, _structure(2, 3, 3, 1, 2, 1), _impairments(2, 0, 1, 0, 1, 1)),
    (3, _structure(3, 1, 2, 2, 2, 2), _impairments(3, 1, 1, 0, 0, 1)),
    (2, _structure(2, 2, 3, 2, 1, 1), _impairments(1, 0, 0, 1, 0, 1)),
    (3, _structure(3, 3, 2, 2, 1, 1), _impairments(0, 0, 0, 0, 0, 0)),
)

ANALYTIC_SNR_DB = (0.0, 20.0, 40.0, 60.0)
MC_SWEEP = "snr_db=0:30:5"
MC_SWEEP_TRIALS = 2 * montecarlo.BLOCK_TRIALS
CROSS_TRIALS = 2 * montecarlo.BLOCK_TRIALS
PARTITIONS = 2


def _draw_impairments(rng) -> dict:
    return {k: float(rng.choice(levels)) for k, levels in IMPAIRMENT_LEVELS.items()}


def _mirror(impairments) -> dict:
    """The antithetic partner of a set of impairments: every level mirrored."""
    out = {}
    for k, v in impairments.items():
        levels = IMPAIRMENT_LEVELS[k]
        out[k] = levels[len(levels) - 1 - levels.index(v)]
    return out


def term_keys(cfg) -> list:
    """Term-table keys ``(k1, k2, L, user, m_li)`` of the closed form."""
    k1 = cfg.m_sr * cfg.tx_antennas
    k2 = cfg.m_ru[0] * cfg.rx_antennas
    return [(k1, k2, cfg.num_users, u, cfg.m_li) for u in range(1, cfg.num_users + 1)]


def clear_caches():
    """Empty every memo cache in fdnoma, so a pass starts cold as a CLI run does."""
    for name, mod in list(sys.modules.items()):
        if name != "fdnoma" and not name.startswith("fdnoma."):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _prob_ok(v) -> bool:
    return v is not None and math.isfinite(v) and 0.0 <= v <= 1.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


@dataclass
class PassResult:
    """Outcome of one pass: counts, failures and an output fingerprint."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    hard: list = field(default_factory=list)
    soft: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    numbers: dict = field(default_factory=dict)  # workload-specific, not counts

    def op(self, span, value):
        """Register the operation a span timed; an exception fails it."""
        return self.cell(span.name, span.point, value, span.error, span.detail)

    def cell(self, name, point, value, error=None, detail=None):
        """Register one operation's output; return its key for checks."""
        self.attempted += 1
        key = len(self.outputs)
        self.outputs.append((name, point, value if error is None else error))
        if error is not None:
            self.failed_ops.add(key)
            kind = self.soft if error == "NumericsError" else self.hard
            kind.append(f"{name} at point {point} raised {error}: {detail}")
        return key

    def check(self, key, ok, hard, message):
        if not ok:
            self.failed_ops.add(key)
            (self.hard if hard else self.soft).append(message)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def _blocks(trials: int) -> int:
    return -(-trials // montecarlo.BLOCK_TRIALS)


def _route_counts(spans) -> dict:
    """Quad calls and NumericsErrors per route over one pass's calls."""
    quad, errors = {}, {}
    for s in spans:
        quad[s.name] = quad.get(s.name, 0) + s.quad
        errors[s.name] = errors.get(s.name, 0) + (s.error == "NumericsError")
    return {"quad_calls": quad, "numerics_errors": errors}


class Workload:
    """Inputs built from a seed, one checked pass, and the traced run's
    layer measurements.  ``scratch`` is a directory the run owns."""

    name = ""
    layer_run_share = 0.0  # of --seconds, kept for layer_run in a traced run

    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch
        self.points: dict = {}  # point description -> id, stable across passes

    def point(self, **desc) -> int:
        return self.points.setdefault(tuple(sorted(desc.items())), len(self.points))

    def describe(self) -> dict:
        raise NotImplementedError

    def run_pass(self, rec) -> PassResult:
        raise NotImplementedError

    def layer_run(self, rec) -> dict:
        """Per-layer measurements made only in the traced run."""
        return {}


# -- analytic-sweep ----------------------------------------------------------

class AnalyticSweep(Workload):
    """Closed form, lower bound and asymptote over an SNR grid up to 60 dB."""

    name = "analytic-sweep"
    layer_run_share = 0.1

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = np.random.default_rng([seed, 1])
        family = [
            fdnoma.default_config(tx_antennas=tx, rx_antennas=rx, m_sr=m, li_quality_mu=mu)
            for tx, rx in ((1, 1), (2, 2), (3, 2))
            for m in (1, 2)
            for mu in (0.0, 0.2, 1.0)
        ]
        seeded = [fdnoma.default_config(**slot, **_draw_impairments(rng)) for slot in ANALYTIC_SLOTS]
        self.configs = family + seeded
        self.n_family = len(family)

    def describe(self):
        return {
            "snr_db": list(ANALYTIC_SNR_DB),
            "configs": [config.config_to_dict(c) for c in self.configs],
            "reference_family": self.n_family,
            "term_keys": [term_keys(c) for c in self.configs],
        }

    def run_pass(self, rec):
        clear_caches()
        res = PassResult()
        spans, exact, cold_keys = [], [], set()
        for ci, cfg in enumerate(self.configs):
            users = range(1, cfg.num_users + 1)
            # once per config and user, as run_sweep does along an SNR sweep
            for u in users:
                rec.point = self.point(config=ci, user=u)
                report, span = rec.call("analytic.op_asymptotic", fdnoma.op_asymptotic, cfg, u)
                spans.append(span)
                key = res.op(span, None if report is None else report.regime)
                if report is not None:
                    ok = all(_prob_ok(report.probability(10 ** (s / 10))) for s in ANALYTIC_SNR_DB)
                    res.check(key, ok, True, f"op_asymptotic config {ci} user {u}: probability outside [0, 1]")
            for snr in ANALYTIC_SNR_DB:
                c = replace(cfg, snr_db=snr)
                for u, tk in zip(users, term_keys(c)):
                    rec.point = self.point(config=ci, snr_db=snr, user=u)
                    ex, s_ex = rec.call("analytic.op_exact", fdnoma.op_exact, c, u)
                    exact.append((s_ex, tk not in cold_keys))
                    cold_keys.add(tk)
                    k_ex = res.op(s_ex, ex)
                    res.check(k_ex, ex is None or _prob_ok(ex), True, f"op_exact {ex!r} at point {rec.point}")
                    lb, s_lb = rec.call("analytic.op_lower_bound", fdnoma.op_lower_bound, c, u)
                    spans += [s_ex, s_lb]
                    k_lb = res.op(s_lb, lb)
                    res.check(k_lb, lb is None or _prob_ok(lb), True,
                              f"op_lower_bound {lb!r} at point {rec.point}")
                    if ex is not None and lb is not None:
                        res.check(k_lb, lb <= ex + cli.ORDER_TOL, True,
                                  f"lower bound {lb:.6e} exceeds exact {ex:.6e} at point {rec.point}")
        rec.point = None
        res.counts = {"ops_attempted": res.attempted, "ops_failed": res.failed, **_route_counts(spans)}
        res.numbers["exact_calls"] = exact
        return res

    def layer_run(self, rec):
        """Time the closed form's building blocks on this workload's points."""
        derive, osf, tail = [], [], []
        for ci, cfg in enumerate(self.configs):
            for snr in ANALYTIC_SNR_DB:
                c = replace(cfg, snr_db=snr)
                rec.point = self.point(config=ci, snr_db=snr)
                dc, span = rec.call("config.derive_constants", config.derive_constants, c)
                derive.append(span.seconds)
                m_ru = c.m_ru[0]
                k1, k2 = c.m_sr * c.tx_antennas, m_ru * c.rx_antennas
                for u in range(1, c.num_users + 1):
                    if not dc.feasible[u - 1]:
                        continue
                    rec.point = self.point(config=ci, snr_db=snr, user=u)
                    dmax = float(dc.demand_peak[u - 1])
                    t2 = float(dc.noise_ru[u - 1])
                    scale2 = float(dc.power_ru_est[0]) / m_ru
                    _, span = rec.call("specfun.ordered_sf", specfun.ordered_sf,
                                       t2 * dc.rhi_amp * dmax, u, c.num_users, k2, scale2)
                    osf.append(span.seconds)
                    # arguments as the closed form builds them for this point
                    beta = 1.0 / scale2
                    alpha1 = c.m_sr / dc.power_sr_est
                    rho = c.m_li / dc.power_li
                    cc = t2 * dc.rhi_amp * dmax
                    uu = cc + t2 / dc.snr_lin
                    q = dc.rhi_amp * dc.noise_sr * dmax * alpha1 * uu
                    g_d = dc.snr_lin * dc.rhi_amp * dc.sr_derate * dmax * alpha1
                    shift = g_d * uu / (g_d + rho)
                    for p, s1, mm in ((c.m_li, 0, c.m_li),
                                      (c.m_li + k1 + k2 - 2, c.num_users - 1, c.m_li + k1 - 1)):
                        _, span = rec.call("analytic.tail_weight_integral", analytic.tail_weight_integral,
                                           p, beta * (s1 + 1), q, shift, mm)
                        tail.append(span.seconds)
        rec.point = None
        return {
            "config.derive_constants.us_p50": _median(derive) * 1e6,
            "specfun.ordered_sf.us_p50": _median(osf) * 1e6,
            "analytic.tail_weight_integral.us_p50": _median(tail) * 1e6,
        }


# -- cross-check -------------------------------------------------------------

class CrossCheck(Workload):
    """All four routes on config strata at seeded SNRs over 0-30 dB, one user each."""

    name = "cross-check"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = np.random.default_rng([seed, 2])
        lo, hi = SNR_RANGE_DB
        n = len(CROSS_SLOTS)
        self.cases = []
        for j, (user, slot, imp) in enumerate(CROSS_SLOTS):
            # SNR band j of n equal bands over the sampler's integer range
            b0 = lo + (hi - lo + 1) * j // n
            b1 = lo + (hi - lo + 1) * (j + 1) // n
            snr = int(rng.integers(b0, b1))
            for imp_k, snr_k in ((imp, snr), (_mirror(imp), b0 + b1 - 1 - snr)):
                cfg = fdnoma.default_config(**slot, **imp_k, snr_db=float(snr_k))
                self.cases.append((cfg, user))
        self.mc_seed = int(rng.integers(0, 2 ** 63))

    def describe(self):
        return {
            "configs": [config.config_to_dict(c) for c, _ in self.cases],
            "users": [u for _, u in self.cases],
            "term_keys": [term_keys(c)[u - 1] for c, u in self.cases],
            "mc_trials": CROSS_TRIALS,
            "mc_seed": self.mc_seed,
            "partitions": PARTITIONS,
        }

    def run_pass(self, rec):
        clear_caches()
        res = PassResult()
        spans, rel_errs = [], []
        for j, (cfg, u) in enumerate(self.cases):
            rec.point = self.point(case=j, user=u)
            ex, s_ex = rec.call("analytic.op_exact", fdnoma.op_exact, cfg, u)
            orc, s_or = rec.call("analytic.op_oracle_2d", fdnoma.op_oracle_2d, cfg, u)
            lb, s_lb = rec.call("analytic.op_lower_bound", fdnoma.op_lower_bound, cfg, u)
            mc, s_mc = rec.call("montecarlo.estimate", fdnoma.estimate, cfg, u, CROSS_TRIALS,
                                self.mc_seed, PARTITIONS)
            spans += [s_ex, s_or, s_lb, s_mc]
            k_ex, k_or, k_lb = res.op(s_ex, ex), res.op(s_or, orc), res.op(s_lb, lb)
            k_mc = res.op(s_mc, None if mc is None else mc.op_value)
            for key, v, what in ((k_ex, ex, "exact"), (k_or, orc, "oracle"), (k_lb, lb, "lb")):
                res.check(key, v is None or _prob_ok(v), True, f"{what} {v!r} at case {j}")
            if ex is not None and lb is not None:
                res.check(k_lb, lb <= ex + cli.ORDER_TOL, True,
                          f"lower bound {lb:.6e} exceeds exact {ex:.6e} at case {j}")
            if ex is not None and orc is not None:
                err = abs(ex - orc)
                if orc > 0:
                    rel_errs.append(err / orc)
                res.check(k_ex, err <= EXACT_ORACLE_RTOL * orc + EXACT_ORACLE_ATOL, False,
                          f"exact {ex:.9e} vs oracle {orc:.9e} at case {j} (rel {err / max(orc, 1e-300):.2e})")
            # MC against the exact p (the oracle's when exact raised), judged
            # by count so that zero-event points are judged too
            p = ex if ex is not None else orc
            if mc is not None and p is not None:
                n = mc.trials
                k = round(mc.op_value * n)
                ok = abs(k - n * p) <= MC_SIGMAS * math.sqrt(n * p * (1.0 - p))
                res.check(k_mc, ok, False, f"MC {k}/{n} vs p={p:.6e} at case {j}")
        rec.point = None
        mc_spans = [s for s in spans if s.name == "montecarlo.estimate" and s.error is None]
        res.counts = {
            "ops_attempted": res.attempted,
            "ops_failed": res.failed,
            **_route_counts(spans),
            "mc_trials": CROSS_TRIALS * len(mc_spans),
            "mc_blocks": _blocks(CROSS_TRIALS) * len(mc_spans),
        }
        res.numbers["exact_calls"] = [(s, None) for s in spans if s.name == "analytic.op_exact"]
        res.numbers["oracle_calls"] = [(s, None) for s in spans if s.name == "analytic.op_oracle_2d"]
        res.numbers["mc_seconds"] = sum(s.seconds for s in mc_spans)
        res.numbers["rel_err_max"] = max(rel_errs, default=0.0)
        return res


# -- mc-sweep ----------------------------------------------------------------

class McSweep(Workload):
    """One in-process CLI sweep with the Monte Carlo methods and the bound."""

    name = "mc-sweep"
    layer_run_share = 0.4
    methods = ("mc", "hd", "oma", "lb")

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.cfg = fdnoma.default_config(tx_antennas=2, rx_antennas=2)
        self.mc_seed = int(np.random.default_rng([seed, 3]).integers(0, 2 ** 63))
        self.config_path = scratch / "config.json"
        self.csv_path = scratch / "sweep.csv"
        self.config_path.write_text(json.dumps(config.config_to_dict(self.cfg)))
        var, rng = MC_SWEEP.split("=")
        start, stop, step = (float(v) for v in rng.split(":"))
        self.spec = cli.SweepSpec(
            variable=var, start=start, stop=stop, step=step, methods=self.methods,
            users=tuple(range(1, self.cfg.num_users + 1)), trials=MC_SWEEP_TRIALS,
            seed=self.mc_seed, partitions=PARTITIONS,
        )
        self.argv = [
            "--config", str(self.config_path), "--sweep", MC_SWEEP,
            "--methods", ",".join(self.methods), "--trials", str(MC_SWEEP_TRIALS),
            "--seed", str(self.mc_seed), "--partitions", str(PARTITIONS),
            "--out", str(self.csv_path),
        ]

    def describe(self):
        return {
            "configs": [config.config_to_dict(self.cfg)],
            "term_keys": [term_keys(self.cfg)],
            "argv": ["fdnoma"] + [Path(a).name if a.startswith(str(self.scratch)) else a for a in self.argv],
        }

    @staticmethod
    def _main(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            return exc.code

    def run_pass(self, rec):
        clear_caches()
        res = PassResult()
        if self.csv_path.exists():
            self.csv_path.unlink()
        rec.point = self.point(sweep=MC_SWEEP)
        code, span = rec.call("cli.main", self._main, self.argv)
        rec.point = None
        grid = self.spec.grid()
        users = self.spec.users
        csv_bytes, rows = b"", []
        if span.error is None and code == 0 and self.csv_path.exists():
            csv_bytes = self.csv_path.read_bytes()
            body = [ln for ln in csv_bytes.decode().splitlines() if not ln.startswith("#")]
            rows = [{k: _parse_cell(v) for k, v in row.items()}
                    for row in csv.DictReader(io.StringIO("\n".join(body)))]
        # every (point, user, method) value is one operation of the sweep
        for i in range(len(grid)):
            row = rows[i] if i < len(rows) else {}
            for u in users:
                for m in self.methods:
                    v = row.get(f"user{u}_{m}")
                    key = res.cell(f"cli.{m}", i, v)
                    res.check(key, _prob_ok(v), True, f"CSV cell user{u}_{m} at row {i} is {v!r}")
        finite = len(rows) == len(grid) and all(v is not None for row in rows for v in row.values())
        res.check(0, span.error is None and code == 0 and finite, True,
                  f"fdnoma exited with {code!r} ({span.error}), {len(rows)} rows, all cells finite: {finite}")
        res.outputs.append(("csv", None, csv_bytes))
        runs = len(grid) * 3  # the mc, hd and oma engines at every point
        res.counts = {
            "ops_attempted": res.attempted,
            "ops_failed": res.failed,
            "mc_trials": runs * MC_SWEEP_TRIALS,
            "mc_blocks": runs * _blocks(MC_SWEEP_TRIALS),
            "csv_bytes": len(csv_bytes),
            **_route_counts([span]),
        }
        res.numbers["mc_seconds"] = span.seconds
        return res

    def layer_run(self, rec):
        """Split the sweep's cost: draws vs masks per block, thread scaling,
        the two baseline engines, and run_sweep against the same calls made
        one after another."""
        users = self.spec.users
        points = [replace(self.cfg, snr_db=float(s)) for s in self.spec.grid()]
        draw_ns, mask_ns, draw_bytes = [], [], []
        for i, cfg in enumerate(points):
            rec.point = self.point(snr_db=cfg.snr_db, stage="blocks")
            dc = config.derive_constants(cfg)
            for b in range(_blocks(MC_SWEEP_TRIALS)):
                size = min(montecarlo.BLOCK_TRIALS, MC_SWEEP_TRIALS - b * montecarlo.BLOCK_TRIALS)
                rng, _ = rec.call("channel.seeded_stream", channel.seeded_stream, self.mc_seed, b)
                draws, span = rec.call("channel.draw_batch", channel.draw_batch, dc, rng, size)
                draw_ns.append(span.seconds * 1e9 / size)
                draw_bytes.append(sum(np.asarray(a).nbytes for a in draws) / size)
                for u in users:
                    _, span = rec.call("sidnr.outage_mask", outage_mask, *draws, dc, u)
                    mask_ns.append(span.seconds * 1e9 / size)

        def timed(name, fn, make_args):
            total = 0.0
            for cfg in points:
                rec.point = self.point(snr_db=cfg.snr_db, stage=name)
                _, span = rec.call(name, fn, *make_args(cfg))
                total += span.seconds
            return total

        trials = MC_SWEEP_TRIALS * len(points)

        def mc_args(partitions):
            return lambda cfg: (cfg, MC_SWEEP_TRIALS, self.mc_seed, partitions, users)

        def baseline_args(mode):
            return lambda cfg: (baselines.BaselineConfig(base=cfg, mode=mode),
                                MC_SWEEP_TRIALS, self.mc_seed, PARTITIONS, users)

        t_p1 = timed("montecarlo.estimate_all_users", montecarlo.estimate_all_users, mc_args(1))
        t_p2 = timed("montecarlo.estimate_all_users", montecarlo.estimate_all_users, mc_args(PARTITIONS))
        t_hd = timed("baselines.hd_outage_all", baselines.hd_outage_all, baseline_args("hd_noma"))
        t_oma = timed("baselines.oma_outage_all", baselines.oma_outage_all, baseline_args("fd_oma"))
        t_lb = 0.0
        for u in users:
            t_lb += timed("analytic.op_lower_bound", analytic.op_lower_bound, lambda cfg: (cfg, u))
        rec.point = self.point(stage="run_sweep")
        _, span = rec.call("cli.run_sweep", cli.run_sweep, self.config_path, self.spec, self.csv_path)
        rec.point = None
        t_sweep = span.seconds
        direct = t_p2 + t_hd + t_oma + t_lb
        return {
            "channel.draw_batch.ns_per_trial": _median(draw_ns),
            "channel.draw_batch.bytes_per_trial": _median(draw_bytes),
            "sidnr.outage_mask.ns_per_trial_user": _median(mask_ns),
            "montecarlo.estimate_all_users.mtrials_per_s_p1": trials / t_p1 / 1e6,
            "montecarlo.estimate_all_users.mtrials_per_s_p2": trials / t_p2 / 1e6,
            "montecarlo.parallel_efficiency": t_p1 / (PARTITIONS * t_p2),
            "baselines.hd_outage_all.mtrials_per_s": trials / t_hd / 1e6,
            "baselines.oma_outage_all.mtrials_per_s": trials / t_oma / 1e6,
            "cli.run_sweep.s": t_sweep,
            "cli.overhead_share": 1.0 - direct / t_sweep,
        }


def _parse_cell(text):
    """A finite float, or None."""
    try:
        v = float(text)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


WORKLOADS = {w.name: w for w in (AnalyticSweep, McSweep, CrossCheck)}
