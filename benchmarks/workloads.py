"""The benchmark's workloads: seeded inputs, one round of polspin calls, and
the checks of every round's outputs against the independent references.

A round is a fixed set of operations made one after another in a single
process (a closed loop). Every round of a run repeats the same inputs,
except that Monte Carlo rounds draw fresh trial seeds, so a run always
attempts whole rounds and its failure share is the same in every run.

polspin is reached through module attributes at call time (config.load_config,
sweep.sweep_rate_vs_loss, ...) so that the tracer's patches take effect. The
mpmath oracle is imported only by the checks, which run after peak memory is
read, so `peak_rss_mb` counts polspin, numpy and the workload loop alone.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Any

import numpy as np

import reference
from polspin import cli, config, device, montecarlo, params, rate, sweep

DESIGN = reference.DESIGN
R_CAV_H = -math.sqrt(DESIGN.r_cav_H)


def _design_problems(cfg: Any) -> list[str]:
    """The config preset must resolve to the design numbers the references
    use; otherwise the references would check a different device."""
    raw = cfg.raw
    want = {
        ("pdr", "T_V"): DESIGN.T_V, ("pdr", "R_H"): DESIGN.R_H,
        ("pdr", "zeta_V"): DESIGN.zeta_V, ("pdr", "zeta_H"): DESIGN.zeta_H,
        ("polarizer", "eta_pol_V"): DESIGN.eta_pol_V,
        ("polarizer", "eta_pol_H"): DESIGN.eta_pol_H,
        ("link", "eta_det"): DESIGN.eta_det,
        ("link", "r_cav_V_avg"): DESIGN.r_cav_V_avg,
        ("link", "r_cav_H"): DESIGN.r_cav_H,
        ("timing", "tau_reset"): DESIGN.tau_reset,
        ("timing", "tau_pulse"): DESIGN.tau_pulse,
    }
    out = [f"config {a}.{b} = {raw[a][b]!r}, design {v!r}"
           for (a, b), v in want.items() if raw[a][b] != v]
    cav = cfg.cavity
    if (cav.kappa_wg / cav.kappa != DESIGN.coupling
            or cav.cooperativity != DESIGN.cooperativity
            or cav.delta_a != 0.0 or cav.delta_c != 0.0):
        out.append(f"config cavity {cav} is not the design cavity")
    if cfg.r_cav_h != complex(R_CAV_H, 0.0) or cfg.link.xi != 1.0 - DESIGN.r_cav_H:
        out.append("config r_cav_h or xi differ from the design")
    return out


def _ref_fidelity(T_V, R_H, coupling, cooperativity):
    return reference.device_fidelity(
        T_V, R_H, coupling, cooperativity, DESIGN.eta_pol_V, DESIGN.eta_pol_H,
        R_CAV_H, DESIGN.zeta_V, DESIGN.zeta_H)


def _compare(label: str, values, ref, problems: list[str]) -> None:
    bad = reference.mismatches(values, ref)
    if len(bad):
        i = tuple(bad[0])
        problems.append(f"{label}: {len(bad)} cells differ from the reference, "
                        f"first at {i}: {np.asarray(values)[i]!r} vs {np.asarray(ref)[i]!r}")


def _csv_mismatch(path: Path, header: list[str], cols: list[np.ndarray]) -> str:
    """Why the CSV at path does not hold exactly these columns ('' if it does)."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0][:len(header)] != header or len(rows) - 1 != cols[0].size:
        return f"header {rows[0]} or {len(rows) - 1} rows"
    try:
        body = np.array([[float(x) for x in row[:len(header)]] for row in rows[1:]])
    except ValueError as exc:
        return str(exc)
    if not all(np.array_equal(body[:, i], c, equal_nan=True) for i, c in enumerate(cols)):
        return "values differ"
    return ""


class Workload:
    """One workload. round() is timed; observe() and verdict() are not.
    round_ops() counts a round's operations for the throughput metric;
    attempted_per_round counts every operation whose output is checked."""

    name = ""
    ops_per_round = 0

    @property
    def attempted_per_round(self) -> int:
        return self.ops_per_round

    def round_ops(self, out: Any) -> float:
        return self.ops_per_round

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.problems: list[str] = []
        self.rounds_seen = 0
        self._first: Any = None

    def round(self, r: int) -> Any:
        raise NotImplementedError

    def observe(self, r: int, out: Any) -> None:
        """Deterministic workloads: keep the first round's outputs and
        require every later round to reproduce them exactly."""
        self.rounds_seen += 1
        if self._first is None:
            self._first = out
        elif not self.same(self._first, out):
            self.problems.append(f"round {r} differs from round 0")

    def check(self, out: Any) -> None:
        raise NotImplementedError

    @staticmethod
    def same(a: Any, b: Any) -> bool:
        return all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b))

    def verdict(self) -> None:
        """Check the outputs against the references. Runs after the timed
        rounds, so the checks' own memory and time stay out of the metrics."""
        self.check(self._first)

    def failed_per_round(self) -> int:
        return 0

    def describe(self) -> dict[str, Any]:
        return {}


class DeviceMaps(Workload):
    """The (T_V, R_H) map on a finer grid than the CLI's 101 x 101, the CLI's
    default cooperativity and coupling axes, each written out through
    write_table as CSV."""

    name = "device-maps"
    TV = (0.5, 1.0, 151)
    RH = (0.0, 0.6, 151)

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.c_axis = sweep.default_cooperativity_axis()
        self.k_axis = sweep.default_coupling_axis()
        self.ops_per_round = self.TV[2] * self.RH[2] + self.c_axis.num + self.k_axis.num

    @property
    def attempted_per_round(self) -> int:
        # the three table writes are operations too: a write fails when its
        # CSV does not parse back to the exact values
        return self.ops_per_round + 3

    def round(self, r: int) -> tuple:
        cfg = config.load_config()
        pdr_map = sweep.sweep_fidelity_pdr(
            sweep.SweepAxis("pdr.T_V", *self.TV), sweep.SweepAxis("pdr.R_H", *self.RH),
            cfg.cavity, cfg.polarizer, zeta_V=cfg.pdr.zeta_V, zeta_H=cfg.pdr.zeta_H,
            r_cav_h=cfg.r_cav_h)
        c_map = sweep.sweep_fidelity_cavity(self.c_axis, cfg.pdr, cfg.polarizer, cfg.cavity,
                                            which="cooperativity", r_cav_h=cfg.r_cav_h)
        k_map = sweep.sweep_fidelity_cavity(self.k_axis, cfg.pdr, cfg.polarizer, cfg.cavity,
                                            which="coupling", r_cav_h=cfg.r_cav_h)
        for tag, res in (("pdr", pdr_map), ("cavity_c", c_map), ("cavity_coupling", k_map)):
            cli.write_table(res, "csv", self.out_dir / f"map_{tag}.csv", cfg.config_hash)
        self._cfg = cfg
        return (pdr_map.values, c_map.values, k_map.values,
                pdr_map.axes[0][1], pdr_map.axes[1][1], c_map.axes[0][1], k_map.axes[0][1])

    def check(self, out: tuple) -> None:
        p = self.problems
        p += _design_problems(self._cfg)
        fpdr, fc, fk, tv, rh, cs, ks = out
        ref_pdr, _ = _ref_fidelity(tv[:, None], rh[None, :], DESIGN.coupling,
                                   DESIGN.cooperativity)
        ref_c, _ = _ref_fidelity(DESIGN.T_V, DESIGN.R_H, DESIGN.coupling, cs)
        ref_k, _ = _ref_fidelity(DESIGN.T_V, DESIGN.R_H, ks, DESIGN.cooperativity)
        _compare("pdr map", fpdr, ref_pdr, p)
        _compare("cooperativity axis", fc, ref_c, p)
        _compare("coupling axis", fk, ref_k, p)
        for label, vals in (("pdr map", fpdr), ("cooperativity axis", fc),
                            ("coupling axis", fk)):
            finite = vals[~np.isnan(vals)]
            if finite.size == 0 or finite.min() < 0 or finite.max() > 1:
                p.append(f"{label}: values outside [0, 1] or none finite")
        # acceptance criterion 2's tolerance: one step of the CLI's 101 x 101
        # grid. The finer grid puts the optimum at (0.9933, 0.156), 1.5 of its
        # own R_H steps from the design point.
        i, j = np.unravel_index(np.nanargmax(fpdr), fpdr.shape)
        tv_step, rh_step = (self.TV[1] - self.TV[0]) / 100, (self.RH[1] - self.RH[0]) / 100
        if (abs(tv[i] - 0.99) > tv_step + 1e-12
                or abs(rh[j] - 0.15) > rh_step + 1e-12 or fpdr[i, j] < 0.999):
            p.append(f"pdr map argmax at T_V={tv[i]}, R_H={rh[j]}, F={fpdr[i, j]}")
        self.argmax = {"T_V": float(tv[i]), "R_H": float(rh[j]), "F": float(fpdr[i, j])}
        self._check_csv(*out)
        self.nan_cells = int(np.isnan(fpdr).sum())

    def _check_csv(self, fpdr, fc, fk, tv, rh, cs, ks) -> None:
        grid_tv, grid_rh = np.meshgrid(tv, rh, indexing="ij")
        tables = {
            "pdr": (["pdr.T_V", "pdr.R_H", "fidelity"], [grid_tv.ravel(), grid_rh.ravel(), fpdr.ravel()]),
            "cavity_c": (["cavity.cooperativity", "fidelity"], [cs, fc]),
            "cavity_coupling": (["cavity.coupling_ratio", "fidelity"], [ks, fk]),
        }
        self.bad_tables = {}
        for tag, (header, cols) in tables.items():
            why = _csv_mismatch(self.out_dir / f"map_{tag}.csv", header, cols)
            if why:
                self.bad_tables[tag] = why

    def describe(self) -> dict[str, Any]:
        return {"pdr_grid": [self.TV, self.RH], "cooperativity_axis": self.c_axis.num,
                "coupling_axis": self.k_axis.num, "nan_cells": getattr(self, "nan_cells", None),
                "argmax": getattr(self, "argmax", None),
                "tables_not_round_tripping": getattr(self, "bad_tables", None)}

    def failed_per_round(self) -> int:
        return len(self.bad_tables)


class DevicePoints(Workload):
    """Scalar transfer_fidelity calls at seeded random design points."""

    name = "device-points"
    N = 2000
    SALT = 11

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        g = np.random.default_rng(np.random.SeedSequence([seed, self.SALT]))
        self.tv = g.uniform(0.5, 1.0, self.N)
        self.rh = g.uniform(0.0, 0.6, self.N)
        self.k = g.uniform(0.05, 1.0, self.N)
        self.c = np.exp(g.uniform(math.log(0.5), math.log(20.0), self.N))
        self.points = list(zip(self.tv.tolist(), self.rh.tolist(),
                               self.k.tolist(), self.c.tolist()))
        self.ops_per_round = self.N

    def round(self, r: int) -> tuple:
        cfg = config.load_config()
        out = np.empty(self.N)
        for i, (tv, rh, k, c) in enumerate(self.points):
            try:
                pdr = params.PdrParams.from_power(T_V=tv, R_H=rh)
                cav = params.CavityParams.from_ratios(k, c)
                out[i] = device.transfer_fidelity(pdr, cfg.polarizer, cav,
                                                  r_cav_h=cfg.r_cav_h).f_avg
            except params.ValidationError:
                out[i] = np.nan  # non-passive design: rejected, as it should be
        self._cfg = cfg
        return (out,)

    def check(self, out: tuple) -> None:
        self.problems += _design_problems(self._cfg)
        ref, _ = _ref_fidelity(self.tv, self.rh, self.k, self.c)
        _compare("scalar points", out[0], ref, self.problems)
        finite = out[0][~np.isnan(out[0])]
        if finite.size and (finite.min() < 0 or finite.max() > 1):
            self.problems.append("scalar points: values outside [0, 1]")
        self.rejected = int(np.isnan(out[0]).sum())

    def describe(self) -> dict[str, Any]:
        return {"points": self.N, "rejected_non_passive": getattr(self, "rejected", None)}


class RateCurves(Workload):
    """sweep_rate_vs_loss from 0 to 120 dB in 0.25 dB steps for the four
    default constraints. Points where the oracle finds n_max off the
    fidelity boundary are counted as failed."""

    name = "rate-curves"
    LOSS = (0.0, 120.0, 481)

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.axis = sweep.SweepAxis("loss_db", *self.LOSS, spacing="db")
        self._failed = 0

    def round(self, r: int) -> tuple:
        cfg = config.load_config()
        res = sweep.sweep_rate_vs_loss(self.axis, cfg.pdr, cfg.polarizer, cfg.cavity,
                                       cfg.link, cfg.timing, constraints=cfg.constraints,
                                       r_cav_h=cfg.r_cav_h)
        self._cfg = cfg
        self._targets = list(res)
        self.ops_per_round = len(res) * self.axis.num
        return tuple(np.stack([res[f].values, res[f].columns["n_max"],
                               res[f].columns["regime"]]) for f in res) + (
            np.array([res[f].metadata["f0"] for f in res]),)

    def check(self, out: tuple) -> None:
        import mpmath

        import oracle

        p = self.problems
        p += _design_problems(self._cfg)
        loss = self.axis.values()
        f0_ref = float(_ref_fidelity(DESIGN.T_V, DESIGN.R_H, DESIGN.coupling,
                                     DESIGN.cooperativity)[0])
        if np.any(np.abs(out[-1] - f0_ref) > 1e-12):
            p.append(f"f0 {out[-1]} differs from the reference {f0_ref}")
        parts = [oracle.partition(10.0 ** (-db / 10.0)) for db in loss]
        plob = [oracle.repeaterless_bound(10.0 ** (-db / 10.0)) for db in loss]
        failed = np.zeros((len(self._targets), loss.size), dtype=bool)
        for c, f_target in enumerate(self._targets):
            rates, nmax, regime = out[c]
            for i in range(loss.size):
                if np.isnan(rates[i]):
                    p.append(f"F>={f_target} at {loss[i]} dB: no rate")
                    continue
                n = int(nmax[i])
                failed[c, i] = not oracle.boundary_holds(n, f_target, parts[i], f0_ref)
                if mpmath.mpf(rates[i]) > plob[i]:
                    p.append(f"F>={f_target} at {loss[i]} dB: rate {rates[i]} above PLOB")
                if (regime[i] == 3) != oracle.regime3(n):
                    p.append(f"F>={f_target} at {loss[i]} dB: regime {regime[i]} for n_max {n}")
                want = oracle.rate(n, parts[i])
                if abs(mpmath.mpf(rates[i]) / want - 1) > 1e-9:
                    p.append(f"F>={f_target} at {loss[i]} dB: rate {rates[i]} vs oracle "
                             f"{mpmath.nstr(want, 15)} at n_max {n}")
            steps = np.diff(regime)
            if np.any(steps < 0) or not set(np.unique(regime)) <= {1.0, 2.0, 3.0}:
                p.append(f"F>={f_target}: regimes not contiguous 1 -> 2 -> 3")
        rates = np.stack([o[0] for o in out[:-1]])
        if np.any(np.diff(rates, axis=0) > 0):
            p.append("rate curves not ordered by constraint")
        self._failed = int(failed.sum())
        self.failed_by_target = {str(f): int(failed[c].sum())
                                 for c, f in enumerate(self._targets)}
        self.first_failure_db = {str(f): (float(loss[failed[c]].min()) if failed[c].any()
                                          else None) for c, f in enumerate(self._targets)}
        self.last_pass_db = {str(f): (float(loss[~failed[c]].max()) if (~failed[c]).any()
                                      else None) for c, f in enumerate(self._targets)}

    def failed_per_round(self) -> int:
        return self._failed

    def describe(self) -> dict[str, Any]:
        return {"loss_axis_db": self.LOSS, "failed_by_target": getattr(self, "failed_by_target", None),
                "first_failure_db": getattr(self, "first_failure_db", None),
                "last_pass_db": getattr(self, "last_pass_db", None)}


class MonteCarlo(Workload):
    """simulate_rate at a fixed trial count per loss point, with n_max from
    transfer_rate at F >= 0.95. Every round draws fresh trial seeds; the
    checks pool all rounds of the run."""

    LOSSES: tuple[float, ...] = ()
    TRIALS = 0
    SALT = 0
    F_TARGET = 0.95

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.ops_per_round = self.TRIALS * len(self.LOSSES)
        self.n_max: dict[float, int] = {}
        self.est: dict[float, list[tuple[float, float, float]]] = {db: [] for db in self.LOSSES}

    def round(self, r: int) -> list:
        out = []
        for i, db in enumerate(self.LOSSES):
            cfg = config.load_config(overrides=[f"link.eta_link={10.0 ** (-db / 10.0)!r}",
                                                f"f_target={self.F_TARGET!r}"])
            res = rate.transfer_rate(cfg.pdr, cfg.polarizer, cfg.cavity, cfg.link,
                                     cfg.timing, cfg.f_target, r_cav_h=cfg.r_cav_h)
            probs = rate.attempt_probabilities(cfg.pdr, cfg.polarizer, cfg.link)
            mc_seed = int(np.random.SeedSequence([self.seed, self.SALT, r, i])
                          .generate_state(1)[0])
            est = montecarlo.simulate_rate(probs, res.n_max, cfg.timing,
                                           montecarlo.McConfig(trials=self.TRIALS, seed=mc_seed))
            out.append((db, res.n_max, est))
        self._cfg = cfg
        return out

    def observe(self, r: int, out: list) -> None:
        self.rounds_seen += 1
        if r == 0:
            self.problems += _design_problems(self._cfg)
        for db, n_max, est in out:
            if self.n_max.setdefault(db, n_max) != n_max:
                self.problems.append(f"{db} dB: n_max changed between rounds")
            self.est[db].append((est.mean_rate, est.std_error, est.error_fraction))

    def verdict(self) -> None:
        """Pool every round at each loss and compare with the oracle at the
        n_max the program used: |rate - oracle| <= 4 standard errors, and an
        error-fraction pull of at most 4."""
        import oracle

        f0 = float(_ref_fidelity(DESIGN.T_V, DESIGN.R_H, DESIGN.coupling,
                                 DESIGN.cooperativity)[0])
        self.pooled = {}
        for db in self.LOSSES:
            part = oracle.partition(10.0 ** (-db / 10.0))
            n = self.n_max[db]
            if not oracle.boundary_holds(n, self.F_TARGET, part, f0):
                self.problems.append(f"{db} dB: n_max {n} off the fidelity boundary")
            rows = np.array(self.est[db])
            mean_t = 1.0 / rows[:, 0]
            se_t = rows[:, 1] * mean_t**2  # undo the delta method per round
            k = len(rows)
            t_pool = float(mean_t.mean())
            se = math.sqrt(float(np.sum(se_t**2))) / k / t_pool**2
            mc_rate = 1.0 / t_pool
            want = float(oracle.rate(n, part))
            trials = k * self.TRIALS
            ef = float(rows[:, 2].mean())
            pc = float(oracle.conditional_error(n, part))
            pull = abs(ef - pc) / math.sqrt(pc * (1 - pc) / trials)
            self.pooled[str(db)] = {"mc_rate": mc_rate, "std_error": se, "oracle_rate": want,
                                    "error_fraction": ef, "oracle_error": pc,
                                    "pull": pull, "trials": trials, "n_max": n}
            if abs(mc_rate - want) > 4 * se:
                self.problems.append(f"{db} dB: MC rate {mc_rate} vs oracle {want} "
                                     f"is more than 4 standard errors ({se})")
            if pull > 4:
                self.problems.append(f"{db} dB: error fraction {ef} vs oracle {pc}, "
                                     f"pull {pull:.2f}")

    def describe(self) -> dict[str, Any]:
        return {"losses_db": self.LOSSES, "trials_per_loss_per_round": self.TRIALS,
                "pooled": getattr(self, "pooled", None)}


class McLowLoss(MonteCarlo):
    name = "mc-low-loss"
    LOSSES = (10.0, 20.0, 30.0)
    TRIALS = 200
    SALT = 21


class McHighLoss(MonteCarlo):
    name = "mc-high-loss"
    LOSSES = (50.0, 60.0)
    TRIALS = 10
    SALT = 22

    def round_ops(self, out: list) -> float:
        """Milliseconds of simulated protocol time. A trial's cost grows with
        the attempts it simulates, which vary several-fold between trials up
        here, so a trial count would measure the draws as much as the code.
        With 1/mean(elapsed) as the estimator, trials / rate is the summed
        elapsed time."""
        return sum(est.trials / est.mean_rate for _, _, est in out) * 1e3


WORKLOADS = {w.name: w for w in (DeviceMaps, DevicePoints, RateCurves, McLowLoss, McHighLoss)}
