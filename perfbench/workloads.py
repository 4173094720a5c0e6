"""The benchmark's four workloads: their inputs, operations and output checks.

Every workload is a closed loop of operations (one call at a time, the next
starting when the previous returns). An operation is one case, one
replication call, one CLI command or one bound config. The program receives
only the inputs built here from the workload seed; seed 1 reproduces the
preset seeds. Checks run outside the timed section and return a list of
problems, empty when the output is correct.

Calls go through module attributes (`experiments.run_comparison`, not a
name imported from it) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from mcfifo import analytic, experiments, oracle, simulator, traffic
from spans import clock

#: Tolerance of acceptance criterion 8 (simulated waits against the oracle).
ORACLE_TOL_S = 1e-9
#: Exact M/M/1-like decay rate of preset 4 (acceptance 4's bisection oracle).
MM1_THETA_PER_S = 1215.410713195736
#: Tolerance for the analytic root and curve-ordering checks.
ROOT_TOL = 1e-9
CURVE_TOL = 1e-12


@dataclass
class Op:
    """One timed call, the work it stands for, and its output check."""

    key: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _same_as_first(firsts: dict, key: str, digest) -> list[str]:
    """Repeated operations run identical inputs, so outputs must repeat."""
    if key not in firsts:
        firsts[key] = digest
        return []
    return [] if firsts[key] == digest else [f"{key}: output differs from its first run"]


# --------------------------------------------------------------------- long_run


class LongRun:
    """run_comparison on all six presets at full size: the single-long-run path."""

    name = "long_run"
    unit = "customers"

    def __init__(self, root: Path, seed: int, tiny: bool) -> None:
        size = {"customers": 20_000, "grid_points": 200} if tiny else {}
        self.configs = {
            k: replace(experiments.preset(k), seed=seed, **size) for k in range(1, 7)
        }
        self._firsts: dict = {}
        self.outputs: dict = {}
        self.oracle_max_abs_err_s = 0.0

    def ops(self) -> list[Op]:
        return [
            Op(
                f"case{k}",
                config.customers,
                lambda config=config: experiments.run_comparison(config),
                lambda out, k=k: self._check(k, out),
            )
            for k, config in self.configs.items()
        ]

    def _check(self, k: int, out) -> list[str]:
        self.outputs[k] = out
        problems = []
        values = out.values
        if k in (1, 2):
            golden = {1: (1.4e-4, 5.4e-4), 2: (1.8e-4, "N.A.")}[k]
            if not math.isclose(values["dd1_bound_s"], golden[0], rel_tol=1e-12):
                problems.append(f"case{k}: dd1 {values['dd1_bound_s']!r}")
            cruz = values["cruz_bound_s"]
            if cruz != golden[1] and not (
                isinstance(cruz, float) and math.isclose(cruz, golden[1], rel_tol=1e-12)
            ):
                problems.append(f"case{k}: cruz {cruz!r}")
            if values["delays_above_dd1"] != 0:
                problems.append(f"case{k}: {values['delays_above_dd1']} delays above dd1")
        if k == 5:
            flagged = [
                v.count
                for v in out.violations
                if v.bound_label == "md1_waiting_exact" and v.target_label == "sim_waiting"
            ]
            if not flagged or flagged[0] == 0:
                problems.append("case5: independence curve not flagged")
        digest = json.dumps(out.summary_dict(), sort_keys=True, default=str)
        return problems + _same_as_first(self._firsts, f"case{k}", digest)

    def final_checks(self) -> dict[str, list[str]]:
        """Re-simulate each preset and hold it against the brute-force oracles."""
        problems: dict[str, list[str]] = {}
        for k, config in self.configs.items():
            problems[f"case{k}"] = self._oracle_check(k, config)
        return problems

    def _oracle_check(self, k: int, config) -> list[str]:
        out = self.outputs.get(k)
        if out is None:
            return [f"case{k}: no output to check"]
        result = experiments.simulate_case(config)
        problems, err = check_against_oracles(
            f"case{k}", config, result, check_waits=k in (3, 4, 6)
        )
        self.oracle_max_abs_err_s = max(self.oracle_max_abs_err_s, err)
        emp = simulator.empirical_ccdf(result.waiting_s, config.grid(), config.warmup_fraction)
        if not np.array_equal(emp.fractions, out.curve("sim_waiting").probs):
            problems.append(f"case{k}: re-simulation differs from the timed run")
        return problems


def check_against_oracles(label: str, config, result, check_waits: bool):
    """Problems of one run against the brute-force oracles, and the largest
    gap between its waits and the workload scan (0 when not checked).

    simulate_case keeps the time-ordered prefix up to the horizon, so the
    oracles over the untrimmed stream apply to its first n customers. The
    wait comparison needs distinct arrival instants: at a tie the scan gives
    the whole tie group the same value.
    """
    n = len(result)
    counts = traffic.proportional_counts(config.specs, config.customers)
    seqs = traffic.generate_sequences(config.specs, counts, config.seed)
    rates = config.rates()
    problems = []
    bounds = oracle.samplepath_bounds_all(seqs, rates)[:n]
    over = int(np.count_nonzero(result.delay_s > bounds + ORACLE_TOL_S))
    if over:
        problems.append(f"{label}: {over} delays above the sample-path bound")
    err = 0.0
    if check_waits:
        if not np.all(np.diff(result.arrival_s) > 0):
            problems.append(f"{label}: tied arrivals")
        virtual = oracle.virtual_waits_at_arrivals(seqs, rates)[:n]
        err = float(np.max(np.abs(virtual - result.waiting_s)))
        if not err <= ORACLE_TOL_S:
            problems.append(f"{label}: waits differ from the oracle by {err:.3g} s")
    return problems, err


# ----------------------------------------------------------------- replications


class Replications:
    """transient_delays on presets 3 and 6: many ~150-customer runs."""

    name = "replications"
    unit = "replications"
    js = (1, 10, 100)
    class_id = 1

    def __init__(self, root: Path, seed: int, tiny: bool) -> None:
        self.replications = 200 if tiny else 10_000
        self.configs = {k: replace(experiments.preset(k), seed=seed) for k in (3, 6)}
        self._firsts: dict = {}

    def ops(self) -> list[Op]:
        return [
            Op(
                f"case{k}",
                self.replications,
                lambda config=config: simulator.transient_delays(
                    config, self.js, self.class_id, self.replications
                ),
                lambda out, k=k: self._check(k, out),
            )
            for k, config in self.configs.items()
        ]

    def _check(self, k: int, out) -> list[str]:
        if sorted(out) != list(self.js):
            return [f"case{k}: returned indices {sorted(out)}"]
        problems = []
        for j, values in out.items():
            if values.shape != (self.replications,) or not np.all(np.isfinite(values)):
                problems.append(f"case{k}: j={j} array is not finite with shape "
                                f"({self.replications},)")
        if problems:
            return problems
        # acceptance 7: the j-th customer's delay increases stochastically in j
        grid = np.linspace(0.0, self.configs[k].tau_max_s, 200)
        n = self.replications
        ccdf = {
            j: simulator.empirical_ccdf(out[j], grid, warmup_discard=0.0).fractions
            for j in self.js
        }
        for lo, hi in zip(self.js, self.js[1:]):
            se = 3.0 * np.sqrt(
                (ccdf[lo] * (1 - ccdf[lo]) + ccdf[hi] * (1 - ccdf[hi])) / n
            )
            if np.any(ccdf[lo] > ccdf[hi] + se):
                problems.append(f"case{k}: CCDF of j={lo} above j={hi} beyond 3 SE")
        digest = tuple(out[j].tobytes() for j in self.js)
        return problems + _same_as_first(self._firsts, f"case{k}", digest)

    def final_checks(self) -> dict[str, list[str]]:
        return {}


# -------------------------------------------------------------------------- cli


@dataclass
class CommandRun:
    """A finished CLI process, as the check and the tracer need it."""

    returncode: int
    stdout: str
    stderr: str
    out_dir: Path
    spawn: float
    exit: float
    child: dict | None  # spans written by the traced child, if any
    output_bytes: int = 0  # files, stdout and stderr, counted by the check


class Cli:
    """The `mcfifo` commands as subprocesses, so start-up and import count."""

    name = "cli"
    unit = "commands"

    def __init__(self, root: Path, seed: int, tiny: bool) -> None:
        self.root = root
        self.work = root / ".perfbench_run" / "cli"
        self.grid_points = 200 if tiny else experiments.DEFAULT_GRID_POINTS
        small = ["--grid-points", "200"] if tiny else []
        self.commands = {
            "bounds": ["bounds", "--case", "4"] + small,
            "simulate": ["simulate", "--case", "4", "--customers",
                         "2000" if tiny else "40000", "--format", "json",
                         "--seed", str(seed)] + small,
            "compare": ["compare", "--case", "5", "--seed", str(seed)]
            + (["--customers", "20000"] if tiny else []) + small,
        }
        self.traced = False

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def command_line(self, args: list[str]) -> list[str]:
        if self.traced:
            child = Path(__file__).with_name("cli_child.py")
            return [sys.executable, "-X", "importtime", str(child), *args]
        return [sys.executable, "-m", "mcfifo.cli", *args]

    def run(self, key: str) -> CommandRun:
        out_dir = self.work / key
        args = self.commands[key] + ["--out", str(out_dir)]
        spans_file = out_dir.parent / f"{key}.spans.json"
        line = self.command_line([str(spans_file)] + args if self.traced else args)
        spawn = clock()
        proc = subprocess.run(
            line, cwd=self.root, env=self.env(), capture_output=True, text=True,
            timeout=170,
        )
        end = clock()
        child = json.loads(spans_file.read_text()) if self.traced else None
        return CommandRun(proc.returncode, proc.stdout, proc.stderr, out_dir, spawn, end, child)

    def ops(self) -> list[Op]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        return [
            Op(key, 1, lambda key=key: self.run(key), lambda out, key=key: self._check(key, out))
            for key in self.commands
        ]

    def _check(self, key: str, out: CommandRun) -> list[str]:
        """Check a command's files, then delete them, so that the next run of
        the command cannot pass on this run's output."""
        try:
            out.output_bytes = _output_bytes(out)
            return getattr(self, f"_check_{key}")(out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"{key}: unreadable output ({type(exc).__name__}: {exc})"]
        finally:
            shutil.rmtree(out.out_dir, ignore_errors=True)
            (self.work / f"{key}.spans.json").unlink(missing_ok=True)

    def _check_bounds(self, out: CommandRun) -> list[str]:
        if out.returncode != 0:
            return [f"bounds: exit {out.returncode}: {out.stderr[-300:]}"]
        payload = json.loads((out.out_dir / "bounds.json").read_text())
        theta = payload["bounds"]["mm1_theta_exact_per_s"]
        problems = []
        if not math.isclose(theta, MM1_THETA_PER_S, rel_tol=1e-6):
            problems.append(f"bounds: mm1 theta {theta!r}")
        rows = _csv_rows(out.out_dir / "bound_curves.csv")
        if rows != len(payload["curves"]) * self.grid_points:
            problems.append(f"bounds: bound_curves.csv has {rows} rows")
        return problems

    def _check_simulate(self, out: CommandRun) -> list[str]:
        if out.returncode != 0:
            return [f"simulate: exit {out.returncode}: {out.stderr[-300:]}"]
        summary = json.loads((out.out_dir / "summary.json").read_text())
        problems = []
        rows = _csv_rows(out.out_dir / "records.csv")
        if rows != summary["customers"]:
            problems.append(f"simulate: {rows} records for {summary['customers']} customers")
        if _csv_rows(out.out_dir / "ccdf.csv") < 1:
            problems.append("simulate: empty ccdf.csv")
        return problems

    def _check_compare(self, out: CommandRun) -> list[str]:
        if out.returncode not in (0, 3):
            return [f"compare: exit {out.returncode}: {out.stderr[-300:]}"]
        summary = json.loads((out.out_dir / "summary.json").read_text())
        problems = []
        failing = summary["guaranteed_violations"] + summary["values"].get(
            "delays_above_dd1", 0
        )
        if (out.returncode == 3) != (failing > 0):
            problems.append(
                f"compare: exit {out.returncode} with {failing} guaranteed violations"
            )
        if _csv_rows(out.out_dir / "curves.csv") < 1:
            problems.append("compare: empty curves.csv")
        return problems

    def final_checks(self) -> dict[str, list[str]]:
        return {}


def _output_bytes(out: CommandRun) -> int:
    """Bytes a command wrote, leaving out `-X importtime` lines of traced runs."""
    files = sum(p.stat().st_size for p in out.out_dir.iterdir() if p.is_file())
    stderr = "".join(
        line for line in out.stderr.splitlines(keepends=True)
        if not line.startswith("import time:")
    )
    return files + len(out.stdout.encode()) + len(stderr.encode())


def _csv_rows(path: Path) -> int:
    """Data rows of a CSV file whose first row is a header; every row parses."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        count = 0
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path.name}: ragged row {count + 1}")
            count += 1
    return count


# ------------------------------------------------------------------ bound_sweep


def _four_class_mix() -> tuple:
    """A Poisson/constant-size mix wide enough for the closed-form split."""
    spec = traffic.ClassSpec
    return (
        spec(1, traffic.Poisson(1e4), traffic.Constant(800.0), 10e6),
        spec(2, traffic.Poisson(1e3), traffic.Constant(10_000.0), 100e6),
        spec(3, traffic.Poisson(2e3), traffic.Constant(4_000.0), 50e6),
        spec(4, traffic.Poisson(5e2), traffic.Constant(12_000.0), 20e6),
    )


def _scaled(specs, target_rho: float) -> tuple:
    """The class mix with arrival rates scaled to a total utilization."""
    k = target_rho / sum(s.utilization for s in specs)
    out = []
    for s in specs:
        if isinstance(s.arrival, traffic.Periodic):
            arrival = traffic.Periodic(s.arrival.period_s / k)
        else:
            arrival = traffic.Poisson(s.arrival.rate_hz * k)
        out.append(traffic.ClassSpec(s.class_id, arrival, s.size, s.service_rate_bps))
    return tuple(out)


def _exponential_cdf(rate_hz: float):
    return lambda t: -np.expm1(-rate_hz * np.asarray(t))


class BoundSweep:
    """Pure analytic work: every bound of four class mixes over a load sweep."""

    name = "bound_sweep"
    unit = "configs"

    def __init__(self, root: Path, seed: int, tiny: bool) -> None:
        levels = 2 if tiny else 12
        grid_points = 200 if tiny else experiments.DEFAULT_GRID_POINTS
        # stratified loads over [0.1, 0.9]; the seed jitters each level in
        # its stratum
        jitter = np.random.default_rng(seed).random(levels)
        loads = 0.1 + 0.8 * (np.arange(levels) + jitter) / levels
        mixes = {
            "p3": (experiments.preset(3).specs, experiments.preset(3).tau_max_s),
            "p4": (experiments.preset(4).specs, experiments.preset(4).tau_max_s),
            "p6": (experiments.preset(6).specs, experiments.preset(6).tau_max_s),
            "c4": (_four_class_mix(), experiments.preset(3).tau_max_s),
        }
        self.root_residual_max = 0.0
        self.configs = {
            f"{mix}@{rho:.4f}": (_scaled(specs, rho), np.linspace(0.0, tau, grid_points))
            for mix, (specs, tau) in mixes.items()
            for rho in loads
        }
        self._firsts: dict = {}

    def ops(self) -> list[Op]:
        return [
            Op(key, 1, lambda cfg=cfg: self.evaluate(*cfg), lambda out, key=key: self._check(key, out))
            for key, cfg in self.configs.items()
        ]

    @staticmethod
    def evaluate(specs, grid) -> dict:
        """Decay rate, waiting and delay curves, and the dependence-tolerant
        split and convolution bounds of one config."""
        out: dict = {"specs": specs, "delay_pairs": []}
        periodic = any(isinstance(s.arrival, traffic.Periodic) for s in specs)
        constant = all(isinstance(s.size, traffic.Constant) for s in specs)
        if periodic:
            out["theta"] = analytic.theta_dmdm(specs)
            for s in specs:
                waiting = analytic.bound_dmdm(specs, grid, s.class_id)
                out["delay_pairs"].append((waiting, _delay_curve(s, waiting)))
        else:
            solve = analytic.theta_md1 if constant else analytic.theta_mm1
            exact, approx = solve(specs)
            out["theta"], out["theta_approx"] = exact, approx
            waiting = analytic.waiting_bound_curve(exact, grid)
            for s in specs:
                out["delay_pairs"].append((waiting, _delay_curve(s, waiting)))
        if constant and not periodic:
            out["mstar"] = analytic.bound_mstar_d1(specs, grid)

        rho = sum(s.utilization for s in specs)
        curvature = sum(s.arrival_rate_hz * s.mean_service_s**2 for s in specs)
        weights = analytic.equalized_weights(specs, 2.0 * (1.0 - rho) / curvature)
        tails = [
            traffic.gsbb_tail_from_mgf(s, w * s.service_rate_bps, method="exact")
            for s, w in zip(specs, weights)
        ]
        rates = [s.service_rate_bps for s in specs]
        out["weights"], out["tails"] = weights, tails
        out["split"] = analytic.gsbb_split_curve(tails, rates, grid)
        out["convolution"] = analytic.gsbb_bound_convolution(tails, rates, grid)
        return out

    def _check(self, key: str, out: dict) -> list[str]:
        specs = out["specs"]
        problems = []
        theta = out["theta"]
        if "theta_approx" in out:
            constant = all(isinstance(s.size, traffic.Constant) for s in specs)
            mgf = (
                analytic.mgf_excess_constant_sizes(specs)
                if constant
                else analytic.mgf_excess_exponential_sizes(specs)
            )
            problems += self._root_problems(f"{key}: aggregate", mgf, theta.theta_star)
            if constant and out["theta_approx"].theta_star < theta.theta_star:
                problems.append(f"{key}: second-order theta below the exact root")
        elif not abs(theta.residual) <= ROOT_TOL:
            problems.append(f"{key}: closed-form root residual {theta.residual:.3g}")
        for s, w, tail in zip(specs, out["weights"], out["tails"]):
            if isinstance(s.size, traffic.Constant) and isinstance(tail, traffic.ExponentialTail):
                lam, y = s.arrival_rate_hz, s.mean_service_s

                def mgf(th, lam=lam, y=y, w=w):
                    return math.exp(lam * math.expm1(th * y) - th * w)

                th = tail.decay_per_bit * s.service_rate_bps
                problems += self._root_problems(f"{key}: class {s.class_id}", mgf, th)
        for waiting, delay in out["delay_pairs"]:
            if np.any(delay.probs < waiting.probs - CURVE_TOL):
                problems.append(f"{key}: {delay.label} below its waiting curve")
        curves = [out["split"], out["convolution"]] + [d for _, d in out["delay_pairs"]]
        for curve in curves:
            if not np.all((curve.probs >= 0.0) & (curve.probs <= 1.0)):
                problems.append(f"{key}: {curve.label} outside [0, 1]")
        digest = tuple(c.probs.tobytes() for c in curves) + (theta.theta_star,)
        return problems + _same_as_first(self._firsts, key, digest)

    def _root_problems(self, label: str, mgf, theta: float) -> list[str]:
        """A bisection root must be feasible and bracketed to the solver's
        relative tolerance; its residual is recorded, not bounded, because
        at low loads the MGF is steep at the root (see README.md)."""
        value = mgf(theta)
        self.root_residual_max = max(self.root_residual_max, abs(value - 1.0))
        if not value <= 1.0:
            return [f"{label} root infeasible: MGF - 1 = {value - 1.0:.3g}"]
        if not mgf(theta * (1.0 + 2.0 * analytic.ROOT_REL_TOL)) > 1.0:
            return [f"{label} root not bracketed to relative {analytic.ROOT_REL_TOL:g}"]
        return []

    def final_checks(self) -> dict[str, list[str]]:
        """Acceptance 4: the decay-rate roots at the preset loads."""
        problems = []
        exact3, approx3 = analytic.theta_md1(experiments.preset(3).specs)
        mgf3 = analytic.mgf_excess_constant_sizes(experiments.preset(3).specs)
        if abs(mgf3(exact3.theta_star) - 1.0) > ROOT_TOL or not math.isclose(
            approx3.theta_star, 2702.70, abs_tol=0.01
        ):
            problems.append(f"preset 3 roots {exact3.theta_star!r}, {approx3.theta_star!r}")
        exact4, _ = analytic.theta_mm1(experiments.preset(4).specs)
        if not math.isclose(exact4.theta_star, MM1_THETA_PER_S, rel_tol=1e-6):
            problems.append(f"preset 4 root {exact4.theta_star!r}")
        theta6 = analytic.theta_dmdm(experiments.preset(6).specs)
        if not math.isclose(theta6.theta_star, 5000.0, rel_tol=1e-12):
            problems.append(f"preset 6 root {theta6.theta_star!r}")
        # a wrong root invalidates every config of the sweep
        return {key: problems for key in self.configs} if problems else {}


def _delay_curve(spec, waiting):
    """Delay tail of one class: its own service time added to the wait."""
    if isinstance(spec.size, traffic.Constant):
        return analytic.delay_bound_convolve(spec.mean_service_s, waiting)
    return analytic.delay_bound_convolve(
        _exponential_cdf(spec.service_completion_rate_hz), waiting
    )


WORKLOADS = {w.name: w for w in (LongRun, Replications, Cli, BoundSweep)}
