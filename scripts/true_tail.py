"""Exact stationary references for the simulator: the mean wait of each class.

Usage (from the repository root, or anywhere with mcfifo installed):

    PYTHONPATH=src python3 scripts/true_tail.py --case 3 --case 5

prints each class's exact mean wait, in ms, of the named presets.

All arrivals are Poisson, so by PASTA every customer finds the
time-stationary workload V in front of it, whose mean is that of one
M^X/G/1 queue (Pollaczek-Khinchine):

    E[V] = sum over arrival streams of rate * E[Y^2] / (2 * (1 - rho)).

An independent class is a stream of its own, Y its service time S, with
E[S^2] = s^2 for a constant size and 2 * E[S]^2 for an exponential one. A
synchronized coupling group is one batch stream at its master's rate beta:
each slower member m joins a master instant with probability
p_m = rate_m / beta, independently, so Y = sum_m B_m * S_m with B_m Bernoulli
(p_m), B = 1 for the master. The group's term replaces its members'. Within
a batch, ties go to the lower class id, so a member waits E[V] plus the mean
service of the co-arriving classes of lower id, sum of p_m * E[S_m] over
them. Periodic classes and scaled groups have no closed form here:
exact_mean_wait raises ValueError for them.
"""

from __future__ import annotations

import argparse
import sys

from mcfifo.experiments import preset
from mcfifo.traffic import Constant, CoupledPoisson, Periodic, coupling_groups


def _second_moment(spec) -> float:
    """E[S^2] of a class's service time."""
    s = spec.mean_service_s
    return s * s if isinstance(spec.size, Constant) else 2.0 * s * s


def exact_mean_wait(specs) -> dict[int, float]:
    """Each class's stationary mean wait in seconds, by class id."""
    for spec in specs:
        if isinstance(spec.arrival, Periodic):
            raise ValueError(f"class {spec.class_id}: no exact mean for a periodic class")
        if isinstance(spec.arrival, CoupledPoisson) and spec.arrival.mechanism != "synchronized":
            raise ValueError(f"class {spec.class_id}: no exact mean for a scaled group")
    rho = sum(s.utilization for s in specs)
    if not rho < 1.0:
        raise ValueError(f"load {rho} is not below 1: no stationary wait")
    work = sum(
        s.arrival_rate_hz * _second_moment(s)
        for s in specs if not isinstance(s.arrival, CoupledPoisson)
    )
    ahead = {s.class_id: 0.0 for s in specs}  # mean service co-arriving with a lower id
    for members in coupling_groups(specs).values():
        beta = max(m.arrival_rate_hz for m in members)
        p = {m.class_id: m.arrival_rate_hz / beta for m in members}
        mean = sum(p[m.class_id] * m.mean_service_s for m in members)
        # E[Y^2] = sum_m p_m E[S_m^2] + sum over m != n of p_m p_n E[S_m] E[S_n]
        square = sum(
            p[m.class_id] * (_second_moment(m) - p[m.class_id] * m.mean_service_s**2)
            for m in members
        )
        work += beta * (square + mean * mean)
        for m in members:
            ahead[m.class_id] = sum(
                p[n.class_id] * n.mean_service_s for n in members if n.class_id < m.class_id
            )
    wait = work / (2.0 * (1.0 - rho))
    return {cid: wait + extra for cid, extra in ahead.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", type=int, action="append", required=True,
                        help="a preset of Poisson classes (3, 4 or 5); repeatable")
    for case_id in parser.parse_args(argv).case:
        try:
            means = exact_mean_wait(preset(case_id).specs)
        except ValueError as exc:
            sys.exit(f"error: case {case_id}: {exc}")
        print(f"case {case_id}: " + ", ".join(
            f"class {cid} {1e3 * mean:.6g} ms" for cid, mean in sorted(means.items())
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
