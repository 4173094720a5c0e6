"""Acceptance suite: one test per criterion, full problem sizes.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Stochastic checks run the fixed preset seeds: single-run tail
estimates are autocorrelated, so the binomial slack used here makes these
regression checks rather than universal statistical tests (see the
repository notes for measured seed sensitivity).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mcfifo.analytic import (
    mgf_excess_constant_sizes,
    mgf_excess_exponential_sizes,
    bound_dd1,
    bound_mstar_d1,
    gsbb_bound_split,
    kingman_reference,
    theta_dmdm,
    theta_exact,
    theta_md1,
    theta_mm1,
    waiting_bound_curve,
)
from mcfifo.cli import main
from mcfifo.experiments import (
    FLOAT_SLACK_S,
    preset,
    run_comparison,
    simulate_case,
    tightness_scenario,
)
from mcfifo.oracle import samplepath_bounds_all, virtual_waits_at_arrivals
from mcfifo.simulator import empirical_ccdf, merge_streams, run_fifo, transient_delays
from mcfifo.traffic import (
    ClassSpec,
    Constant,
    CoupledPoisson,
    DegenerateTail,
    Poisson,
    deterministic_envelope,
    generate_sequences,
    proportional_counts,
)

# Bisection oracle for the exponential-size mixture root, computed before
# this package was built and cross-checked against the quadratic closed form.
MM1_EXACT_ORACLE = 1215.410713195736


def _elapsed_ok(t0, budget_s, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"{label} took {elapsed:.1f}s (budget {budget_s}s)"
    return elapsed


def _bounds_json(tmp_path, case_id):
    out = tmp_path / f"case{case_id}"
    assert main(["bounds", "--case", str(case_id), "--out", str(out)]) == 0
    return json.loads((out / "bounds.json").read_text())


def test_criterion_1_deterministic_bound_values(tmp_path):
    t0 = time.perf_counter()
    b1 = _bounds_json(tmp_path, 1)["bounds"]
    assert b1["dd1_bound_s"] == pytest.approx(1.4e-4, rel=1e-12)
    assert b1["cruz_bound_s"] == pytest.approx(5.4e-4, rel=1e-12)
    b2 = _bounds_json(tmp_path, 2)["bounds"]
    assert b2["dd1_bound_s"] == pytest.approx(1.8e-4, rel=1e-12)
    assert b2["cruz_bound_s"] == "N.A."
    dt = _elapsed_ok(t0, 1.0, "criterion 1")
    print(f"\nACCEPTANCE 1 PASS: dd1 140/180 us, cruz 540 us / N.A. ({dt:.2f}s)")


def test_criterion_2_tightness_attains_the_bound():
    t0 = time.perf_counter()
    for case_id, bound in ((1, 1.4e-4), (2, 1.8e-4)):
        config = preset(case_id)
        envs = [deterministic_envelope(s) for s in config.specs]
        rates = [s.service_rate_bps for s in config.specs]
        result = simulate_case(tightness_scenario(envs, rates))
        gap = abs(result.delay_s.max() - bound_dd1(envs, rates))
        assert gap <= 1e-9, f"case {case_id}: gap {gap}"
        assert result.delay_s.max() == pytest.approx(bound, abs=1e-9)
    dt = _elapsed_ok(t0, 1.0, "criterion 2")
    print(f"\nACCEPTANCE 2 PASS: burst scenarios reach 140/180 us exactly ({dt:.2f}s)")


def test_criterion_3_no_violations_in_million_customer_runs():
    t0 = time.perf_counter()
    counts = {}
    for case_id, bound in ((1, 1.4e-4), (2, 1.8e-4)):
        result = simulate_case(replace(preset(case_id), customers=1_000_000))
        over = np.count_nonzero(result.delay_s > bound + FLOAT_SLACK_S)
        counts[case_id] = (len(result), over)
        assert over == 0, f"case {case_id}: {over} delays above the bound"
    dt = _elapsed_ok(t0, 30.0, "criterion 3")
    print(
        f"\nACCEPTANCE 3 PASS: 0 exceedances in {counts[1][0]} + {counts[2][0]} "
        f"customers ({dt:.1f}s)"
    )


def test_criterion_4_decay_rate_roots():
    t0 = time.perf_counter()
    exact3, approx3 = theta_md1(preset(3).specs)
    mgf3 = mgf_excess_constant_sizes(preset(3).specs)
    assert abs(mgf3(exact3.theta_star) - 1.0) <= 1e-9
    assert approx3.theta_star == pytest.approx(2702.70, abs=0.01)

    exact4, _ = theta_mm1(preset(4).specs)
    mgf4 = mgf_excess_exponential_sizes(preset(4).specs)
    assert abs(mgf4(exact4.theta_star) - 1.0) <= 1e-9
    assert 0.0 < exact4.theta_star < 1e4
    assert exact4.theta_star == pytest.approx(MM1_EXACT_ORACLE, rel=1e-6)

    theta6 = theta_dmdm(preset(6).specs)
    assert theta6.theta_star == pytest.approx(5000.0, rel=1e-12)
    dt = _elapsed_ok(t0, 1.0, "criterion 4")
    print(
        f"\nACCEPTANCE 4 PASS: roots {exact3.theta_star:.2f}, "
        f"{exact4.theta_star:.4f}, {theta6.theta_star:.1f} /s ({dt:.2f}s)"
    )


def _tail_check(grid, emp, bound, n, p_floor=1e-5):
    """Worst margin of emp over bound+3SE at points with emp above the floor."""
    worst = -np.inf
    for tau, p, b in zip(grid, emp, bound):
        if p <= p_floor:
            continue
        slack = 3.0 * math.sqrt(p * (1.0 - p) / n)
        worst = max(worst, p - b - slack)
    return worst


def test_criterion_5_stochastic_bounds_hold_at_steady_state():
    t0 = time.perf_counter()
    margins = {}

    for case_id, label in ((3, "md1_waiting_exact"), (4, "mm1_waiting_exact")):
        r = run_comparison(preset(case_id))
        emp = r.curve("sim_waiting")
        bound = r.curve(label)
        worst = _tail_check(emp.grid_s, emp.probs, bound.probs, emp.samples)
        margins[case_id] = worst
        assert worst <= 0, f"case {case_id}: empirical exceeds bound by {worst:.2e}"

    r6 = run_comparison(preset(6))
    for cid in (1, 2):
        emp = r6.curve(f"sim_waiting_c{cid}")
        bound = r6.curve(f"mixed_pair_waiting_c{cid}")
        worst = _tail_check(emp.grid_s, emp.probs, bound.probs, emp.samples)
        margins[f"6c{cid}"] = worst
        assert worst <= 0, f"case 6 class {cid}: exceeds bound by {worst:.2e}"

    dt = _elapsed_ok(t0, 120.0, "criterion 5")
    print(f"\nACCEPTANCE 5 PASS: worst margins {margins} ({dt:.1f}s)")


def test_criterion_6_dependence_breaks_only_the_independence_curve():
    t0 = time.perf_counter()
    r = run_comparison(preset(5))
    emp = r.curve("sim_waiting")
    n = emp.samples

    independence = r.curve("md1_waiting_exact")
    worst_ind = _tail_check(emp.grid_s, emp.probs, independence.probs, n)
    assert worst_ind > 0, "coupled run never exceeded the independence curve"

    split = r.curve("split_equal_constant_sizes")
    worst_split = _tail_check(emp.grid_s, emp.probs, split.probs, n)
    assert worst_split <= 0, f"split curve exceeded by {worst_split:.2e}"

    dt = _elapsed_ok(t0, 60.0, "criterion 6")
    print(
        f"\nACCEPTANCE 6 PASS: independence curve exceeded (margin "
        f"{worst_ind:.2e}), split curve holds ({dt:.1f}s)"
    )


def test_criterion_7_transient_delays_increase_toward_steady_state():
    t0 = time.perf_counter()
    config = preset(3)
    reps = 10_000
    grid = np.linspace(0.0, 2.5e-3, 200)
    delays = transient_delays(config, (1, 10, 100), class_id=1, replications=reps)
    curves = {
        j: empirical_ccdf(delays[j], grid, warmup_discard=0.0).fractions
        for j in (1, 10, 100)
    }

    # stochastic increase in j, allowing combined sampling noise
    for lo, hi in ((1, 10), (10, 100)):
        se = 3.0 * np.sqrt(
            curves[lo] * (1 - curves[lo]) / reps + curves[hi] * (1 - curves[hi]) / reps
        )
        assert np.all(curves[lo] <= curves[hi] + se), f"ordering {lo} vs {hi} broken"

    # the 100th customer must not sit above steady state beyond slack
    steady_run = simulate_case(config)
    class1 = steady_run.delay_s[steady_run.class_ids == 1]
    steady = empirical_ccdf(class1, grid, warmup_discard=0.1)
    se = 3.0 * np.sqrt(
        curves[100] * (1 - curves[100]) / reps
        + steady.fractions * (1 - steady.fractions) / steady.sample_count
    )
    assert np.all(curves[100] <= steady.fractions + se)

    gap = float(np.max(steady.fractions - curves[100]))
    dt = _elapsed_ok(t0, 120.0, "criterion 7")
    print(
        f"\nACCEPTANCE 7 PASS: CCDFs nondecreasing in j; j=100 within "
        f"{gap:.3f} below steady state ({dt:.1f}s)"
    )


def _case5_scaled_specs():
    # the coupled case with the spec-default shared-uniform mechanism, which
    # keeps arrival instants distinct as this criterion requires
    out = []
    for s in preset(5).specs:
        arrival = CoupledPoisson(s.arrival.rate_hz, s.arrival.coupling_group, "scaled")
        out.append(ClassSpec(s.class_id, arrival, s.size, s.service_rate_bps))
    return tuple(out)


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    cases = {
        3: (preset(3).specs, preset(3).seed),
        4: (preset(4).specs, preset(4).seed),
        5: (_case5_scaled_specs(), preset(5).seed),
        6: (preset(6).specs, preset(6).seed),
    }
    for case_id, (specs, seed) in cases.items():
        counts = proportional_counts(specs, 10_000)
        seqs = generate_sequences(specs, counts, seed)
        rates = {s.class_id: s.service_rate_bps for s in specs}
        merged = merge_streams(seqs)
        assert np.all(np.diff(merged.times_s) > 0), f"case {case_id}: tied arrivals"
        result = run_fifo(merged, rates)

        virtual = virtual_waits_at_arrivals(seqs, rates)
        max_err = float(np.max(np.abs(virtual - result.waiting_s)))
        assert max_err <= 1e-9, f"case {case_id}: waits differ by {max_err:.2e}"

        bounds = samplepath_bounds_all(seqs, rates)
        over = np.count_nonzero(result.delay_s > bounds + 1e-9)
        assert over == 0, f"case {case_id}: {over} delays above the workload bound"
    dt = _elapsed_ok(t0, 60.0, "criterion 8")
    print(f"\nACCEPTANCE 8 PASS: waits match the workload scan on 4 cases ({dt:.1f}s)")


def test_criterion_9_reduction_identities():
    t0 = time.perf_counter()

    # deterministic tails reproduce the worst-case step exactly
    envs = [deterministic_envelope(s) for s in preset(1).specs]
    rates = [s.service_rate_bps for s in preset(1).specs]
    tails = [DegenerateTail(e.rate_bps, e.burst_bits) for e in envs]
    bound = bound_dd1(envs, rates)
    assert gsbb_bound_split(tails, rates, bound) == 0.0
    assert gsbb_bound_split(tails, rates, np.nextafter(bound, 0.0)) == 1.0

    # single-class reference solver agrees with the multiclass condition
    lam, y = 0.5, 1.0
    spec = ClassSpec(1, Poisson(lam), Constant(y), 1.0)
    multi = theta_exact(mgf_excess_constant_sizes([spec]))
    single, _ = kingman_reference(
        lambda s: lam / (lam - s) if s < lam else math.inf,
        lambda s: math.exp(s * y),
        np.array([0.0, 1.0]),
    )
    assert single.theta_star == pytest.approx(multi.theta_star, rel=1e-9)

    # one-class split curve collapses to the plain waiting curve
    one = ClassSpec(1, Poisson(1e4), Constant(800.0), 10e6)
    grid = np.linspace(0.0, 2e-3, 500)
    _, approx = theta_md1([one])
    np.testing.assert_allclose(
        bound_mstar_d1([one], grid).probs,
        waiting_bound_curve(approx, grid).probs,
        rtol=1e-12,
    )
    dt = _elapsed_ok(t0, 1.0, "criterion 9")
    print(f"\nACCEPTANCE 9 PASS: reductions hold ({dt:.2f}s)")
