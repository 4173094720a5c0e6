import csv
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from mcfifo.analytic import theta_md1
from mcfifo.errors import InvalidInputError, InvalidSpecError
from mcfifo.experiments import (
    FLOAT_SLACK_S,
    CaseConfig,
    case_bound_entries,
    preset,
    run_comparison,
    simulate_case,
    tightness_scenario,
    write_curves_csv,
    write_json,
)
from mcfifo.simulator import RunResult, merge_streams, run_fifo
from mcfifo.traffic import (
    Constant,
    CoupledPoisson,
    DeterministicEnvelope,
    Periodic,
    Poisson,
    deterministic_envelope,
    generate_sequences,
    proportional_counts,
)

# golden preset parameters: any drift here is a regression
GOLDEN = {
    1: [
        ("periodic", 1e-4, "const", 800.0, 20e6),
        ("periodic", 1e-3, "const", 10000.0, 100e6),
    ],
    2: [
        ("periodic", 1e-4, "const", 800.0, 10e6),
        ("periodic", 1e-3, "const", 10000.0, 100e6),
    ],
    3: [
        ("poisson", 1e4, "const", 800.0, 10e6),
        ("poisson", 1e3, "const", 10000.0, 100e6),
    ],
    4: [
        ("poisson", 1e4, "exp", 800.0, 10e6),
        ("poisson", 1e3, "exp", 10000.0, 100e6),
    ],
    5: [
        ("coupled", 1e4, "const", 800.0, 10e6),
        ("coupled", 1e3, "const", 10000.0, 100e6),
    ],
    6: [
        ("periodic", 1e-4, "const", 800.0, 10e6),
        ("poisson", 1e3, "exp", 10000.0, 100e6),
    ],
}


def _fingerprint(spec):
    if isinstance(spec.arrival, Periodic):
        kind, param = "periodic", spec.arrival.period_s
    elif isinstance(spec.arrival, CoupledPoisson):
        kind, param = "coupled", spec.arrival.rate_hz
    elif isinstance(spec.arrival, Poisson):
        kind, param = "poisson", spec.arrival.rate_hz
    size_kind = "const" if isinstance(spec.size, Constant) else "exp"
    size_param = spec.size.bits if size_kind == "const" else spec.size.mean_bits
    return (kind, param, size_kind, size_param, spec.service_rate_bps)


class TestPresets:
    @pytest.mark.parametrize("case_id", range(1, 7))
    def test_golden_parameters(self, case_id):
        config = preset(case_id)
        assert [_fingerprint(s) for s in config.specs] == GOLDEN[case_id]

    def test_case1_rates(self):
        assert preset(1).rates() == {1: 20e6, 2: 100e6}

    def test_case2_utilization(self):
        from mcfifo.analytic import stability

        assert stability(preset(2).specs).rho == pytest.approx(0.9, rel=1e-12)

    def test_case6_mix(self):
        config = preset(6)
        assert config.specs[0].arrival.period_s == pytest.approx(1e-4)
        assert config.specs[1].arrival.rate_hz == pytest.approx(1e3)

    def test_case5_is_coupled_and_synchronized(self):
        config = preset(5)
        for s in config.specs:
            assert isinstance(s.arrival, CoupledPoisson)
            assert s.arrival.mechanism == "synchronized"

    def test_unknown_case_rejected(self):
        with pytest.raises(InvalidSpecError):
            preset(7)


class TestTightness:
    def test_case1_envelopes_attain_the_bound(self):
        config = preset(1)
        envs = [deterministic_envelope(s) for s in config.specs]
        rates = [s.service_rate_bps for s in config.specs]
        scenario = tightness_scenario(envs, rates)
        result = simulate_case(scenario)
        assert result.delay_s.max() == pytest.approx(1.4e-4, abs=1e-9)

    def test_case2_envelopes_attain_the_bound(self):
        config = preset(2)
        envs = [deterministic_envelope(s) for s in config.specs]
        rates = [s.service_rate_bps for s in config.specs]
        result = simulate_case(tightness_scenario(envs, rates))
        assert result.delay_s.max() == pytest.approx(1.8e-4, abs=1e-9)

    def test_single_class(self):
        result = simulate_case(
            tightness_scenario([DeterministicEnvelope(1e6, 5000.0)], [10e6])
        )
        assert result.delay_s.max() == pytest.approx(5e-4, abs=1e-12)


class TestRunComparison:
    def test_case1_summary(self):
        r = run_comparison(replace(preset(1), customers=60_000))
        assert r.values["dd1_bound_s"] == pytest.approx(1.4e-4, rel=1e-12)
        assert r.values["cruz_bound_s"] == pytest.approx(5.4e-4, rel=1e-12)
        assert r.values["delays_above_dd1"] == 0
        assert r.guaranteed_violations == 0
        assert r.values["max_delay_s"] <= 1.4e-4 + FLOAT_SLACK_S

    def test_case2_cruz_not_applicable(self):
        r = run_comparison(replace(preset(2), customers=60_000))
        assert r.values["cruz_bound_s"] == "N.A."
        assert all(c.label != "det_aggregate" for c in r.curves)
        assert r.values["delays_above_dd1"] == 0

    def test_case3_small_run_exact_bound_holds(self):
        r = run_comparison(replace(preset(3), customers=150_000))
        report = next(v for v in r.violations if v.bound_label == "md1_waiting_exact")
        assert report.guaranteed
        assert report.count == 0

    def test_case5_independence_curve_breaks_but_split_holds(self):
        r = run_comparison(replace(preset(5), customers=300_000))
        independent = next(
            v for v in r.violations if v.bound_label == "md1_waiting_exact"
        )
        split = next(
            v for v in r.violations if v.bound_label == "split_equal_constant_sizes"
        )
        assert not independent.guaranteed  # informational under dependence
        assert independent.count > 0
        assert split.count == 0
        assert r.guaranteed_violations == 0

    def test_case6_per_class_curves_present(self):
        r = run_comparison(replace(preset(6), customers=100_000))
        labels = {c.label for c in r.curves}
        assert "mixed_pair_waiting_c1" in labels
        assert "mixed_pair_waiting_c2" in labels
        assert "sim_waiting_c1" in labels and "sim_waiting_c2" in labels
        assert r.values["theta_star_per_s"] == pytest.approx(5000.0, rel=1e-12)

    def test_curve_csv_schema(self, tmp_path):
        r = run_comparison(replace(preset(1), customers=5_000))
        path = tmp_path / "curves.csv"
        write_curves_csv(path, r.curves)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["curve_label", "tau_s", "prob"]
        labels = {row[0] for row in rows[1:]}
        assert "sim_delay" in labels and "det_multiclass" in labels

    def test_summary_json_round_trip(self, tmp_path):
        r = run_comparison(replace(preset(2), customers=5_000))
        path = tmp_path / "summary.json"
        write_json(path, r.summary_dict())
        data = json.loads(path.read_text())
        assert data["stability"]["rho"] == pytest.approx(0.9)
        assert data["values"]["cruz_bound_s"] == "N.A."
        assert data["guaranteed_violations"] == 0

    def test_unknown_bound_name_rejected(self):
        config = replace(preset(1), bounds=("nope",), customers=100)
        with pytest.raises(InvalidSpecError):
            run_comparison(config)


#: Per preset: each bound entry's (label, metric, class_id, guaranteed,
#: approximate, note) in order, then the sorted keys of the scalar values.
BOUND_METADATA = {
    1: (
        [
            ("det_multiclass", "delay", None, True, False, ""),
            ("det_aggregate", "delay", None, True, False, ""),
        ],
        ["cruz_bound_s", "dd1_bound_s"],
    ),
    2: (
        [("det_multiclass", "delay", None, True, False, "")],
        ["cruz_bound_s", "dd1_bound_s"],
    ),
    3: (
        [
            ("md1_waiting_exact", "waiting", None, True, False, ""),
            ("md1_waiting_approx", "waiting", None, False, True, ""),
            ("md1_delay_exact_c1", "delay", 1, True, False, ""),
            ("md1_delay_exact_c2", "delay", 2, True, False, ""),
        ],
        ["md1_theta_approx_per_s", "md1_theta_exact_per_s", "theta_star_per_s"],
    ),
    4: (
        [
            ("mm1_waiting_exact", "waiting", None, True, False, ""),
            ("mm1_waiting_approx", "waiting", None, False, True, ""),
        ],
        ["mm1_theta_approx_per_s", "mm1_theta_exact_per_s", "theta_star_per_s"],
    ),
    5: (
        [
            ("md1_waiting_exact", "waiting", None, False, False, "assumes independent classes"),
            ("md1_waiting_approx", "waiting", None, False, True, "assumes independent classes"),
            (
                "split_equal_constant_sizes",
                "waiting",
                None,
                False,
                True,
                "valid under any cross-class dependence",
            ),
        ],
        [
            "md1_theta_approx_per_s",
            "md1_theta_exact_per_s",
            "split_theta_per_s",
            "theta_star_per_s",
        ],
    ),
    6: (
        [
            ("mixed_pair_waiting_c1", "waiting", 1, True, False, ""),
            ("mixed_pair_waiting_c2", "waiting", 2, True, False, ""),
        ],
        ["theta_star_per_s"],
    ),
}


class TestBoundRegistry:
    @pytest.mark.parametrize("case_id", sorted(BOUND_METADATA))
    def test_preset_entries_pinned(self, case_id):
        entries, values = case_bound_entries(preset(case_id))
        got = [
            (e.label, e.metric, e.class_id, e.guaranteed, e.approximate, e.note)
            for e in entries
        ]
        assert (got, sorted(values)) == BOUND_METADATA[case_id]
        assert all(e.kind == "bound" for e in entries)

    def test_split_theta_is_the_second_order_md1_rate(self):
        config = preset(5)
        _, values = case_bound_entries(config)
        assert values["split_theta_per_s"] == theta_md1(config.specs)[1].theta_star


class TestBurstTailSplitAgainstSimulation:
    def test_exact_tail_split_bounds_case3_delays(self):
        # exact per-class burst tails at equalized reference shares give a
        # dependence-tolerant delay bound; it must dominate the simulated
        # delay tail (margins here are a few percent, robust across seeds)
        from mcfifo.analytic import equalized_weights, gsbb_split_curve
        from mcfifo.traffic import gsbb_tail_from_mgf

        config = replace(preset(3), customers=300_000)
        specs = config.specs
        rho = sum(s.utilization for s in specs)
        curvature = sum(s.arrival_rate_hz * s.mean_service_s**2 for s in specs)
        weights = equalized_weights(specs, 2.0 * (1.0 - rho) / curvature)
        tails = [
            gsbb_tail_from_mgf(s, w * s.service_rate_bps, method="exact")
            for s, w in zip(specs, weights)
        ]
        rates = [s.service_rate_bps for s in specs]

        r = run_comparison(config)
        emp = r.curve("sim_delay")
        split = gsbb_split_curve(tails, rates, emp.grid_s)
        for tau, p, b in zip(emp.grid_s, emp.probs, split.probs):
            if p <= 1e-5 or p >= 1 - 1e-12:
                continue
            slack = 3.0 * np.sqrt(p * (1.0 - p) / emp.samples)
            assert p <= b + slack, f"split bound broken at tau={tau}"


class TestCaseConfig:
    def test_grid_span(self):
        config = CaseConfig(case_id="x", specs=preset(1).specs, tau_max_s=2e-4)
        grid = config.grid()
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(2e-4)

    def test_simulation_is_deterministic_in_seed(self):
        config = replace(preset(5), customers=20_000)
        a = simulate_case(config)
        b = simulate_case(config)
        np.testing.assert_array_equal(a.waiting_s, b.waiting_s)
        c = simulate_case(replace(config, seed=123))
        assert len(c) != len(a) or not np.array_equal(c.waiting_s, a.waiting_s)

    @pytest.mark.parametrize("case_id", [3, 5, 6])
    def test_horizon_cut_is_a_prefix_of_the_full_run(self, case_id):
        # cutting the merged stream before the queue keeps the full run's
        # customers up to the smallest last arrival, bit for bit in every
        # field: FIFO is causal
        config = replace(preset(case_id), customers=20_000)
        counts = proportional_counts(config.specs, config.customers)
        seqs = generate_sequences(config.specs, counts, config.seed)
        full = run_fifo(merge_streams(seqs), config.rates())
        horizon = min(seq.times_s[-1] for seq in seqs)
        n = int(np.count_nonzero(full.arrival_s <= horizon))
        cut = simulate_case(config)
        assert 0 < n < len(full) and len(cut) == n
        for field in fields(RunResult):
            kept = getattr(cut, field.name)
            assert kept.tobytes() == getattr(full, field.name)[:n].tobytes(), field.name

    def test_duplicate_class_ids_rejected(self):
        spec = preset(3).specs[0]
        with pytest.raises(InvalidSpecError, match="duplicate class_id 1"):
            CaseConfig(case_id="x", specs=(spec, spec))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tau_max_s", 0.0),
            ("tau_max_s", float("nan")),
            ("tau_max_s", float("inf")),
            ("warmup_fraction", 1.0),
            ("warmup_fraction", -0.1),
            ("warmup_fraction", float("nan")),
            ("grid_points", 1),
            ("grid_points", 2.5),
            ("customers", 0),
            ("customers", float("inf")),
            ("replications", 0),
            ("seed", -1),
            ("seed", 1.5),
            ("specs", ()),
        ],
    )
    def test_invalid_run_parameters_rejected(self, field, value):
        with pytest.raises(InvalidSpecError, match=field):
            replace(preset(3), **{field: value})

    def test_class_without_arrivals_rejected(self):
        # three customers of case 5: the thinned class keeps no instant
        with pytest.raises(InvalidInputError, match="class 2 has no arrivals"):
            simulate_case(replace(preset(5), customers=3, seed=3))
