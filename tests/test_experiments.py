import csv
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcfifo.analytic import theta_md1
from mcfifo.cli import EXIT_CONFIG, main
from mcfifo.errors import InvalidInputError, InvalidSpecError
from mcfifo.experiments import (
    FLOAT_SLACK_S,
    NOISE_FLOOR_COUNT,
    CaseConfig,
    CurveEntry,
    ViolationPoint,
    _check_violations,
    _empirical_entries,
    case_bound_entries,
    preset,
    run_comparison,
    simulate_case,
    tightness_scenario,
    write_curves_csv,
    write_json,
)
from mcfifo.simulator import (
    MergedArrivals,
    RunResult,
    empirical_ccdf,
    fifo_waits,
    merge_streams,
    run_fifo,
    transient_delays,
)
from mcfifo.traffic import (
    ClassSpec,
    Constant,
    CoupledPoisson,
    DeterministicEnvelope,
    ExponentialMean,
    Periodic,
    Poisson,
    deterministic_envelope,
    generate_sequences,
    proportional_counts,
)
from mcfifo.units import bits_from_bytes, bps_from_mbps, seconds_from_ms

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
        result = tightness_scenario(envs, rates)
        assert result.delay_s.max() == pytest.approx(1.4e-4, abs=1e-9)

    def test_case2_envelopes_attain_the_bound(self):
        config = preset(2)
        envs = [deterministic_envelope(s) for s in config.specs]
        rates = [s.service_rate_bps for s in config.specs]
        result = tightness_scenario(envs, rates)
        assert result.delay_s.max() == pytest.approx(1.8e-4, abs=1e-9)

    def test_single_class(self):
        result = tightness_scenario([DeterministicEnvelope(1e6, 5000.0)], [10e6])
        assert result.delay_s.max() == pytest.approx(5e-4, abs=1e-12)

    def test_one_rate_per_envelope(self):
        envs = [DeterministicEnvelope(1e6, 5000.0)] * 2
        with pytest.raises(InvalidInputError, match="need one rate per envelope"):
            tightness_scenario(envs, [10e6])


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

    def test_delay_beyond_the_rounding_slack_is_flagged(self, monkeypatch):
        config = replace(preset(2), customers=2000, tau_max_s=1.8e-4)
        bound = run_comparison(config).values["dd1_bound_s"]

        def late(config):
            result = simulate_case(config)
            # the last customer leaves two slacks after the bound
            result.waiting_s[-1] = bound + 2 * FLOAT_SLACK_S - result.service_s[-1]
            return result

        monkeypatch.setattr("mcfifo.experiments.simulate_case", late)
        r = run_comparison(config)
        report = next(v for v in r.violations if v.bound_label == "det_multiclass")
        assert [p.tau_s for p in report.points] == [config.tau_max_s]
        assert r.values["delays_above_dd1"] == 1
        assert r.guaranteed_violations == 2

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

    def test_curve_csv_bytes_equal_row_by_row_reference(self, tmp_path):
        # two distinct grids, one of them repeated, and a label csv must quote
        grid = np.linspace(0.0, 1e-3, 7)
        other = np.linspace(0.0, 3e-3, 5)
        probs = np.linspace(1.0, 1 / 3, 7)
        entries = [
            CurveEntry("a", "bound", "delay", None, grid, probs),
            CurveEntry('b, "quoted"', "bound", "waiting", 1, other, np.full(5, 0.1)),
            CurveEntry("c", "empirical", "delay", 2, grid.copy(), probs**2),
        ]
        path = tmp_path / "curves.csv"
        write_curves_csv(path, entries)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["curve_label", "tau_s", "prob"])
            for entry in entries:
                for tau, p in zip(entry.grid_s, entry.probs):
                    writer.writerow([entry.label, repr(float(tau)), repr(float(p))])
        assert path.read_bytes() == reference.read_bytes()
        assert b'"b, ""quoted""",0.0,0.1' in path.read_bytes()

    def test_json_outputs_refuse_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "summary.json", {"case_id": float("nan")})

    def test_summary_json_round_trip(self, tmp_path):
        r = run_comparison(replace(preset(2), customers=5_000))
        path = tmp_path / "summary.json"
        write_json(path, r.summary_dict())
        data = json.loads(path.read_text())
        assert data["stability"]["rho"] == pytest.approx(0.9)
        assert data["values"]["cruz_bound_s"] == "N.A."
        assert data["guaranteed_violations"] == 0

    def test_unknown_bound_name_rejected(self):
        # md1 tells coupled classes apart itself, so md1_independent is no bound name
        for name in ("nope", "md1_independent"):
            with pytest.raises(InvalidSpecError, match=f"unknown bound name '{name}'"):
                replace(preset(1), bounds=(name,), customers=100)

    def test_transient_curves_follow_the_long_run(self):
        config = replace(preset(3), customers=20_000, replications=200)
        comparison = run_comparison(config)
        delays = transient_delays(config, (1, 10, 100), 1, 200)
        labels = [f"sim_delay_c1_j{j}" for j in (1, 10, 100)]
        assert [c.label for c in comparison.curves[-3:]] == labels
        for j, label in zip((1, 10, 100), labels):
            curve = comparison.curve(label)
            expected = empirical_ccdf(delays[j], config.grid(), 0.0).fractions
            assert curve.probs.tobytes() == expected.tobytes()
            assert (curve.kind, curve.metric, curve.class_id, curve.samples) == (
                "empirical",
                "delay",
                1,
                200,
            )
            assert curve.note == f"delay of the {j}-th class-1 customer"
        # the bounds are still checked against the long run's curves
        single = run_comparison(replace(config, replications=1))
        assert comparison.violations == single.violations
        same = [(c.label, c.probs.tobytes()) for c in single.curves]
        assert [(c.label, c.probs.tobytes()) for c in comparison.curves[:-3]] == same

    def test_deterministic_case_has_no_transient_curves(self):
        config = replace(preset(1), customers=20_000, replications=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comparison = run_comparison(config)
        single = run_comparison(replace(config, replications=1))
        assert [c.label for c in comparison.curves] == [c.label for c in single.curves]


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

    @pytest.mark.parametrize(
        "name,message",
        [
            ("md1", "class 2: size kind Constant required"),
            ("mm1", "class 1: size kind ExponentialMean required"),
        ],
    )
    def test_poisson_builders_reject_mixed_sizes(self, name, message):
        # class 1 of case 3 (constant sizes), class 2 of case 4 (exponential)
        specs = (preset(3).specs[0], preset(4).specs[1])
        with pytest.raises(InvalidSpecError, match=f"^{message}$"):
            case_bound_entries(CaseConfig("mixed", specs, bounds=(name,)))

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


class TestEmpiricalEntries:
    def test_every_curve_is_the_ccdf_of_its_own_samples(self):
        """The aggregate is counted from the class sorts; each curve must
        still equal empirical_ccdf of its samples, with the aggregate's
        warmup boundary both before and after each class's own."""
        boundary_sides = set()
        for base in [preset(case_id) for case_id in range(1, 7)] + _uneven_configs():
            for warmup in (0.0, 0.1, 0.5, 0.9):
                config = replace(base, customers=20_000, warmup_fraction=warmup)
                result = simulate_case(config)
                entries = _empirical_entries(config, result)
                by_key = {(e.metric, e.class_id): e for e in entries}
                assert len(by_key) == len(entries) == 2 * (1 + len(config.specs))
                skip = int(len(result) * warmup)
                samples = {None: np.ones(len(result), dtype=bool)}
                for s in config.specs:
                    mask = result.class_ids == s.class_id
                    samples[s.class_id] = mask
                    if isinstance(s.size, Constant):
                        # the delay curve shifts the sorted waits by this service time
                        service = s.size.bits / s.service_rate_bps
                        assert np.all(result.service_s[mask] == service)
                    # e_c vs d_c: where the aggregate's boundary falls in class c
                    e = np.count_nonzero(mask[:skip])
                    boundary_sides.add(np.sign(e - int(np.count_nonzero(mask) * warmup)))
                metrics = (("delay", result.delay_s), ("waiting", result.waiting_s))
                for metric, values in metrics:
                    for cid, mask in samples.items():
                        want = empirical_ccdf(values[mask], config.grid(), warmup)
                        got = by_key[metric, cid]
                        assert np.array_equal(got.probs, want.fractions), (case_id, warmup, cid)
                        assert got.samples == want.sample_count
        assert {-1, 1} <= boundary_sides

    def test_constant_service_delays_are_counted_from_the_waits(self, monkeypatch):
        def refuse(self):
            raise AssertionError("delay_s was built")

        results = {k: simulate_case(replace(preset(k), customers=20_000)) for k in (1, 2, 3, 5, 6)}
        monkeypatch.setattr(RunResult, "delay_s", property(refuse))
        for case_id in (1, 2, 3, 5):
            _empirical_entries(preset(case_id), results[case_id])
        # preset 6 has an exponential class, whose delays must be sorted
        with pytest.raises(AssertionError, match="delay_s was built"):
            _empirical_entries(preset(6), results[6])


def _uneven_configs() -> list[CaseConfig]:
    """Constant sizes whose service times are not round numbers, alone and
    mixed with exponential sizes."""
    uneven = ClassSpec(1, Poisson(1e3), Constant(bits_from_bytes(333)), bps_from_mbps(7))
    return [
        CaseConfig(
            "uneven",
            (uneven, ClassSpec(2, Poisson(500), Constant(bits_from_bytes(77)), bps_from_mbps(3))),
        ),
        CaseConfig(
            "mixed-sizes",
            (
                uneven,
                ClassSpec(
                    2, Poisson(800), ExponentialMean(bits_from_bytes(513)), bps_from_mbps(9)
                ),
            ),
        ),
    ]


def _violations_reference(bound, target, deterministic):
    """The point-by-point check: floor, binomial 3-SE slack, exceedance."""
    points, checked = [], 0
    n = max(1, target.samples)
    floor = 0.0 if deterministic else NOISE_FLOOR_COUNT / n
    for tau, emp, b in zip(target.grid_s, target.probs, bound.probs):
        if emp <= floor:
            continue
        checked += 1
        slack = 0.0 if deterministic else 3.0 * math.sqrt(emp * (1.0 - emp) / n)
        if emp > b + slack:
            points.append(ViolationPoint(float(tau), float(emp), float(b), slack))
    return checked, tuple(points)


class TestCheckViolations:
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_matches_the_pointwise_check(self, deterministic):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 400)
        samples = 5000
        emp = np.sort(rng.integers(0, samples + 1, len(grid)))[::-1] / samples
        emp[-50:] = 0.0
        bound_probs = np.clip(emp + rng.normal(0.0, 0.01, len(grid)), 0.0, 1.0)
        target = CurveEntry("t", "empirical", "waiting", None, grid, emp, samples=samples)
        bound = CurveEntry("b", "bound", "waiting", None, grid, bound_probs, guaranteed=True)
        report = _check_violations(bound, target, math.inf if deterministic else None)
        checked, points = _violations_reference(bound, target, deterministic)
        assert 0 < len(points) < checked < len(grid)
        assert (report.checked_points, report.points) == (checked, points)

    def test_matches_the_pointwise_check_on_case5(self):
        config = replace(preset(5), customers=50_000)
        entries = _empirical_entries(config, simulate_case(config))
        targets = {(e.metric, e.class_id): e for e in entries}
        bounds, _ = case_bound_entries(config)
        for bound in bounds:
            target = targets[bound.metric, bound.class_id]
            report = _check_violations(bound, target, None)
            checked, points = _violations_reference(bound, target, False)
            assert (report.checked_points, report.points) == (checked, points)


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

    @pytest.mark.parametrize("case_id", range(1, 7))
    def test_horizon_cut_is_a_prefix_of_the_full_run(self, case_id):
        # simulate_case trims each class at the horizon before the merge; it
        # must keep the full run's customers up to the smallest last
        # arrival, bit for bit in every column: FIFO is causal. The full run
        # is merged inline, by a stable argsort and a gather of each column
        config = replace(preset(case_id), customers=20_000)
        counts = proportional_counts(config.specs, config.customers)
        seqs = sorted(
            generate_sequences(config.specs, counts, config.seed), key=lambda q: q.class_id
        )
        rates = config.rates()
        times = np.concatenate([q.times_s for q in seqs])
        order = np.argsort(times, kind="stable")
        full = {
            "arrival_s": times,
            "service_s": np.concatenate([q.sizes_bits / rates[q.class_id] for q in seqs]),
            "class_ids": np.concatenate([np.full(len(q), q.class_id) for q in seqs]),
            "class_index": np.concatenate([np.arange(1, len(q) + 1) for q in seqs]),
        }
        full = {name: column[order] for name, column in full.items()}
        full["waiting_s"] = fifo_waits(full["arrival_s"], full["service_s"])
        full["delay_s"] = full["waiting_s"] + full["service_s"]
        horizon = min(q.times_s[-1] for q in seqs)
        n = int(np.count_nonzero(full["arrival_s"] <= horizon))
        cut = simulate_case(config)
        assert 0 < n < len(times) and len(cut) == n
        for name, column in full.items():
            kept = getattr(cut, name)
            assert kept.dtype == column.dtype, name
            assert kept.tobytes() == column[:n].tobytes(), name

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
            ("customers", True),
            ("grid_points", True),
            ("replications", True),
            ("seed", True),
            ("seed", False),
        ],
    )
    def test_invalid_run_parameters_rejected(self, field, value):
        with pytest.raises(InvalidSpecError, match=field):
            replace(preset(3), **{field: value})

    @pytest.mark.parametrize(
        "bounds,message",
        [
            (("nope",), "unknown bound name 'nope'"),
            # unhashable: rejected as a name, not a TypeError of the registry lookup
            ((["md1"],), r"unknown bound name \['md1'\]"),
            # a repeat would count every violation of its curves twice
            (("md1", "md1"), "duplicate bound name 'md1'"),
            (("md1", "split_constant", "md1"), "duplicate bound name 'md1'"),
        ],
    )
    def test_invalid_bound_names_rejected(self, bounds, message):
        with pytest.raises(InvalidSpecError, match=message):
            replace(preset(5), bounds=bounds)

    @pytest.mark.parametrize(
        "arrivals,message",
        [
            # class 1 of case 5 stays alone in its group
            ((None, Poisson(10_000.0)), "a coupling group needs at least 2 classes"),
            (
                (CoupledPoisson(10_000.0, 1, "scaled"), None),
                "all specs in a group must use the same mechanism",
            ),
        ],
    )
    def test_bad_coupling_group_rejected(self, arrivals, message):
        # rejected with the config, before any arrival is drawn
        specs = tuple(
            s if a is None else replace(s, arrival=a) for s, a in zip(preset(5).specs, arrivals)
        )
        with pytest.raises(InvalidSpecError, match=message):
            replace(preset(5), specs=specs)

    def test_class_without_arrivals_rejected(self, tmp_path, capsys):
        # three customers of case 5: the thinned class keeps no instant
        with pytest.raises(InvalidInputError, match="class 2 has no arrivals"):
            simulate_case(replace(preset(5), customers=3, seed=3))
        # three customers of case 6: the Poisson class first arrives after
        # the periodic class's last arrival, the horizon, so the run would
        # hold none of it and its bound would go unchecked
        horizon = "class 2 has no arrivals before the horizon"
        with pytest.raises(InvalidInputError, match=horizon):
            simulate_case(replace(preset(6), customers=3, seed=2))
        args = ["compare", "--case", "6", "--customers", "3", "--seed", "2", "--grid-points", "50"]
        assert main(args + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert horizon in capsys.readouterr().err


def _readme_config() -> dict:
    """The config-file example of the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])


class TestFromDict:
    #: the classes of the README example, built in Python
    SPECS = (
        ClassSpec(
            1, Periodic(seconds_from_ms(0.1)), Constant(bits_from_bytes(100)), bps_from_mbps(20)
        ),
        ClassSpec(2, Poisson(1000.0), ExponentialMean(bits_from_bytes(1250)), bps_from_mbps(100)),
    )

    def test_readme_example_is_the_python_config(self):
        expected = CaseConfig(
            "custom",
            self.SPECS,
            customers=1_000_000,
            tau_max_s=seconds_from_ms(3.5),
            bounds=("mixed_pair",),
        )
        assert CaseConfig.from_dict(_readme_config()) == expected

    def test_absent_keys_take_the_dataclass_defaults(self):
        classes = _readme_config()["classes"]
        assert CaseConfig.from_dict({"classes": classes}) == CaseConfig("custom", self.SPECS)
        classes[1]["arrival"] = {"kind": "coupled_poisson", "rate_per_s": 10, "coupling_group": 1}
        # a coupling group needs a second class
        classes[0]["arrival"] = {"kind": "coupled_poisson", "rate_per_s": 5, "coupling_group": 1}
        coupled = CaseConfig.from_dict({"classes": classes}).specs[1].arrival
        assert coupled == CoupledPoisson(10.0, 1)

    @pytest.mark.parametrize(
        "field,obj",
        [
            ("arrival", {"kind": "periodic", "period_ms": 1.0}),
            ("arrival", {"kind": "poisson", "rate_per_s": 1000}),
            ("arrival", {"kind": "coupled_poisson", "rate_per_s": 1000, "coupling_group": 1}),
            ("size", {"kind": "constant", "packet_bytes": 1250}),
            ("size", {"kind": "exponential", "mean_packet_bytes": 1250}),
        ],
    )
    def test_each_kind_requires_its_keys(self, field, obj):
        data = _readme_config()
        cls = data["classes"][1]
        cls["size"] = {"kind": "constant", "packet_bytes": 1250}  # any arrival kind takes it
        cls[field] = obj
        if obj["kind"] == "coupled_poisson":  # a coupling group needs a second class
            data["classes"][0]["arrival"] = {**obj, "rate_per_s": 5000}
        CaseConfig.from_dict(data)
        for key in set(obj) - {"kind"}:
            cls[field] = {k: v for k, v in obj.items() if k != key}
            with pytest.raises(InvalidSpecError, match=f"class 2 {field}: missing key '{key}'"):
                CaseConfig.from_dict(data)


def test_comparison_and_replications_build_no_class_columns(monkeypatch):
    # the long run and the replications work from source and segments; the
    # class-id and j columns are derived for records.csv and tests only
    def refuse(self):
        raise AssertionError("a per-customer class column was built")

    for owner in (MergedArrivals, RunResult):
        for name in ("class_ids", "class_index"):
            monkeypatch.setattr(owner, name, property(refuse))
    with pytest.raises(AssertionError, match="class column"):
        simulate_case(replace(preset(3), customers=1000)).class_index
    for case_id in range(1, 7):
        run_comparison(replace(preset(case_id), customers=20_000))
    for case_id in (3, 5):
        transient_delays(preset(case_id), (1, 10, 100), 1, 500)
