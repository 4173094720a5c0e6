import csv
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcfifo import experiments, simulator
from mcfifo.analytic import theta_md1
from mcfifo.cli import EXIT_CONFIG, main
from mcfifo.errors import (
    ConditionNotMetError,
    InvalidInputError,
    InvalidSpecError,
    NoPositiveRootError,
    UnsupportedEnvelopeError,
)
from mcfifo.experiments import (
    FLOAT_SLACK_S,
    NOISE_FLOOR_COUNT,
    CaseConfig,
    CurveEntry,
    ViolationPoint,
    _TailCounts,
    _check_violations,
    case_bound_entries,
    preset,
    run_comparison,
    simulate,
    simulate_case,
    tightness_scenario,
    write_curves_csv,
    write_json,
)
from mcfifo.simulator import (
    FIFO_BLOCK,
    RunResult,
    _class_columns,
    empirical_ccdf,
    fifo_waits,
    fifo_windows,
    merge_streams,
    run_fifo,
    transient_delays,
)
from mcfifo.traffic import (
    COUPLING_MECHANISMS,
    ArrivalSequence,
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
from reference import whole_run_comparison, whole_run_simulation

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



@pytest.fixture
def simulated_curves(monkeypatch, tmp_path):
    """simulate's curves of a config, with no rows of records.csv formatted:
    tests of the curves alone skip most of simulate's time."""
    monkeypatch.setattr(simulator, "write_records", lambda *columns: None)
    return lambda config: simulate(config, tmp_path / "records.csv")[0]

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

    @pytest.mark.parametrize("case_id,bound", [(1, 1.4e-4), (2, 1.8e-4)])
    @pytest.mark.parametrize("steps_below", [None, 0, 1])
    def test_periodic_case_is_judged_customer_by_customer(self, case_id, bound, steps_below):
        # the grid ends at the preset's tau_max, at the D/D/1 bound, which
        # the run attains up to rounding, or one preset grid step below it
        config = replace(preset(case_id), customers=20_000)
        if steps_below is not None:
            step = config.tau_max_s / (config.grid_points - 1)
            config = replace(config, tau_max_s=bound - steps_below * step)
        r = run_comparison(config)
        assert r.values["dd1_bound_s"] == pytest.approx(bound, rel=1e-12)
        assert r.violations == ()
        assert r.guaranteed_violations == r.values["delays_above_dd1"] == 0

    def test_delay_beyond_the_rounding_slack_is_flagged(self, monkeypatch):
        config = replace(preset(2), customers=2000, tau_max_s=1.8e-4)
        bound = run_comparison(config).values["dd1_bound_s"]

        def late(streams, rates, size=None):
            # one window: its last customer, the run's, leaves two slacks after the bound
            for window in fifo_windows(streams, rates, size):
                window.waiting_s[-1] = bound + 2 * FLOAT_SLACK_S - window.service_s[-1]
                yield window

        monkeypatch.setattr("mcfifo.experiments.fifo_windows", late)
        r = run_comparison(config)
        # a periodic case is judged customer by customer, not on the grid
        assert r.violations == ()
        assert r.values["delays_above_dd1"] == 1
        assert r.guaranteed_violations == 1

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
            ("md1_delay_exact_c1", "delay", 1, False, False, "assumes independent classes"),
            ("md1_delay_exact_c2", "delay", 2, False, False, "assumes independent classes"),
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


# case 3 with class 1 at 14,000 arrivals/s: load 1.12 + 0.1 = 1.22
_OVERLOADED_SPECS = (replace(preset(3).specs[0], arrival=Poisson(1.4e4)), preset(3).specs[1])
# case 1 with class 1 served at 5 Mbit/s: rate shares 1.6 + 0.1
_SHARES_ABOVE_ONE_SPECS = (
    replace(preset(1).specs[0], service_rate_bps=bps_from_mbps(5)),
    preset(1).specs[1],
)


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
            ("md1", "bound md1: class 2: size kind Constant required"),
            ("mm1", "bound mm1: class 1: size kind ExponentialMean required"),
        ],
    )
    def test_poisson_builders_reject_mixed_sizes(self, name, message):
        # class 1 of case 3 (constant sizes), class 2 of case 4 (exponential)
        specs = (preset(3).specs[0], preset(4).specs[1])
        with pytest.raises(InvalidSpecError, match=f"^{message}$"):
            case_bound_entries(CaseConfig("mixed", specs, bounds=(name,)))

    @pytest.mark.parametrize(
        "name,specs,error,message",
        [
            (
                "deterministic",
                preset(3).specs,
                UnsupportedEnvelopeError,
                "class 1: only periodic constant-size classes have a deterministic envelope",
            ),
            (
                "deterministic",
                _SHARES_ABOVE_ONE_SPECS,
                ConditionNotMetError,
                "sum of per-class rate shares exceeds 1",
            ),
            ("md1", _OVERLOADED_SPECS, NoPositiveRootError, r"utilization 1\.22 is not below 1"),
            (
                "mixed_pair",
                preset(4).specs,
                InvalidSpecError,
                "need one periodic constant-size class and one Poisson exponential-size class",
            ),
        ],
        ids=[
            "deterministic-poisson",
            "deterministic-shares",
            "md1-overloaded",
            "mixed_pair-poisson",
        ],
    )
    def test_failing_build_names_its_bound(self, name, specs, error, message):
        with pytest.raises(error, match=f"^bound {name}: {message}$") as info:
            case_bound_entries(CaseConfig("bad", specs, bounds=(name,)))
        assert type(info.value) is error

    def test_a_bound_that_cannot_be_built_fails_before_the_run(self, monkeypatch):
        def no_run(config):
            pytest.fail("the run was drawn for a bound that cannot be built")

        monkeypatch.setattr(experiments, "_windows", no_run)
        config = CaseConfig("overloaded", _OVERLOADED_SPECS, bounds=("md1",))
        with pytest.raises(NoPositiveRootError, match="^bound md1: utilization"):
            run_comparison(config)

    def test_guaranteed_is_decided_by_the_registry_row(self, monkeypatch):
        row = replace(experiments.BOUNDS["md1"], dependence=frozenset(COUPLING_MECHANISMS))
        monkeypatch.setitem(experiments.BOUNDS, "md1", row)
        entries, _ = case_bound_entries(preset(5))
        flags = {e.label: (e.guaranteed, e.note) for e in entries}
        assert flags["md1_waiting_exact"] == (True, "")
        # approximate curves stay informational whatever the row allows
        assert flags["md1_waiting_approx"] == (False, "")
        split = (False, "valid under any cross-class dependence")
        assert flags["split_equal_constant_sizes"] == split

    def test_a_row_proves_the_mechanisms_of_its_set_only(self, monkeypatch):
        # md1 allowing synchronized coupling proves case 5's curves, and not
        # those of the same pair coupled scaled: a bool cannot say this
        row = replace(experiments.BOUNDS["md1"], dependence=frozenset({"synchronized"}))
        monkeypatch.setitem(experiments.BOUNDS, "md1", row)
        synchronized = preset(5)
        scaled = replace(synchronized, specs=tuple(
            replace(s, arrival=replace(s.arrival, mechanism="scaled")) for s in synchronized.specs
        ))
        independent = "assumes independent classes"
        for config, want in ((synchronized, (True, "")), (scaled, (False, independent))):
            entries, _ = case_bound_entries(config)
            flags = {e.label: (e.guaranteed, e.note) for e in entries}
            for label in ("md1_waiting_exact", "md1_delay_exact_c1", "md1_delay_exact_c2"):
                assert flags[label] == want, (config.specs[0].arrival.mechanism, label)
            assert flags["md1_waiting_approx"] == (False, want[1])

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


def _assert_empirical_curves(config: CaseConfig, result: RunResult, entries) -> set[int]:
    """Each empirical curve of entries must equal empirical_ccdf of its
    samples, the class-masked waits or delays of result. Returns the sides,
    -1, 0 or 1, on which the aggregate's warmup boundary fell of each
    class's own."""
    by_key = {(e.metric, e.class_id): e for e in entries if e.kind == "empirical"}
    assert len(by_key) == 2 * (1 + len(config.specs))
    warmup = config.warmup_fraction
    skip = int(len(result) * warmup)
    samples = {None: np.ones(len(result), dtype=bool)}
    sides = set()
    for s in config.specs:
        mask = _class_columns(result.source, result.segments)[0] == s.class_id
        samples[s.class_id] = mask
        if isinstance(s.size, Constant):
            # the delay curve shifts the sorted waits by this service time
            service = s.size.bits / s.service_rate_bps
            assert np.all(result.service_s[mask] == service)
        # e_c vs d_c: where the aggregate's boundary falls in class c
        e = np.count_nonzero(mask[:skip])
        sides.add(np.sign(e - int(np.count_nonzero(mask) * warmup)))
    metrics = (("delay", result.delay_s), ("waiting", result.waiting_s))
    for metric, values in metrics:
        for cid, mask in samples.items():
            want = empirical_ccdf(values[mask], config.grid(), warmup)
            got = by_key[metric, cid]
            assert np.array_equal(got.probs, want.fractions), (config.case_id, warmup, cid)
            assert got.samples == want.sample_count
            p = want.fractions
            se = np.sqrt(p * (1.0 - p) / want.sample_count)
            assert got.se.tobytes() == se.tobytes(), (config.case_id, warmup, cid)
    return sides


class TestEmpiricalEntries:
    def test_every_curve_is_the_ccdf_of_its_own_samples(self, monkeypatch, simulated_curves):
        """The aggregate is counted from the class sorts; each curve must
        still equal empirical_ccdf of its samples, with the aggregate's
        warmup boundary both before and after each class's own. So must
        those of a class below 1 % of the arrivals in windows of one block,
        whose parts hold a few customers or none, in simulate and in the
        comparison."""
        boundary_sides = set()
        for base in [preset(case_id) for case_id in range(1, 7)] + _uneven_configs():
            for warmup in (0.0, 0.1, 0.5, 0.9):
                config = replace(base, customers=20_000, warmup_fraction=warmup)
                result, entries = simulate_case(config), simulated_curves(config)
                assert len(entries) == 2 * (1 + len(config.specs))
                boundary_sides |= _assert_empirical_curves(config, result, entries)
        assert {-1, 1} <= boundary_sides
        monkeypatch.setattr(simulator, "CHUNK", FIFO_BLOCK)
        rare = CaseConfig("rare", (
            ClassSpec(1, Poisson(1e4), Constant(800.0), 1e7),
            ClassSpec(2, Poisson(60.0), ExponentialMean(8000.0), 1e8),
        ), customers=20_000)
        for warmup in (0.0, 0.1, 0.9):
            config = replace(rare, warmup_fraction=warmup)
            result, entries = simulate_case(config), simulated_curves(config)
            _assert_empirical_curves(config, result, entries)
            _assert_empirical_curves(config, result, run_comparison(config).curves)

    def test_windows_equal_the_whole_run(self, monkeypatch):
        """run_comparison draws, merges, scans and counts the run a window
        at a time, and simulate_case collects the windows: with windows of
        three blocks, every curve with its se, every value and violation
        with its worst point, and every array of the run must be those of
        the run computed whole, with the aggregate's warmup boundary both
        before and after each class's own."""
        monkeypatch.setattr(simulator, "CHUNK", 3 * FIFO_BLOCK)
        configs = [preset(case_id) for case_id in range(1, 7)] + _uneven_configs()
        boundary_sides = set()
        for base in configs + _COUPLED_CONFIGS:
            for warmup in (0.0, 0.1, 0.5, 0.9):
                config = replace(base, customers=20_000, warmup_fraction=warmup)
                got, want = run_comparison(config), whole_run_comparison(config, 3 * FIFO_BLOCK)
                assert got.values == want.values
                assert got.violations == want.violations
                assert [c.label for c in got.curves] == [c.label for c in want.curves]
                for a, b in zip(got.curves, want.curves):
                    assert a.probs.tobytes() == b.probs.tobytes(), (config.case_id, a.label)
                    assert a.samples == b.samples
                    assert (a.se is None) == (b.se is None)
                    if a.se is not None:
                        assert a.se.tobytes() == b.se.tobytes(), (config.case_id, a.label)
                result, whole = simulate_case(config), whole_run_simulation(config)
                assert len(result) > 3 * simulator.CHUNK
                for name in ("arrival_s", "service_s", "source", "waiting_s"):
                    a, b = getattr(result, name), getattr(whole, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert result.segments == whole.segments
                boundary_sides |= _assert_empirical_curves(config, result, got.curves)
        assert {-1, 1} <= boundary_sides

    def test_simulate_counts_the_comparisons_curves(self, monkeypatch, simulated_curves):
        """simulate runs windows a sixteenth of the comparison's and counts
        each as the comparison does: with windows of three blocks, and so
        simulate's of one, every per-class curve must be the comparison's,
        with its se and samples."""
        monkeypatch.setattr(simulator, "CHUNK", 3 * FIFO_BLOCK)
        for case_id in range(1, 7):
            for warmup in (0.0, 0.1, 0.9):
                config = replace(preset(case_id), customers=20_000, warmup_fraction=warmup)
                got = {e.label: e for e in simulated_curves(config) if e.class_id is not None}
                want = {e.label: e for e in run_comparison(config).curves
                        if e.kind == "empirical" and e.class_id is not None}
                assert sorted(got) == sorted(want)
                for label, entry in got.items():
                    assert entry.probs.tobytes() == want[label].probs.tobytes(), (case_id, label)
                    assert entry.se.tobytes() == want[label].se.tobytes(), (case_id, label)
                    assert entry.samples == want[label].samples

    def test_constant_service_delays_are_counted_from_the_waits(
        self, monkeypatch, simulated_curves
    ):
        def refuse(self):
            raise AssertionError("delay_s was built")

        read = set()  # (case, class) of every count that sorted delays of its own
        counts = _TailCounts.counts

        def spy(self, cid, waits, delays):
            if delays is not None:
                read.add((case_id, cid))
            return counts(self, cid, waits, delays)

        monkeypatch.setattr(RunResult, "delay_s", property(refuse))
        monkeypatch.setattr(_TailCounts, "counts", spy)
        for case_id in range(1, 7):
            simulated_curves(replace(preset(case_id), customers=20_000))
        # only the exponential classes of presets 4 and 6 take their delays
        assert read == {(4, 1), (4, 2), (6, 2)}
        # nor does a comparison build them, the D/D/1 check of presets 1 and 2 included
        read.clear()
        for case_id in (1, 2, 4):
            run_comparison(replace(preset(case_id), customers=20_000))
        assert read == {(4, 1), (4, 2)}


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


def _violations_reference(bound, target):
    """The point-by-point check: floor, binomial 3-SE slack, exceedance;
    the checked count, the flagged points and the largest-z one of them
    (the first, at a tie)."""
    points, checked, worst, z_max = [], 0, None, -math.inf
    n = max(1, target.samples)
    floor = NOISE_FLOOR_COUNT / n
    for tau, emp, b in zip(target.grid_s, target.probs, bound.probs):
        if emp <= floor:
            continue
        checked += 1
        se = math.sqrt(emp * (1.0 - emp) / n)
        slack = 3.0 * se
        if emp > b + slack:
            points.append(ViolationPoint(float(tau), float(emp), float(b), slack))
            z = (emp - b) / se if se > 0 else math.inf
            if z > z_max:
                worst, z_max = points[-1], z
    return checked, points, worst


def _assert_report_matches(report, bound, target):
    checked, points, worst = _violations_reference(bound, target)
    assert report.checked_points == checked
    assert report.count == len(points)
    assert report.worst == worst
    return checked, points


class TestCheckViolations:
    def test_matches_the_pointwise_check(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 400)
        samples = 5000
        emp = np.sort(rng.integers(0, samples + 1, len(grid)))[::-1] / samples
        emp[-50:] = 0.0
        bound_probs = np.clip(emp + rng.normal(0.0, 0.01, len(grid)), 0.0, 1.0)
        target = CurveEntry("t", "empirical", "waiting", None, grid, emp, samples=samples,
                            se=np.sqrt(emp * (1.0 - emp) / samples))
        bound = CurveEntry("b", "bound", "waiting", None, grid, bound_probs, guaranteed=True)
        checked, points = _assert_report_matches(_check_violations(bound, target), bound, target)
        assert 0 < len(points) < checked < len(grid)

    def test_a_tail_of_one_is_the_worst_point(self):
        # at a tail of 1 the standard error is 0, so any excess is infinitely
        # many of them, however small next to another point's
        grid = np.array([0.0, 1.0, 2.0])
        emp = np.array([0.5, 1.0, 0.5])
        target = CurveEntry("t", "empirical", "waiting", None, grid, emp, samples=10_000,
                            se=np.sqrt(emp * (1.0 - emp) / 10_000))
        bound = CurveEntry("b", "bound", "waiting", None, grid, np.array([0.1, 0.99, 0.2]))
        report = _check_violations(bound, target)
        assert (report.checked_points, report.count) == (3, 3)
        assert report.worst == ViolationPoint(1.0, 1.0, 0.99, 0.0)
        _assert_report_matches(report, bound, target)

    def test_no_violation_has_no_worst_point(self):
        grid = np.array([0.0, 1.0])
        emp = np.array([0.5, 0.2])
        target = CurveEntry("t", "empirical", "waiting", None, grid, emp, samples=10_000,
                            se=np.sqrt(emp * (1.0 - emp) / 10_000))
        bound = CurveEntry("b", "bound", "waiting", None, grid, np.array([0.6, 0.3]))
        report = _check_violations(bound, target)
        assert (report.checked_points, report.count, report.worst) == (2, 0, None)

    def test_matches_the_pointwise_check_on_case5(self, simulated_curves):
        config = replace(preset(5), customers=50_000)
        entries = simulated_curves(config)
        targets = {(e.metric, e.class_id): e for e in entries}
        bounds, _ = case_bound_entries(config)
        for bound in bounds:
            target = targets[bound.metric, bound.class_id]
            _assert_report_matches(_check_violations(bound, target), bound, target)


def _trimmed_merge(config: CaseConfig) -> tuple[RunResult, list[int]]:
    """run_fifo of merge_streams over the case's sequences cut at the
    horizon, and the arrivals cut from each class, in class-id order."""
    counts = proportional_counts(config.specs, config.customers)
    seqs = sorted(generate_sequences(config.specs, counts, config.seed), key=lambda q: q.class_id)
    horizon = min(q.times_s[-1] for q in seqs)
    kept = [int(np.searchsorted(q.times_s, horizon, "right")) for q in seqs]
    cut = [len(q) - k for q, k in zip(seqs, kept)]
    trimmed = [
        ArrivalSequence(q.class_id, q.times_s[:k], q.sizes_bits[:k]) for q, k in zip(seqs, kept)
    ]
    result = run_fifo(merge_streams(trimmed, config.rates()))
    return result, cut


#: A synchronized group whose master (the faster class) has the higher id,
#: and a scaled group beside an independent class.
_COUPLED_CONFIGS = [
    CaseConfig("master-high", (
        ClassSpec(1, CoupledPoisson(1e3, 4, "synchronized"), Constant(800.0), 1e7),
        ClassSpec(2, CoupledPoisson(1e4, 4, "synchronized"), ExponentialMean(800.0), 1e7),
    ), customers=20_000),
    CaseConfig("scaled", (
        ClassSpec(1, CoupledPoisson(1e4, 9, "scaled"), Constant(800.0), 1e7),
        ClassSpec(2, CoupledPoisson(1e3, 9, "scaled"), ExponentialMean(800.0), 1e7),
        ClassSpec(3, Poisson(2e3), Constant(100.0), 1e7),
    ), customers=20_000),
]


@pytest.mark.parametrize("case_id", [3, 4, 5, 6])
def test_every_empirical_curve_carries_its_binomial_se(case_id):
    # the long run's curves and the transient ones; bound curves carry none
    config = replace(preset(case_id), customers=200_000, replications=500)
    labels = set()
    for curve in run_comparison(config).curves:
        if curve.kind == "bound":
            assert curve.se is None, curve.label
            continue
        p = curve.probs
        assert curve.se.tobytes() == np.sqrt(p * (1.0 - p) / curve.samples).tobytes(), curve.label
        labels.add(curve.label)
    first = config.specs[0].class_id
    assert {f"sim_delay_c{first}_j{j}" for j in (1, 10, 100)} < labels


def test_the_check_reads_the_target_se():
    # case 4's exact curve lies above the tail, so only sampling noise
    # exceeds it: within three standard errors, and beyond zero of them
    result = run_comparison(replace(preset(4), customers=200_000))
    bound, target = result.curve("mm1_waiting_exact"), result.curve("sim_waiting")
    report = _check_violations(bound, target)
    zeroed = _check_violations(bound, replace(target, se=np.zeros_like(target.se)))
    assert zeroed.checked_points == report.checked_points
    assert report.count < zeroed.count


class TestRunBuffers:
    def test_simulate_case_equals_the_merge_of_the_trimmed_sequences(self):
        # the run draws into class-ordered buffers and cuts them at the
        # horizon in place: bit for bit the merge of the cut sequences
        cut_classes = set()
        configs = [replace(preset(k), customers=20_000) for k in range(1, 7)]
        for config in configs + _COUPLED_CONFIGS:
            got = simulate_case(config)
            want, cut = _trimmed_merge(config)
            for name in ("arrival_s", "service_s", "source", "waiting_s"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (config.case_id, name)
            assert got.segments == want.segments
            cut_classes |= {"last" if i == len(cut) - 1 else "earlier"
                            for i, c in enumerate(cut) if c}
        # both an earlier class (whose later segments move down) and the last one
        assert cut_classes == {"earlier", "last"}

    @pytest.mark.parametrize("case_id", [3, 5])
    def test_simulate_case_peak_memory(self, case_id):
        # the run's four columns of 8n bytes (arrival, service, source and
        # waits), sized once at the config's counts; the warmup prefix of
        # waits, the windows' merge buffers and the draw's, which the merged
        # columns reuse, and the FIFO scan's temporaries add the rest. A copy
        # of a column, or a buffer of a column's size alive beside them, adds
        # a whole one
        config = replace(preset(case_id), customers=200_000)
        simulate_case(config)  # one-time allocations stay out of the peak
        tracemalloc.start()
        try:
            simulate_case(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * config.customers

    @pytest.mark.parametrize("case_id", [3, 4, 5])
    def test_run_comparison_peak_memory(self, case_id):
        # no array grows with the run but the warmup prefix, about 8 bytes
        # of each warmup customer a metric that is kept (waits, and delays
        # of exponential sizes): at 4M customers the peak exceeds the peak
        # at 1M by at most a quarter of 8 bytes an added customer
        peaks = {}
        for customers in (1_000_000, 4_000_000):
            config = replace(preset(case_id), customers=customers)
            run_comparison(config)  # one-time allocations stay out of the peak
            tracemalloc.start()
            try:
                run_comparison(config)
                peaks[customers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4_000_000] - peaks[1_000_000] <= 0.25 * 8 * 3_000_000

    @pytest.mark.parametrize("case_id", [3, 4, 5])
    def test_simulate_peak_memory(self, monkeypatch, tmp_path, case_id):
        # one column grows with the run, the waits kept for their mean (8
        # bytes a customer), beside the comparison's warmup prefix: at 4M
        # customers the peak exceeds the peak at 1M by at most 8 bytes and a
        # quarter of 8 an added customer. The rows are not formatted, but
        # each call of the row writer takes one window's rows, and no more.
        # The windows are the comparison's: what grows does not depend on
        # them, and tracemalloc's cost grows with the windows' count
        monkeypatch.setattr(simulator, "CHUNK", 16 * simulator.CHUNK)
        rows = []
        monkeypatch.setattr(simulator, "write_records",
                            lambda fh, *columns: rows.append(len(columns[0])))
        peaks = {}
        for customers in (1_000_000, 4_000_000):
            config = replace(preset(case_id), customers=customers)
            simulate(config, tmp_path / "records.csv")  # one-time allocations stay out of the peak
            tracemalloc.start()
            try:
                simulate(config, tmp_path / "records.csv")
                peaks[customers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4_000_000] - peaks[1_000_000] <= (8 + 0.25 * 8) * 3_000_000
        assert max(rows) == simulator.CHUNK // 16

    @pytest.mark.parametrize(("case_id", "warmup"), [(5, 0.9), (5, 0.1), (3, 0.9)])
    def test_warmup_labels_grow_a_window_at_a_time(self, monkeypatch, case_id, warmup):
        # the labels run up to the bound on int(n * warmup), which falls as
        # the run goes: a synchronized case's first bound counts the
        # master's instants left once for each thinned class. At every
        # window the labels exceed the labelled prefix by at most a window
        excess = []
        add_window = _TailCounts.add_window

        def spy(self, window):
            add_window(self, window)
            skip = int(sum(window.most.values()) * self.warmup)
            labelled = min(skip, sum(self.added.values()))
            excess.append(len(self.labels) - labelled - len(window.arrival_s))

        monkeypatch.setattr(_TailCounts, "add_window", spy)
        run_comparison(replace(preset(case_id), customers=1_000_000, warmup_fraction=warmup))
        assert len(excess) > 10 and max(excess) <= 0


class TestSimulate:
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_records_equal_the_collected_run(self, monkeypatch, tmp_path, blocks):
        """simulate writes records.csv a window at a time, from each
        window's waits, copied before the window is counted, and the delays
        the counter leaves: byte for byte the records of simulate_case's
        run, at each warmup, whatever the counter keeps, and with no
        temporary file left."""
        monkeypatch.setattr(simulator, "CHUNK", blocks * FIFO_BLOCK)
        for base in [preset(k) for k in range(1, 7)] + _COUPLED_CONFIGS:
            config = replace(base, customers=5_000)
            run = simulate_case(config)
            assert len(run) > 2 * FIFO_BLOCK  # the windows of simulate and their chunks
            run.write_csv(tmp_path / "whole.csv")
            whole = (tmp_path / "whole.csv").read_bytes()
            for warmup in (0.0, 0.1, 0.9):
                simulate(replace(config, warmup_fraction=warmup), tmp_path / "records.csv")
                assert (tmp_path / "records.csv").read_bytes() == whole, (config.case_id, warmup)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["records.csv", "whole.csv"]

    def test_summary_values_are_those_of_the_run(self, tmp_path):
        # the customers, the largest delay and numpy's mean of the waits,
        # of the run simulate_case collects; master-high's run outgrows the
        # config's counts, and so the waits column its first size
        for config in [replace(preset(k), customers=10_000) for k in range(1, 7)] + [
            _COUPLED_CONFIGS[0]
        ]:
            run = simulate_case(config)
            values = simulate(config, tmp_path / "records.csv")[1]
            assert values == {"customers": len(run), "max_delay_s": float(run.delay_s.max()),
                              "mean_waiting_s": float(run.waiting_s.mean())}


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
        derived = dict(zip(("class_ids", "class_index"), _class_columns(cut.source, cut.segments)))
        for name, column in full.items():
            kept = derived[name] if name in derived else getattr(cut, name)
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
            # class 1 of case 5 stays alone in its group; each id ends with
            # the rule its message states after naming the group
            pytest.param(
                (None, Poisson(10_000.0)),
                r"coupling group 1 \(class 1\): a coupling group needs at least 2 classes",
                id="arrivals0-a coupling group needs at least 2 classes",
            ),
            pytest.param(
                (CoupledPoisson(10_000.0, 1, "scaled"), None),
                r"coupling group 1 \(classes 1, 2\): "
                "all specs in a group must use the same mechanism",
                id="arrivals1-all specs in a group must use the same mechanism",
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


def test_comparison_and_replications_build_no_class_columns(monkeypatch, tmp_path):
    # the long run and the replications work from source and segments; the
    # class-id and j columns are derived for records.csv only
    def refuse(source, segments):
        raise AssertionError("a per-customer class column was built")

    monkeypatch.setattr(simulator, "_class_columns", refuse)
    with pytest.raises(AssertionError, match="class column"):
        simulate_case(replace(preset(3), customers=1000)).write_csv(tmp_path / "records.csv")
    for case_id in range(1, 7):
        run_comparison(replace(preset(case_id), customers=20_000))
    for case_id in (3, 5):
        transient_delays(preset(case_id), (1, 10, 100), 1, 500)
