"""The long run's window loop against the run computed whole, on seeded
random configs.

run_comparison, simulate and simulate_case draw, merge and scan a run a
window at a time (simulator.fifo_windows), and the first two count it as it
comes (experiments._TailCounts); tests/reference.py computes the same run
whole.
random_case draws the structures the windows must carry across their
boundaries: 1-5 classes of sparse ids, periodic and Poisson classes and
scaled or synchronized groups of 2-3 (the master of higher or lower id
than its thinned classes), constant and exponential sizes, rate ratios up
to 1:1000, loads 0.3-0.95, warmups 0, 0.1 and 0.9, windows of 1-4
FIFO_BLOCKs, and REACH at 0.01, 1.02 and 1.5. Every array, curve, standard
error and sample count, and records.csv, must be byte for byte the whole
run's. A failing case names its seed, and its config's repr holds the spec
list. The tier-1 run takes SEEDS; SLOW_SEEDS run with -m slow.
"""

import numpy as np
import pytest

from mcfifo import simulator
from mcfifo.experiments import CaseConfig, run_comparison, simulate, simulate_case
from mcfifo.simulator import FIFO_BLOCK
from mcfifo.traffic import ClassSpec, Constant, CoupledPoisson, ExponentialMean, Periodic, Poisson
from reference import whole_run_comparison, whole_run_simulation

#: Class ids to draw from: sparse, with 0 and one past 2**32.
IDS = (0, 1, 2, 7, 2**40)
#: Seeds of the tier-1 cases.
SEEDS = range(36)
#: Seeds of the slow cases, which the default run deselects.
SLOW_SEEDS = range(36, 1036)


def random_case(seed: int) -> tuple[CaseConfig, int, float]:
    """A config drawn from seed, with the window size and REACH to run it at."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    ids = [IDS[i] for i in rng.permutation(len(IDS))[:k]]
    rates = 100.0 * 10.0 ** rng.uniform(0.0, 3.0, size=k)
    arrivals = {}
    if k >= 2 and rng.random() < 0.6:  # the first g of the shuffled ids couple
        g = int(rng.integers(2, min(3, k) + 1))
        mechanism = str(rng.choice(("scaled", "synchronized")))
        for cid, rate in zip(ids[:g], rates[:g]):
            arrivals[cid] = CoupledPoisson(float(rate), 1, mechanism)
    for cid, rate in zip(ids, rates):
        if cid not in arrivals:
            periodic = rng.random() < 0.3
            arrivals[cid] = Periodic(float(1.0 / rate)) if periodic else Poisson(float(rate))
    load = rng.uniform(0.3, 0.95)
    shares = rng.dirichlet(np.ones(k))
    specs = []
    for cid, rate, share in zip(ids, rates, shares):
        bits = 800.0 * 10.0 ** rng.uniform(0.0, 1.0)
        exponential = not isinstance(arrivals[cid], Periodic) and rng.random() < 0.5
        size = ExponentialMean(bits) if exponential else Constant(bits)
        specs.append(ClassSpec(cid, arrivals[cid], size, float(rate * bits / (load * share))))
    # a draw of 1 % of what a window lacks takes a few arrivals at a time,
    # so a run of such draws is kept short
    reach = float(rng.choice((0.01, 1.02, 1.5)))
    config = CaseConfig(
        f"random-{seed}",
        tuple(specs),
        customers=int(rng.integers(4_000, 8_001) if reach < 1 else rng.integers(5_000, 20_001)),
        seed=int(rng.integers(0, 2**31)),
        warmup_fraction=float(rng.choice((0.0, 0.1, 0.9))),
        grid_points=64,
        tau_max_s=float(10.0 ** rng.uniform(-4.0, -1.0)),
    )
    return config, FIFO_BLOCK * int(rng.integers(1, 5)), reach


def _assert_curves_equal(got, want, where):
    assert [c.label for c in got] == [c.label for c in want], where
    for a, b in zip(got, want):
        assert a.probs.tobytes() == b.probs.tobytes(), (where, a.label)
        assert a.se.tobytes() == b.se.tobytes(), (where, a.label)
        assert a.samples == b.samples, (where, a.label)


@pytest.mark.parametrize(
    "seed", [*SEEDS, *(pytest.param(seed, marks=pytest.mark.slow) for seed in SLOW_SEEDS)]
)
def test_windows_equal_the_whole_run(monkeypatch, tmp_path, seed):
    config, size, reach = random_case(seed)
    where = f"seed {seed}: {config!r}, window {size}, REACH {reach}"
    monkeypatch.setattr(simulator, "CHUNK", size)
    monkeypatch.setattr(simulator, "REACH", reach)
    got, want = run_comparison(config), whole_run_comparison(config, size)
    assert got.values == want.values and got.violations == want.violations, where
    _assert_curves_equal(got.curves, want.curves, where)
    result, whole = simulate_case(config), whole_run_simulation(config)
    for name in ("arrival_s", "service_s", "source", "waiting_s"):
        a, b = getattr(result, name), getattr(whole, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (where, name)
    assert result.segments == whole.segments, where
    curves = simulate(config, tmp_path / "records.csv")[0]
    _assert_curves_equal(curves, want.curves, where)
    whole.write_csv(tmp_path / "whole.csv")
    records = (tmp_path / "records.csv").read_bytes()
    assert records == (tmp_path / "whole.csv").read_bytes(), where


def test_the_cases_cover_the_window_loops_structures():
    """The tier-1 seeds draw each structure the module docstring lists, and
    synchronized groups at warmup 0.9, where the warmup labels are cut as
    their bound falls."""
    cases = [random_case(seed) for seed in SEEDS]
    seen = set()
    for config, size, reach in cases:
        ids = [s.class_id for s in config.specs]
        seen |= {("classes", len(ids)), ("window", size // FIFO_BLOCK), ("reach", reach),
                 ("warmup", config.warmup_fraction)}
        seen |= {("id", cid) for cid in ids}
        for s in config.specs:
            seen.add(("arrival", type(s.arrival).__name__))
            seen.add(("size", type(s.size).__name__))
        coupled = [s for s in config.specs if isinstance(s.arrival, CoupledPoisson)]
        if coupled:
            mechanism = coupled[0].arrival.mechanism
            master = max(coupled, key=lambda s: s.arrival.rate_hz).class_id
            side = "high" if master == max(s.class_id for s in coupled) else "low"
            seen |= {(mechanism, len(coupled)), (mechanism, side),
                     (mechanism, config.warmup_fraction)}
    want = (
        {("classes", k) for k in range(1, 6)} | {("window", k) for k in range(1, 5)}
        | {("reach", r) for r in (0.01, 1.02, 1.5)} | {("warmup", w) for w in (0.0, 0.1, 0.9)}
        | {("id", cid) for cid in IDS}
        | {("arrival", kind) for kind in ("Periodic", "Poisson", "CoupledPoisson")}
        | {("size", kind) for kind in ("Constant", "ExponentialMean")}
        | {(m, g) for m in ("scaled", "synchronized") for g in (2, 3)}
        | {("synchronized", side) for side in ("high", "low")}
        | {("synchronized", 0.9)}
    )
    assert want <= seen, sorted(want - seen, key=str)
    # the rates of a config span up to three decades
    spans = [max(s.arrival_rate_hz for s in c.specs) / min(s.arrival_rate_hz for s in c.specs)
             for c, _, _ in cases]
    assert max(spans) > 100

