"""The simulator against queueing theory: each class's mean wait against
scripts/true_tail.py's exact mean, two-sided, with a batch-means standard
error, and two defects that the check must catch."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcfifo.experiments import preset, simulate_case
from mcfifo.simulator import _class_columns
from mcfifo.traffic import ClassSpec, Constant, CoupledPoisson, Periodic, Poisson

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "true_tail.py"
_spec = importlib.util.spec_from_file_location("true_tail", _PATH)
true_tail = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(true_tail)

CUSTOMERS = 1_000_000
BATCHES = 30
Z_MAX = 4.0


def _z_scores(config, exact: dict[int, float]) -> dict[int, float]:
    """Per class: (mean wait - exact) over its standard error from BATCHES
    contiguous batches of the class's waits after the run's warmup."""
    result = simulate_case(config)
    skip = int(len(result) * config.warmup_fraction)
    ids = _class_columns(result.source[skip:], result.segments)[0]
    waits = result.waiting_s[skip:]
    z = {}
    for cid, mean in exact.items():
        batches = np.array([b.mean() for b in np.array_split(waits[ids == cid], BATCHES)])
        se = batches.std(ddof=1) / np.sqrt(BATCHES)
        z[cid] = (batches.mean() - mean) / se
    return z


def _assert_means(config, exact: dict[int, float]) -> None:
    z = _z_scores(config, exact)
    assert all(abs(v) <= Z_MAX for v in z.values()), (config.case_id, config.seed, z)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case_id", [3, 4, 5])
def test_mean_waits_match_the_exact_means(case_id, seed):
    config = replace(preset(case_id), customers=CUSTOMERS, seed=seed)
    _assert_means(config, true_tail.exact_mean_wait(config.specs))


@pytest.mark.parametrize("seed", [1, 2])
def test_a_run_drawn_at_98_percent_of_the_rate_fails(seed):
    # the arrival rate a draw defect might lose: case 3's means fall ~15 SE
    config = replace(preset(3), customers=CUSTOMERS, seed=seed)
    exact = true_tail.exact_mean_wait(config.specs)
    slower = tuple(replace(s, arrival=Poisson(0.98 * s.arrival.rate_hz)) for s in config.specs)
    with pytest.raises(AssertionError):
        _assert_means(replace(config, specs=slower), exact)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_thinned_class_served_first_on_co_arrival_fails(seed):
    # case 5 with its ids swapped, so the thinned class goes first on
    # co-arrival, checked against the means of case 5's order
    config = replace(preset(5), customers=CUSTOMERS, seed=seed)
    exact = true_tail.exact_mean_wait(config.specs)
    master, thinned = config.specs
    swapped = (replace(thinned, class_id=master.class_id),
               replace(master, class_id=thinned.class_id))
    ordered = {master.class_id: exact[thinned.class_id], thinned.class_id: exact[master.class_id]}
    with pytest.raises(AssertionError):
        _assert_means(replace(config, specs=swapped), ordered)


def test_exact_means_of_the_presets():
    # Pollaczek-Khinchine for cases 3 and 4; case 5's batch term, and class
    # 2 behind class 1's 80 us when they arrive together
    for case_id, want in ((3, {1: 0.37e-3, 2: 0.37e-3}), (4, {1: 0.74e-3, 2: 0.74e-3}),
                          (5, {1: 0.45e-3, 2: 0.53e-3})):
        got = true_tail.exact_mean_wait(preset(case_id).specs)
        assert got == pytest.approx(want, rel=1e-12), case_id


@pytest.mark.parametrize(
    "arrivals, message",
    [
        ((Periodic(1e-3), Poisson(1e3)), "class 1: no exact mean for a periodic class"),
        ((CoupledPoisson(1e3, 7, "scaled"),) * 2, "class 1: no exact mean for a scaled group"),
    ],
    ids=["periodic", "scaled"],
)
def test_no_exact_mean_without_a_closed_form(arrivals, message):
    specs = [ClassSpec(cid, a, Constant(800.0), 1e7) for cid, a in enumerate(arrivals, start=1)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        true_tail.exact_mean_wait(specs)
