import argparse
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mcfifo

from mcfifo.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, build_parser, main
from mcfifo.experiments import _KEYS, BOUNDS, PRESETS


def _run_bounds(tmp_path, *extra):
    out = tmp_path / "out"
    code = main(["bounds", "--out", str(out), *extra])
    payload = json.loads((out / "bounds.json").read_text())
    return code, payload


class TestBoundsCommand:
    def test_case1_values(self, tmp_path):
        code, payload = _run_bounds(tmp_path, "--case", "1")
        assert code == EXIT_OK
        assert payload["bounds"]["dd1_bound_s"] == pytest.approx(1.4e-4, rel=1e-12)
        assert payload["bounds"]["cruz_bound_s"] == pytest.approx(5.4e-4, rel=1e-12)

    def test_case2_cruz_na(self, tmp_path):
        code, payload = _run_bounds(tmp_path, "--case", "2")
        assert code == EXIT_OK
        assert payload["bounds"]["dd1_bound_s"] == pytest.approx(1.8e-4, rel=1e-12)
        assert payload["bounds"]["cruz_bound_s"] == "N.A."

    def test_case6_decay_rate(self, tmp_path):
        code, payload = _run_bounds(tmp_path, "--case", "6")
        assert code == EXIT_OK
        assert payload["bounds"]["theta_star_per_s"] == pytest.approx(5000.0, rel=1e-12)

    def test_bound_curves_csv_written(self, tmp_path):
        out = tmp_path / "o"
        assert main(["bounds", "--case", "3", "--out", str(out)]) == EXIT_OK
        text = (out / "bound_curves.csv").read_text()
        assert text.splitlines()[0] == "curve_label,tau_s,prob"
        assert "md1_waiting_exact" in text


class TestSimulateCommand:
    def test_case1_respects_worst_case(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            ["simulate", "--case", "1", "--customers", "10000", "--out", str(out)]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        max_delay = float(printed.split("max_delay_s=")[1].split()[0])
        assert max_delay <= 1.4e-4 + 1e-12
        assert (out / "records.csv").exists()
        assert (out / "ccdf.csv").exists()

    def test_determinism_across_invocations(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--case", "4", "--customers", "20000", "--seed", "7"]
        assert main([*args, "--out", str(a)]) == EXIT_OK
        assert main([*args, "--out", str(b)]) == EXIT_OK
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "ccdf.csv").read_bytes() == (b / "ccdf.csv").read_bytes()

    def test_case5_emits_both_class_curves(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["simulate", "--case", "5", "--customers", "20000", "--out", str(out)]
        )
        assert code == EXIT_OK
        text = (out / "ccdf.csv").read_text()
        assert "sim_waiting_c1" in text and "sim_waiting_c2" in text

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("MCFIFO_SEED", "99")
        assert main(
            ["simulate", "--case", "4", "--customers", "5000", "--out", str(a)]
        ) == EXIT_OK
        monkeypatch.delenv("MCFIFO_SEED")
        assert main(
            ["simulate", "--case", "4", "--customers", "5000", "--seed", "99", "--out", str(b)]
        ) == EXIT_OK
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()


class TestCompareCommand:
    def test_case3_passes(self, tmp_path):
        # short-run regression: seed picked so the single-run tail wander
        # stays inside the binomial slack at this run length
        out = tmp_path / "o"
        code = main(
            [
                "compare", "--case", "3",
                "--customers", "100000", "--seed", "2",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["guaranteed_violations"] == 0
        assert (out / "curves.csv").exists()

    def test_case5_dependence_is_not_a_failure(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["compare", "--case", "5", "--customers", "150000", "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        independent = next(
            v for v in summary["violations"] if v["bound_label"] == "md1_waiting_exact"
        )
        assert independent["count"] > 0 and not independent["guaranteed"]

    @pytest.mark.parametrize(
        "size_kind, size_key, bound, tau_max_ms",
        [("constant", "packet_bytes", "md1", 6), ("exponential", "mean_packet_bytes", "mm1", 12)],
    )
    def test_coupled_classes_make_exact_curves_informational(
        self, tmp_path, size_kind, size_key, bound, tau_max_ms
    ):
        # case 3 or 4 with the streams of case 5: the exact decay rate assumes
        # independent classes, these exceed its curve by far, and that must
        # not be exit 3
        classes = [
            {
                "class_id": cid,
                "arrival": {
                    "kind": "coupled_poisson",
                    "rate_per_s": rate,
                    "coupling_group": 1,
                    "mechanism": "synchronized",
                },
                "size": {"kind": size_kind, size_key: size_bytes},
                "service_rate_mbps": mbps,
            }
            for cid, rate, size_bytes, mbps in ((1, 1e4, 100, 10), (2, 1e3, 1250, 100))
        ]
        config = {
            "classes": classes,
            "customers": 50_000,
            "tau_max_ms": tau_max_ms,
            "bounds": [bound],
        }
        path = tmp_path / "coupled.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        curves = {c["label"]: c for c in summary["curves"] if c["kind"] == "bound"}
        # a delay curve per constant-size class, drawn under coupling too
        delays = [f"md1_delay_exact_c{cid}" for cid in (1, 2)] if bound == "md1" else []
        assert sorted(curves) == sorted([f"{bound}_waiting_approx", f"{bound}_waiting_exact",
                                         *delays])
        for curve in curves.values():
            assert not curve["guaranteed"]
            assert curve["note"] == "assumes independent classes"
        exact = next(
            v for v in summary["violations"] if v["bound_label"] == f"{bound}_waiting_exact"
        )
        assert exact["count"] > 0 and summary["guaranteed_violations"] == 0

    def test_case1_step_curve_in_output(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["compare", "--case", "1", "--customers", "20000", "--out", str(out)]
        )
        assert code == EXIT_OK
        text = (out / "curves.csv").read_text()
        assert "det_multiclass" in text and "det_aggregate" in text

    def test_transient_curves_with_replications(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "compare",
                "--case",
                "3",
                "--customers",
                "20000",
                "--replications",
                "50",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        with open(out / "curves.csv", newline="") as fh:
            labels = list(dict.fromkeys(row["curve_label"] for row in csv.DictReader(fh)))
        assert labels[-3:] == [f"sim_delay_c1_j{j}" for j in (1, 10, 100)]
        # summary.json describes every curve of curves.csv, in its order
        summary = json.loads((out / "summary.json").read_text())
        assert [c["label"] for c in summary["curves"]] == labels
        assert summary["curves"][-1]["note"] == "delay of the 100-th class-1 customer"

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        import mcfifo.cli as cli_mod
        from mcfifo.experiments import run_comparison as real_run

        def doctored(config):
            result = real_run(config)
            object.__setattr__(result, "values", {**result.values, "delays_above_dd1": 3})
            return result

        monkeypatch.setattr(cli_mod, "run_comparison", doctored)
        out = tmp_path / "o"
        code = main(["compare", "--case", "1", "--customers", "2000", "--out", str(out)])
        assert code == EXIT_VIOLATION
        # the exit code and summary.json report the same verdict
        summary = json.loads((out / "summary.json").read_text())
        assert summary["guaranteed_violations"] == 3

    @pytest.mark.parametrize("case_id,tau_max", [(1, None), (2, None), (1, "1.4e-4")])
    def test_periodic_case_prints_one_per_customer_line(self, tmp_path, capsys, case_id, tau_max):
        out = tmp_path / "o"
        argv = ["compare", "--case", str(case_id), "--customers", "20000", "--out", str(out)]
        assert main(argv + (["--tau-max", tau_max] if tau_max else [])) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == []
        largest = summary["values"]["max_delay_s"]
        assert capsys.readouterr().out == (
            f"det_multiclass vs every delay: 0 above the bound, largest {largest!r} s "
            "[guaranteed]\n"
        )

    def test_grid_point_at_an_attained_bound_is_not_a_violation(self, tmp_path, capsys):
        # the grid ends at the D/D/1 bound 1.8e-4, which the run attains up
        # to rounding (its largest delay is 1.8e-4 + 6.3e-19)
        out = tmp_path / "o"
        argv = ["compare", "--case", "2", "--tau-max", "1.8e-4", "--customers", "2000"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        largest = summary["values"]["max_delay_s"]
        assert largest > summary["values"]["dd1_bound_s"]
        assert summary["guaranteed_violations"] == 0
        assert capsys.readouterr().out == (
            f"det_multiclass vs every delay: 0 above the bound, largest {largest!r} s "
            "[guaranteed]\n"
        )


def _readme_block(fence: str, after: str = "") -> str:
    """The first README code block opened by `fence` after the heading `after`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index(after) :]
    return section.split(fence + "\n", 1)[1].split("```", 1)[0]


def _readme_config() -> dict:
    """The config-file example of the README."""
    return json.loads(_readme_block("```json"))


def test_readme_library_imports():
    # a name deleted from the package must not stay documented
    exec(_readme_block("```python", "## Library entry points"), {})


def test_readme_bound_names_are_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    intro = "Bounds (the rows of `experiments.BOUNDS`)"
    table = readme[readme.index(intro) :].split("\n\n")[1].splitlines()
    assert table[0] == "| bound | classes | coupled classes | curves |"
    rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in table[2:]]
    assert [row[0] for row in rows] == [f"`{name}`" for name in BOUNDS]
    # the coupled-classes column lists each row's dependence set
    for row, bound in zip(rows, BOUNDS.values()):
        assert row[2] == (", ".join(f"`{m}`" for m in sorted(bound.dependence)) or "none"), row[0]


@pytest.mark.parametrize("name", list(BOUNDS))
def test_readme_bound_table_follows_a_changed_set(monkeypatch, name):
    # one mechanism more or less in one row's set fails the README test
    row = BOUNDS[name]
    monkeypatch.setitem(BOUNDS, name, replace(row, dependence=row.dependence ^ {"synchronized"}))
    with pytest.raises(AssertionError, match=re.escape(f"`{name}`")):
        test_readme_bound_names_are_the_registry()


def test_readme_config_keys_are_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    intro = "Config keys (the keys of `experiments._KEYS`)"
    section = readme[readme.index(intro) :].split("\n\n")[1]
    assert re.findall(r"^- `(\w+)`", section, flags=re.M) == list(_KEYS)
    for line in section.splitlines():
        assert line.endswith("; required.") or "; default " in line, line


class TestConfigHandling:
    def test_custom_config_file(self, tmp_path):
        config = {
            "case_id": "two-class-custom",
            "classes": [
                {
                    "class_id": 1,
                    "arrival": {"kind": "periodic", "period_ms": 0.1},
                    "size": {"kind": "constant", "packet_bytes": 100},
                    "service_rate_mbps": 20,
                },
                {
                    "class_id": 2,
                    "arrival": {"kind": "periodic", "period_ms": 1.0},
                    "size": {"kind": "constant", "packet_bytes": 1250},
                    "service_rate_mbps": 100,
                },
            ],
            "tau_max_ms": 0.2,
            "bounds": ["deterministic"],
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        code = main(["bounds", "--config", str(path), "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "bounds.json").read_text())
        assert payload["bounds"]["dd1_bound_s"] == pytest.approx(1.4e-4, rel=1e-12)

    def test_missing_config_is_a_config_error(self, tmp_path):
        code = main(["bounds", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_case_and_config_together_rejected(self, tmp_path):
        code = main(
            ["bounds", "--case", "1", "--config", "x.json", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_neither_case_nor_config_rejected(self, tmp_path):
        code = main(["bounds", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["bounds", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "malformed JSON" in capsys.readouterr().err

    def test_duplicate_class_ids_rejected(self, tmp_path, capsys):
        classes = [
            {
                "class_id": 1,
                "arrival": {"kind": "periodic", "period_ms": period},
                "size": {"kind": "constant", "packet_bytes": 100},
                "service_rate_mbps": 20,
            }
            for period in (0.1, 1.0)
        ]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"classes": classes, "customers": 2000}))
        code = main(["compare", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "duplicate class_id 1" in capsys.readouterr().err

    def test_misspelled_bound_name_rejected_on_load(self, tmp_path, capsys):
        config = {
            "classes": [
                {
                    "class_id": 1,
                    "arrival": {"kind": "periodic", "period_ms": 0.1},
                    "size": {"kind": "constant", "packet_bytes": 100},
                    "service_rate_mbps": 20,
                }
            ],
            "customers": 1000,
        }
        # md1 tells coupled classes apart itself, so md1_independent is no bound name
        for name in ("determinstic", "md1_independent"):
            config["bounds"] = [name]
            path = tmp_path / "case.json"
            path.write_text(json.dumps(config))
            out = tmp_path / "o"
            code = main(["simulate", "--config", str(path), "--out", str(out)])
            assert code == EXIT_CONFIG
            assert f"unknown bound name '{name}'" in capsys.readouterr().err
            assert not (out / "records.csv").exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda c: c["classes"][1]["arrival"].update(rate_per_s=float("nan")),
                "class 2: rate must be finite and > 0, got nan",
            ),
            (
                lambda c: c["classes"][0].update(service_rate_mbps=float("inf")),
                "class 1: service rate must be finite and > 0, got inf",
            ),
            (lambda c: c.update(custmers=5), "config: unknown key 'custmers'"),
            (
                lambda c: c["classes"][1].update(service_rate=5),
                "classes[1]: unknown key 'service_rate'",
            ),
            (
                lambda c: c["classes"][1]["size"].update(packet_bytes=5),
                "class 2 size: unknown key 'packet_bytes'",
            ),
            (
                lambda c: c["classes"][1]["arrival"].pop("rate_per_s"),
                "class 2 arrival: missing key 'rate_per_s'",
            ),
            (lambda c: c.pop("classes"), "config: missing key 'classes'"),
            (lambda c: c.update(bounds="md1"), "config: invalid bounds: 'md1'"),
            (lambda c: c.update(customers=float("inf")), "config: invalid customers: inf"),
            (lambda c: c.update(customers=2500.7), "config: invalid customers: 2500.7"),
            (
                lambda c: c["classes"][1].update(class_id=2.9),
                "classes[1]: invalid class_id: 2.9",
            ),
            (lambda c: c.update(tau_max_ms=float("nan")), "tau_max_s must be finite"),
            (lambda c: c.update(seed=-4), "seed must be an integer >= 0, got -4"),
            (lambda c: c.update(classes=[]), "need at least one class"),
            # summary.json would carry a bare NaN, which strict JSON rejects
            (lambda c: c.update(case_id=float("nan")), "config: invalid case_id: nan"),
            (lambda c: c.update(case_id=[3]), "config: invalid case_id: [3]"),
            (lambda c: c.update(case_id=True), "config: invalid case_id: True"),
            (lambda c: c.update(case_id=2.5), "config: invalid case_id: 2.5"),
            (
                lambda c: c["classes"][0].update(
                    size={"kind": "exponential", "mean_packet_bytes": 100}
                ),
                "class 1: periodic classes need constant sizes",
            ),
            (lambda c: c.update(bounds=["mixed_pair", "mixed_pair"]), "duplicate bound name"),
            # a number is an int or a float, never true, false or a string
            (
                lambda c: c["classes"][1]["arrival"].update(rate_per_s=True),
                "class 2 arrival: invalid rate_per_s: True",
            ),
            (
                lambda c: c["classes"][1].update(service_rate_mbps=True),
                "class 2: invalid service_rate_mbps: True",
            ),
            (
                lambda c: c["classes"][0]["size"].update(packet_bytes="100"),
                "class 1 size: invalid packet_bytes: '100'",
            ),
            (lambda c: c.update(tau_max_ms="5"), "config: invalid tau_max_ms: '5'"),
            (lambda c: c.update(warmup_fraction=False), "config: invalid warmup_fraction: False"),
            (
                lambda c: c["classes"][1].update(arrival=[["kind", "poisson"], ["rate_per_s", 1]]),
                "class 2: invalid arrival: [['kind', 'poisson'], ['rate_per_s', 1]]",
            ),
            (
                lambda c: c["classes"][1].update(
                    arrival={
                        "kind": "coupled_poisson",
                        "rate_per_s": 1000,
                        "coupling_group": 1,
                        "mechanism": 5,
                    }
                ),
                "class 2 arrival: invalid mechanism: 5",
            ),
            # json.load alone would keep the last of the two values; an edit
            # that returns a string writes that string
            (
                lambda c: '{"customers": 5, ' + json.dumps(c)[1:],
                "case.json: duplicate key 'customers'",
            ),
        ],
    )
    def test_bad_config_is_a_precise_config_error(self, tmp_path, capsys, edit, message):
        config = _readme_config()
        text = edit(config)
        path = tmp_path / "case.json"
        path.write_text(text if isinstance(text, str) else json.dumps(config))
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            # each id ends with the rule its message states after naming the group
            pytest.param(
                lambda c: c["classes"][1].update(
                    arrival={"kind": "coupled_poisson", "rate_per_s": 1000, "coupling_group": 1}
                ),
                "coupling group 1 (class 2): a coupling group needs at least 2 classes",
                id="<lambda>-a coupling group needs at least 2 classes",
            ),
            pytest.param(
                lambda c: c.update(
                    classes=[
                        {
                            **c["classes"][0],
                            "arrival": {"kind": "coupled_poisson", "rate_per_s": 10000,
                                        "coupling_group": 1, "mechanism": "scaled"},
                        },
                        {
                            **c["classes"][1],
                            "arrival": {"kind": "coupled_poisson", "rate_per_s": 1000,
                                        "coupling_group": 1, "mechanism": "synchronized"},
                            "size": {"kind": "constant", "packet_bytes": 1250},
                        },
                    ],
                    bounds=["md1"],
                ),
                "coupling group 1 (classes 1, 2): all specs in a group must use the same mechanism",
                id="<lambda>-all specs in a group must use the same mechanism",
            ),
        ],
    )
    def test_bad_coupling_group_rejected_by_every_command(self, tmp_path, capsys, edit, message):
        # bounds draws no arrivals, so the group is checked with the config
        config = _readme_config()
        edit(config)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(config))
        for command in ("bounds", "simulate", "compare"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
            assert f"error: {message}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            # bounds accepted it, and simulate and compare failed in
            # np.random.SeedSequence with a bare ValueError
            (
                lambda c: c["classes"][1].update(class_id=-1),
                "class -1: class_id must be an integer >= 0, got -1",
            ),
            (
                lambda c: c.update(
                    classes=[
                        {**cls, "arrival": {"kind": "coupled_poisson", "rate_per_s": rate,
                                            "coupling_group": -4}}
                        for cls, rate in zip(c["classes"], (10000, 1000))
                    ],
                    bounds=[],
                ),
                "class 1: coupling_group must be an integer >= 0, got -4",
            ),
            # simulate failed with an OverflowError in the class column of
            # records.csv, and bounds and compare exited 0
            (
                lambda c: c["classes"][1].update(class_id=2**63),
                "class 9223372036854775808: class_id must be below 2**63, "
                "got 9223372036854775808",
            ),
            # an infinite rate: simulate failed in proportional_counts
            (
                lambda c: c["classes"][0]["arrival"].update(period_ms=1e-320),
                "class 1: arrival_rate_hz must be finite and > 0, got inf",
            ),
            # a service time of 0: bounds and compare failed with a ZeroDivisionError
            (
                lambda c: c["classes"][1].update(
                    size={"kind": "exponential", "mean_packet_bytes": 1e-300},
                    service_rate_mbps=1e300,
                ),
                "class 2: mean_service_s must be finite and > 0, got 0.0",
            ),
        ],
        ids=["class_id", "coupling_group", "class_id_huge", "infinite_rate",
             "zero_service_time"],
    )
    def test_bad_class_rejected_by_every_command(self, tmp_path, capsys, edit, message):
        config = _readme_config()
        edit(config)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(config))
        for command in ("bounds", "simulate", "compare"):
            out = tmp_path / command
            size = [] if command == "bounds" else ["--customers", "2000"]
            assert main([command, "--config", str(path), "--out", str(out), *size]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "file_seed,flags,seed", [(5, [], 5), (None, [], 99), (5, ["--seed", "7"], 7)]
    )
    def test_seed_precedence_with_a_config_file(
        self, tmp_path, monkeypatch, file_seed, flags, seed
    ):
        # --seed, then the file's seed, then MCFIFO_SEED
        monkeypatch.setenv("MCFIFO_SEED", "99")
        config = _readme_config()
        if file_seed is not None:
            config["seed"] = file_seed
        path = tmp_path / "case.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        args = ["simulate", "--config", str(path), "--customers", "2000", "--format", "json"]
        assert main(args + flags + ["--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["seed"] == seed

    def test_readme_example_loads(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(_readme_config()))
        code = main(["bounds", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_non_integer_env_seed_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MCFIFO_SEED", "seven")
        assert main(["bounds", "--case", "1", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "MCFIFO_SEED must be an integer, got 'seven'" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys, monkeypatch):
        args = ["simulate", "--case", "3", "--customers", "100", "--out", str(tmp_path)]
        assert main(args + ["--seed", "-1"]) == EXIT_CONFIG
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        monkeypatch.setenv("MCFIFO_SEED", "-3")
        assert main(args) == EXIT_CONFIG
        assert "seed must be an integer >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    def test_overloaded_config_is_a_config_error(self, tmp_path, capsys):
        config = _readme_config()
        config["classes"][1]["arrival"]["rate_per_s"] = 1e6
        path = tmp_path / "case.json"
        path.write_text(json.dumps(config))
        assert main(["bounds", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "no positive decay" in capsys.readouterr().err

    def test_internal_key_error_propagates(self, tmp_path, monkeypatch):
        import mcfifo.experiments as experiments_mod

        def broken(config):
            raise KeyError("internal")

        monkeypatch.setattr(experiments_mod, "case_bound_entries", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["bounds", "--case", "1", "--out", str(tmp_path)])

    def test_jobs_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--case", "3", "--jobs", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("bounds", ["--customers", "100"]),
            ("bounds", ["--replications", "10"]),
            ("bounds", ["--seed", "7"]),
            ("bounds", ["--warmup", "0.2"]),
            ("simulate", ["--replications", "10000"]),
            ("compare", ["--format", "json"]),
        ],
    )
    def test_a_flag_the_command_does_not_read_is_rejected(self, tmp_path, capsys, command, flag):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--case", "3", *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_benchmark_command_lines_parse(self):
        parser = build_parser()
        for argv in (
            ["bounds", "--case", "4"],
            ["bounds", "--case", "4", "--grid-points", "200"],
            ["simulate", "--case", "4", "--customers", "40000", "--format", "json", "--seed", "3"],
            ["simulate", "--case", "4", "--customers", "2000", "--format", "json", "--seed", "3",
             "--grid-points", "200"],
            ["compare", "--case", "5", "--seed", "3"],
            ["compare", "--case", "5", "--seed", "3", "--customers", "20000",
             "--grid-points", "200"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    def test_preset_list(self, capsys):
        assert main(["preset-list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("case ") == 6
        assert "synchronized" in out
        assert out.splitlines()[4].endswith(" | bounds=md1,split_constant")

    def test_case_choices_are_the_presets(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("bounds", "simulate", "compare"):
            case = next(a for a in sub.choices[command]._actions if a.dest == "case")
            assert case.choices == sorted(PRESETS)


def test_cli_import_loads_no_scipy():
    src = str(Path(mcfifo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, mcfifo.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
