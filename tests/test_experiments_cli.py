"""Experiment drivers, their report/record formats, and the CLI front end."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from scipy import stats

from simplex_gibbs import cli, experiments
from simplex_gibbs.cftp import cftp_sample, run_epoch
from simplex_gibbs.chain import LambdaLaw
from simplex_gibbs.cli import main
from simplex_gibbs.experiments import (
    SummaryReport,
    analytic_collector_mean,
    exact_collector_mean,
    run_cftp,
    run_connectivity,
    run_contraction,
    run_couple,
    run_discrete,
    run_lower_bound,
    run_simulate,
    wilson_lower,
)
from simplex_gibbs.partitions import EdgeSchedule
from simplex_gibbs.two_stage import burn_in_steps, stage_steps

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _validator(name):
    with open(SCHEMA_DIR / name) as fh:
        schema = json.load(fh)
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


SUMMARY = _validator("summary_report.schema.json")
REPLICA = _validator("replica_record.schema.json")
EPOCH = _validator("epoch_record.schema.json")


def _read_traces(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replica", "t", "value"]
    return [(int(r), int(t), float(v)) for r, t, v in rows[1:]]


class TestSummaryReport:
    def test_stat_shape_enforced(self):
        # a statistic comes only through stat, which writes every key
        with pytest.raises(TypeError, match="statistics"):
            SummaryReport("simulate", {}, 0, statistics=[{"name": "x", "value": 1.0}])
        rep = SummaryReport("simulate", {}, 7)
        rep.stat("x", 1.0, 3)
        assert rep.statistics == [{"name": "x", "value": 1.0, "sample_size": 3, "seed": 7}]

    def test_check_shape_enforced(self):
        # a check comes only through check, which writes every key
        with pytest.raises(TypeError, match="checks"):
            SummaryReport("simulate", {}, 0, checks=[{"name": "x", "passed": True}])
        rep = SummaryReport("simulate", {}, 0)
        assert rep.check("x", 0.5, 1.0, "<=")
        assert rep.checks == [
            {"name": "x", "passed": True, "observed": 0.5, "threshold": 1.0, "comparison": "<="}
        ]

    def test_result_fields_are_not_constructor_keywords(self):
        # records come only through stat and check, so each keeps its shape
        for name in ("statistics", "checks", "elapsed_seconds", "total_steps"):
            with pytest.raises(TypeError, match=name):
                SummaryReport("simulate", {}, 0, **{name: []})

    def test_passed_all_empty(self):
        assert SummaryReport("simulate", {}, 0).passed_all()

    def test_wilson_lower_basics(self):
        assert wilson_lower(0, 100) == 0.0
        assert 0.0 < wilson_lower(50, 100) < 0.5
        assert wilson_lower(90, 100) > wilson_lower(50, 100)
        assert wilson_lower(100, 100) < 1.0
        with pytest.raises(ValueError):
            wilson_lower(5, 0)
        with pytest.raises(ValueError):
            wilson_lower(11, 10)

    def test_format_lines_mentions_every_check(self):
        rep = run_connectivity(8, 1.0, 50, 3)
        text = "\n".join(rep.format_lines())
        for c in rep.checks:
            assert c["name"] in text
        assert "sample_size=50" in text


class TestContraction:
    def test_matches_predicted_factor(self):
        rep = run_contraction(3, 4000, 7)
        SUMMARY.validate(rep.to_json_dict())
        stats = {s["name"]: s["value"] for s in rep.statistics}
        assert stats["predicted_ratio"] == pytest.approx(5.0 / 9.0, rel=1e-12)
        assert rep.passed_all()

    def test_n2_collides_exactly(self):
        rep = run_contraction(2, 300, 1)
        (chk,) = rep.checks
        assert chk["name"] == "one_step_ratio_exact_zero"
        assert chk["passed"] and chk["observed"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_contraction(1, 10, 0)
        with pytest.raises(ValueError):
            run_contraction(4, 0, 0)


class TestSimulate:
    def test_report_and_traces(self, tmp_path):
        out = tmp_path / "sim.csv"
        rep = run_simulate(4, 30, 50, 11, traces_path=out)
        SUMMARY.validate(rep.to_json_dict())
        assert rep.total_steps == 50 * 30
        rows = _read_traces(out)
        assert len(rows) == 50 * 31
        by_rep = {}
        for r, t, v in rows:
            by_rep.setdefault(r, []).append((t, v))
            assert v >= 0.0
        assert set(by_rep) == set(range(50))
        for ts in by_rep.values():
            assert [t for t, _ in ts] == list(range(31))
        # vertex start: distance to center is (n-1)/n at t = 0
        assert by_rep[0][0][1] == pytest.approx(3.0 / 4.0, rel=1e-12)

    def test_no_checks(self):
        rep = run_simulate(3, 5, 10, 0)
        assert rep.checks == [] and rep.passed_all()

    @pytest.mark.parametrize("a", [0.123456789, 1e-7])
    def test_beta_law_echo_parses_back(self, a):
        # a report says what ran: its law echo reads back to the same shape
        rep = run_simulate(3, 1, 1, 0, law=LambdaLaw.beta(a))
        assert cli._law(rep.parameters["law"]).a == a


class TestLowerBound:
    def test_frozen_closed_forms(self):
        assert analytic_collector_mean(4) == pytest.approx(13.333333333333332, abs=1e-12)
        assert analytic_collector_mean(3) == pytest.approx(7.5, abs=1e-12)
        assert exact_collector_mean(4) == pytest.approx(44.0 / 3.0, abs=1e-12)

    def test_mean_matches_exact_chain(self):
        rep = run_lower_bound(16, 20000, 5)
        SUMMARY.validate(rep.to_json_dict())
        checks = {c["name"]: c["passed"] for c in rep.checks}
        assert checks["mean_within_3se_of_exact"]
        # at n = 16 the asymptotic closed form is already inside 3%
        assert checks["mean_within_3pct_of_analytic"]

    def test_small_n_gap_is_honest(self):
        # at n = 4 the closed form differs from the simulated chain's exact
        # mean by about 10%, so the asymptotic check fails while the
        # exact-chain check holds
        rep = run_lower_bound(4, 8000, 1)
        checks = {c["name"]: c["passed"] for c in rep.checks}
        assert checks["mean_within_3se_of_exact"]
        assert not checks["mean_within_3pct_of_analytic"]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_lower_bound(2, 100, 0)
        with pytest.raises(ValueError):
            run_lower_bound(8, 0, 0)


class TestConnectivity:
    def test_default_length_and_pass(self):
        rep = run_connectivity(16, 1.0, 300, 3)
        SUMMARY.validate(rep.to_json_dict())
        assert rep.parameters["T"] == math.ceil(1.5 * 16 * math.log(16))
        assert rep.passed_all()
        stats = {s["name"]: s["value"] for s in rep.statistics}
        # every connected schedule refines down to singletons: n - 1 marks
        assert stats["marked_count_mean"] == pytest.approx(15.0, abs=0.2)

    def test_explicit_length(self):
        rep = run_connectivity(8, 0.5, 50, 0, T=4)
        # 4 edges cannot connect 8 vertices
        stats = {s["name"]: s["value"] for s in rep.statistics}
        assert stats["connected_frequency"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_connectivity(8, 0.0, 10, 0)
        with pytest.raises(ValueError):
            run_connectivity(8, -1.0, 10, 0)
        with pytest.raises(ValueError):
            run_connectivity(8, 1.0, 0, 0)


class TestCouple:
    def test_report_records_traces(self, tmp_path):
        traces = tmp_path / "z.csv"
        records = tmp_path / "rep.jsonl"
        rep = run_couple(8, 1.0, 40, 2, traces_path=traces, records_path=records)
        SUMMARY.validate(rep.to_json_dict())
        assert rep.parameters["d"] == pytest.approx(4.0)
        assert rep.parameters["e"] == pytest.approx(2.0)
        lines = records.read_text().splitlines()
        assert len(lines) == 40
        coalesced = 0
        for line in lines:
            rec = json.loads(line)
            REPLICA.validate(rec)
            coalesced += rec["coalesced"]
            if rec["coalesced"]:
                assert rec["weight_audit_max"] == 0.0
        stats = {s["name"]: s["value"] for s in rep.statistics}
        assert stats["coalesced_frequency"] == pytest.approx(coalesced / 40)
        rows = _read_traces(traces)
        burn_plus_stage = stats_detail = None
        for s in rep.statistics:
            if s["name"] == "coalesced_frequency":
                stats_detail = s["detail"]
        burn_plus_stage = stats_detail["burn"] + stats_detail["stage"]
        assert len(rows) == 40 * (burn_plus_stage + 1)
        assert rep.total_steps == 40 * burn_plus_stage

    def test_checks_pass_at_moderate_scale(self):
        rep = run_couple(8, 1.0, 60, 21)
        assert rep.passed_all()

    def test_validation(self, capsys):
        for bad in (
            dict(n=1),
            dict(replicas=0),
            *(dict(C=v) for v in (0.0, -1.0, math.inf, math.nan)),
            *(dict(d=v) for v in (0.0, -2.0, math.inf, math.nan)),
            *(dict(e=v) for v in (0.0, -2.0, math.inf, math.nan)),
        ):
            args = {"n": 4, "C": 1.0, "replicas": 2, "seed": 0, **bad}
            with pytest.raises(ValueError):
                run_couple(**args)
        assert main(["couple", "--n", "5", "--replicas", "2", "--d", "inf"]) == 1
        assert "error: need d > 0" in capsys.readouterr().err

    def test_burn_and_closeness_exponents_from_flags(self, capsys):
        rc = main(["couple", "--n", "5", "--replicas", "3", "--d", "3", "--e", "1", "--json"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        SUMMARY.validate(rep)
        assert (rep["parameters"]["d"], rep["parameters"]["e"]) == (3.0, 1.0)
        detail = next(s["detail"] for s in rep["statistics"] if s["name"] == "coalesced_frequency")
        assert detail["burn"] == burn_in_steps(5, 3) != burn_in_steps(5, 4.0)
        assert detail["stage"] == stage_steps(5, 1.0)
        assert rep["total_steps"] == 3 * (burn_in_steps(5, 3) + stage_steps(5, 1.0))


class TestCftp:
    def test_report_and_traces(self, tmp_path):
        out = tmp_path / "w.csv"
        rep = run_cftp(2, 150, 4, traces_path=out)
        SUMMARY.validate(rep.to_json_dict())
        assert rep.passed_all()
        stats = {s["name"]: s["value"] for s in rep.statistics}
        assert stats["doublings_median"] == 1.0
        rows = _read_traces(out)
        assert len(rows) >= 150
        finals = {}
        for r, k, v in rows:
            assert v in (0.0, 1.0)
            finals[r] = v
        # the last window of every sample is the certified one
        assert set(finals.values()) == {1.0}

    @pytest.mark.parametrize("n, samples", [(2, 150), (5, 60), (16, 30)])
    def test_report_and_traces_equal_per_sample_loop(self, n, samples, tmp_path, monkeypatch):
        # the reference runs window 1 of each sample inside its cftp_sample
        def report(name):
            rep = run_cftp(n, samples, 8, traces_path=tmp_path / name).to_json_dict()
            rep.pop("elapsed_seconds")
            return json.dumps(rep), (tmp_path / name).read_bytes()

        batched = report("batched.csv")
        monkeypatch.setattr(experiments, "_first_epochs", lambda n, master, samples: [None] * samples)
        assert batched == report("loop.csv")
        if n > 2:  # some sample went on past a failed window 1
            assert max(r for _r, r, _c in _read_traces(tmp_path / "loop.csv")) > 1

    @pytest.mark.parametrize("n, samples", [(16, 20), (3, 400), (5, 2000), (64, 8), (16, 1)])
    def test_one_ks_call_equals_per_coordinate_calls(self, n, samples):
        # the driver tests every coordinate in one kstest along axis 0; its
        # p-values are those of one kstest per coordinate, bit for bit
        points = np.random.default_rng(n * samples).dirichlet(np.ones(n), size=samples)
        cdf = experiments._coord_cdf(n)
        one = stats.kstest(points, cdf, axis=0).pvalue.tolist()
        per = [float(stats.kstest(points[:, k], cdf).pvalue) for k in range(n)]
        assert [p.hex() for p in one] == [p.hex() for p in per]

    def test_reported_ks_p_values_are_per_coordinate(self):
        stat = run_cftp(3, 40, 2).to_json_dict()["statistics"][0]
        assert stat["name"] == "coordinate_ks_min_p"
        points = np.array([cftp_sample(3, 2, r).point.values for r in range(40)])
        per = [float(stats.kstest(points[:, k], experiments._coord_cdf(3)).pvalue) for k in range(3)]
        assert [p.hex() for p in stat["detail"]["per_coordinate"]] == [p.hex() for p in per]

    def test_budget_error_propagates(self):
        from simplex_gibbs.cftp import BudgetExhaustedError

        with pytest.raises(BudgetExhaustedError) as err:
            run_cftp(5, 20, 99, max_doublings=1)
        # the first sample whose window 1 fails, as without the batch
        first = next(r for r in range(20) if not run_epoch(5, 99, r, 1).coalesced)
        assert (err.value.replica, err.value.doublings) == (first, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_cftp(1, 10, 0)
        with pytest.raises(ValueError):
            run_cftp(4, 0, 0)

    def test_refuses_an_empty_budget_before_walking(self, monkeypatch):
        def walked(*args):
            raise AssertionError("window 1 walked before the budget was checked")

        monkeypatch.setattr(experiments, "_first_epochs", walked)
        with pytest.raises(ValueError, match="max_doublings"):
            run_cftp(64, 64, 0, max_doublings=0)


COUNT_ENTRY_POINTS = {
    "schedule_length": (lambda v: EdgeSchedule.sample(4, v, np.random.default_rng(0)), -1),
    "connectivity_T": (lambda v: run_connectivity(4, 1.0, 1, 0, T=v), -1),
    "sampler_budget": (lambda v: cftp_sample(3, 0, 0, max_doublings=v), 0),
    "driver_budget": (lambda v: run_cftp(3, 1, 0, max_doublings=v), 0),
    "cftp_samples": (lambda v: run_cftp(3, v, 0), 0),
    "couple_replicas": (lambda v: run_couple(3, 1.0, v, 0), 0),
    "simulate_replicas": (lambda v: run_simulate(3, 5, v, 0), 0),
    "contraction_replicas": (lambda v: run_contraction(3, v, 0), 0),
    "discrete_replicas": (lambda v: run_discrete(3, 10, 5, v, 0), 0),
    "connectivity_trials": (lambda v: run_connectivity(4, 1.0, v, 0), 0),
    "lower_bound_trials": (lambda v: run_lower_bound(4, v, 0), 0),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_counts_are_checked_on_every_entry_point(entry):
    # a bool would count as one, a float would fail late with a TypeError
    call, out_of_range = COUNT_ENTRY_POINTS[entry]
    for value in (True, 2.5, out_of_range):
        with pytest.raises(ValueError):
            call(value)


class TestDiscrete:
    def test_decay_and_conservation(self, tmp_path):
        out = tmp_path / "d.csv"
        rep = run_discrete(8, 10**6, 24, 100, 13, traces_path=out)
        SUMMARY.validate(rep.to_json_dict())
        assert rep.passed_all()
        stats = {s["name"]: s["value"] for s in rep.statistics}
        assert stats["uniform_law_prediction"] == pytest.approx(0.8928571428571, rel=1e-9)
        assert stats["binomial_split_prediction"] == pytest.approx(0.8571428571428, rel=1e-9)
        rows = _read_traces(out)
        assert len(rows) == 100 * 25
        # distances shrink overall: final mean well under the start
        z0 = rows[0][2]
        finals = [v for _, t, v in rows if t == 24]
        assert np.mean(finals) < 0.2 * z0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_discrete(8, 4, 10, 10, 0)  # M < n
        with pytest.raises(ValueError):
            run_discrete(8, 100, 0, 10, 0)


class TestDeterminism:
    @staticmethod
    def _strip(rep):
        d = rep.to_json_dict()
        d.pop("elapsed_seconds")
        return d

    def test_driver_reports_bitwise_stable(self):
        for a, b in [
            (run_contraction(4, 500, 9), run_contraction(4, 500, 9)),
            (run_lower_bound(8, 2000, 9), run_lower_bound(8, 2000, 9)),
            (run_connectivity(8, 1.0, 100, 9), run_connectivity(8, 1.0, 100, 9)),
            (run_cftp(2, 40, 9), run_cftp(2, 40, 9)),
            (
                run_couple(8, 1.0, 10, 9),
                run_couple(8, 1.0, 10, 9),
            ),
        ]:
            assert self._strip(a) == self._strip(b)

    def test_seed_changes_results(self):
        a = run_contraction(4, 500, 9)
        b = run_contraction(4, 500, 10)
        sa = {s["name"]: s["value"] for s in a.statistics}
        sb = {s["name"]: s["value"] for s in b.statistics}
        assert sa["one_step_ratio"] != sb["one_step_ratio"]


class TestRecordSchemas:
    def test_epoch_record_roundtrips(self):
        rec = run_epoch(5, 3, 0, 1)
        d = rec.to_json_dict()
        EPOCH.validate(d)
        json.loads(json.dumps(d))

    def test_failed_epoch_record_validates(self):
        # (master 99, replica 11) does not certify in window 1
        rec = run_epoch(5, 99, 11, 1)
        assert not rec.coalesced
        d = rec.to_json_dict()
        EPOCH.validate(d)
        assert d["final"] is None


class TestCli:
    def test_exit_zero_and_human_output(self, capsys):
        rc = main(["contraction", "--n", "3", "--replicas", "200", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "one_step_ratio" in out and "PASS" in out

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["simulate", "--n", "5"]) == 1
        assert main(["discrete", "--n", "8"]) == 1

    def test_unknown_command_exits_one(self):
        assert main(["frobnicate", "--n", "5"]) == 1

    def test_bad_law_exits_one(self):
        assert main(["simulate", "--n", "4", "--T", "5", "--law", "gamma:2"]) == 1
        assert main(["simulate", "--n", "4", "--T", "5", "--law", "beta:zero"]) == 1
        assert main(["simulate", "--n", "4", "--T", "5", "--law", "beta:-1"]) == 1

    def test_cftp_takes_no_law(self):
        # the perfect sampler is built on the uniform law and has no --law flag
        assert main(["cftp", "--n", "3", "--samples", "1", "--law", "beta:3"]) == 1
        assert main(["cftp", "--n", "3", "--samples", "1", "--law", "uniform"]) == 1

    def test_bad_value_exits_one(self, capsys):
        assert main(["contraction", "--n", "1", "--replicas", "10"]) == 1
        assert "error" in capsys.readouterr().err

    def test_assert_failure_exits_two(self):
        # small-n collector mean misses the asymptotic closed form
        rc = main(["lowerbound", "--n", "4", "--trials", "2000", "--seed", "1", "--assert"])
        assert rc == 2

    def test_assert_pass_exits_zero(self):
        rc = main(
            ["connectivity", "--n", "16", "--epsilon", "1.0", "--trials", "100", "--assert"]
        )
        assert rc == 0

    def test_empty_budget_exits_one(self, capsys):
        assert main(["cftp", "--n", "3", "--samples", "1", "--max-doublings", "0"]) == 1
        assert "max_doublings" in capsys.readouterr().err

    def test_budget_exhaustion_exits_three(self, capsys):
        rc = main(
            ["cftp", "--n", "5", "--samples", "20", "--seed", "99", "--max-doublings", "1"]
        )
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_json_output_validates(self, capsys):
        rc = main(["cftp", "--n", "2", "--samples", "30", "--seed", "4", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        SUMMARY.validate(d)
        assert d["command"] == "cftp"

    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["connectivity", "--n", "8", "--trials", "50", "--out", str(out), "--json"]
        )
        assert rc == 0
        d = json.loads(out.read_text())
        SUMMARY.validate(d)
        printed = json.loads(capsys.readouterr().out)
        d.pop("elapsed_seconds"), printed.pop("elapsed_seconds")
        assert d == printed

    def test_couple_writes_sidecar_records(self, tmp_path, capsys):
        out = tmp_path / "couple.json"
        rc = main(
            ["couple", "--n", "8", "--replicas", "10", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        SUMMARY.validate(json.loads(out.read_text()))
        side = tmp_path / "couple.json.jsonl"
        lines = side.read_text().splitlines()
        assert len(lines) == 10
        for line in lines:
            REPLICA.validate(json.loads(line))

    def test_law_flag_accepted(self, capsys):
        rc = main(
            ["simulate", "--n", "4", "--T", "10", "--replicas", "20", "--law", "beta:2.5"]
        )
        assert rc == 0
        # beta law reports no stationary KS statistic
        assert "ks" not in capsys.readouterr().out

    def test_cli_json_deterministic(self, capsys):
        argv = ["lowerbound", "--n", "6", "--trials", "500", "--seed", "8", "--json"]
        assert main(argv) == 0
        a = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        b = json.loads(capsys.readouterr().out)
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b
