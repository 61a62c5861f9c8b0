import io
import math
import random

import pytest

from btsearch.budget import Budget, SchedulerConfig
from btsearch.checkpoint import checkpoint_read
from btsearch.engine import run
from btsearch.errors import InputFormatError, NodeDecodeError
from btsearch.apps import build_application
from btsearch.apps.base import encode_ints
from btsearch.apps.sat.app import SatApplication
from btsearch.apps.sat.dimacs import parse_dimacs, verify_model
from btsearch.apps.sat.solver import solve_budgeted

from oracles import (
    brute_force_implied,
    brute_force_sat,
    cnf_text,
    occurrences,
    pigeonhole_cnf,
    random_3cnf,
)


def sat_config(limit, num_workers=2, **kw):
    return SchedulerConfig(
        num_workers=num_workers,
        base_max_depth=None,
        base_max_nodes=limit,
        scale=1,
        lmin=math.inf,
        lmax=math.inf,
        **kw,
    )


def run_sat(cnf, limit=None, kind="decisions", num_workers=2):
    out = io.StringIO()
    report = run(
        SatApplication(budget_kind=kind),
        cnf_text(cnf).encode(),
        sat_config(limit, num_workers),
        out,
    )
    lines = out.getvalue().splitlines()
    verdicts = [l for l in lines if l.startswith("s ")]
    assert len(verdicts) == 1, lines
    model = None
    for line in lines:
        if line.startswith("v "):
            model = tuple(int(t) for t in line.split()[1:-1])
    return verdicts[0], model, report


class TestVerdicts:
    def test_sat_instance_emits_model(self):
        cnf = parse_dimacs(b"p cnf 2 2\n1 0\n-1 2 0\n")
        verdict, model, report = run_sat(cnf)
        assert verdict == "s SATISFIABLE"
        assert model == (1, 2)
        assert report.halted

    def test_unsat_instance_emits_final_verdict(self):
        cnf = pigeonhole_cnf(3, 2)
        verdict, model, report = run_sat(cnf)
        assert verdict == "s UNSATISFIABLE"
        assert model is None

    def test_unsat_with_tiny_budgets_many_jobs(self):
        cnf = pigeonhole_cnf(4, 3)
        verdict, _, report = run_sat(cnf, limit=1, kind="decisions", num_workers=4)
        assert verdict == "s UNSATISFIABLE"
        assert report.jobs_executed > 5
        assert report.jobs_executed == len(report.frequencies)

    def test_verdict_invariance_small_matrix(self):
        rng = random.Random(4242)
        for _ in range(6):
            cnf = random_3cnf(rng, rng.randrange(5, 10), rng.randrange(15, 35))
            expected_sat, _ = brute_force_sat(cnf)
            expected = "s SATISFIABLE" if expected_sat else "s UNSATISFIABLE"
            for workers in (1, 4):
                for kind in ("decisions", "conflicts"):
                    for limit in (1, 10, None):
                        verdict, model, _ = run_sat(cnf, limit, kind, workers)
                        assert verdict == expected
                        if model is not None:
                            assert verify_model(cnf, model)

    def test_a_refuted_run_counts_its_verdict(self):
        # every subspace refuted, none globally: the verdict comes from
        # finalize and is the run's one output
        cnf = pigeonhole_cnf(4, 3)
        verdict, _, report = run_sat(cnf, limit=1, kind="decisions", num_workers=1)
        assert verdict == "s UNSATISFIABLE"
        assert not report.halted
        assert report.total_output_count == 1


class TestSharedUnits:
    def test_shared_tokens_are_implied_unit_clauses(self):
        # an UNSAT instance with forced chains produces learnt clauses; a
        # unit is a one-literal clause
        rng = random.Random(31)
        app = SatApplication()
        audited = 0
        for _ in range(10):
            cnf = random_3cnf(rng, 8, 36)
            _, _, report = run_sat(cnf, limit=2, kind="decisions", num_workers=4)
            for clause in report.shared_tokens:
                assert app.decode_token(app.encode_token(clause), cnf) == clause
                assert list(clause) == sorted(clause)
                assert brute_force_implied(cnf, clause)
                audited += 1
        assert audited > 0

    def test_a_job_returns_its_short_learnt_clauses_as_sorted_tokens(self):
        app = SatApplication(budget_kind="conflicts")
        gd, root = app.init(cnf_text(pigeonhole_cnf(5, 4)).encode())
        result = app.search(gd, root, Budget(None, 30), ())
        outcome = solve_budgeted(gd, (), 30, "conflicts", activity=gd.activity)
        assert result.shared_delta == outcome.learnt_clauses
        assert any(len(c) > 1 for c in outcome.learnt_clauses)

    def test_relayed_clauses_reach_the_solver(self):
        # the same job, handed the clauses an earlier job learnt, needs
        # fewer conflicts than it does alone
        app = SatApplication(budget_kind="conflicts")
        gd, root = app.init(cnf_text(pigeonhole_cnf(5, 4)).encode())
        alone = app.search(gd, root, Budget(None, None), ())
        relayed = app.search(gd, root, Budget(None, None), tuple(alone.shared_delta))
        assert alone.outputs == relayed.outputs == ["s UNSATISFIABLE"]
        assert relayed.visited < alone.visited

    def test_an_out_of_range_relayed_clause_is_refused(self):
        # a relayed clause reaches the solver as it came; the solver still
        # range-checks it on every job
        app = SatApplication()
        wide, root = app.init(b"p cnf 13 1\n1 2 0\n")
        assert app.search(wide, root, Budget(None, None), ((-13, -8),)).halt
        narrow, root = app.init(b"p cnf 3 1\n1 2 0\n")
        with pytest.raises(InputFormatError, match="out of range"):
            app.search(narrow, root, Budget(None, None), ((-13, -8),))

    def test_an_empty_relayed_clause_refutes_globally(self):
        app = SatApplication()
        gd, root = app.init(b"p cnf 2 1\n1 2 0\n")
        result = app.search(gd, root, Budget(None, None), ((1,), ()))
        assert result.halt
        assert result.outputs == ["s UNSATISFIABLE"]

    @pytest.mark.parametrize(
        "token",
        [b"", b"0", b"1 0", b"4", b"-4 1", b"2 2", b"1 -1", b"-3 1 3", b"x"],
        ids=["empty", "zero", "zero-in-clause", "out-of-range", "out-of-range-in-clause",
             "repeated-literal", "complementary-pair", "repeated-variable", "garbage"],
    )
    def test_decode_token_rejects_a_bad_clause(self, token):
        app = SatApplication()
        gd, _ = app.init(b"p cnf 3 1\n1 2 3 0\n")
        with pytest.raises(NodeDecodeError):
            app.decode_token(token, gd)

    def test_decode_token_rejects_more_than_8_literals(self):
        app = SatApplication()
        gd, _ = app.init(b"p cnf 9 1\n1 2 3 0\n")
        assert app.decode_token(encode_ints(range(1, 9)), gd) == tuple(range(1, 9))
        with pytest.raises(NodeDecodeError, match="9 literals"):
            app.decode_token(encode_ints(range(1, 10)), gd)

    def test_decode_token_reads_units_and_clauses(self):
        app = SatApplication()
        gd, _ = app.init(b"p cnf 3 1\n1 2 3 0\n")
        assert app.decode_token(b"-1", gd) == (-1,)
        assert app.decode_token(b"-3 -1 2", gd) == (-3, -1, 2)
        # sorted as a job shares it, so a restored clause and a learnt one are one token
        assert app.decode_token(b"2 -3", gd) == (-3, 2)
        assert app.encode_token((-3, 2)) == b"-3 2"


class TestCheckpointResume:
    def test_interrupted_unsat_run_resumes_to_the_same_verdict(self, tmp_path):
        cnf = pigeonhole_cnf(4, 3)
        cp = tmp_path / "sat.ckpt"
        cfg = sat_config(1, num_workers=2, checkpoint_path=cp, stop_after_jobs=4)
        out = io.StringIO()
        partial = run(SatApplication(), cnf_text(cnf).encode(), cfg, out)
        assert not partial.completed
        assert "s " not in out.getvalue()
        resume_cfg = sat_config(1, num_workers=4, restart_path=cp)
        out2 = io.StringIO()
        resumed = run(SatApplication(), cnf_text(cnf).encode(), resume_cfg, out2)
        assert resumed.completed
        assert out2.getvalue().splitlines()[-1] == "s UNSATISFIABLE"
        # shared clause tokens written before the stop are restored on resume
        assert set(partial.shared_tokens) <= set(resumed.shared_tokens)

    def test_shared_tokens_are_checked_once_where_they_enter(self, tmp_path, monkeypatch):
        # decode_token checks the tokens a checkpoint restores, once each;
        # the tokens relayed between jobs are the solver's own clauses
        checked = []
        decode_token = SatApplication.decode_token

        def counted(app, token, global_data):
            checked.append(token)
            return decode_token(app, token, global_data)

        monkeypatch.setattr(SatApplication, "decode_token", counted)
        data = cnf_text(pigeonhole_cnf(5, 4)).encode()
        cp = tmp_path / "sat.ckpt"
        cfg = sat_config(2, checkpoint_path=cp, stop_after_jobs=12)
        fresh = run(SatApplication(budget_kind="conflicts"), data, cfg, io.StringIO())
        assert fresh.jobs_executed > 1 and fresh.shared_tokens
        assert checked == []
        _, tokens = checkpoint_read(cp)
        assert tokens
        resumed = run(
            SatApplication(budget_kind="conflicts"),
            data,
            sat_config(2, restart_path=cp),
            io.StringIO(),
        )
        assert resumed.completed and resumed.jobs_executed > 1
        assert checked == tokens


class TestBranching:
    def test_a_job_branches_by_activity(self):
        cnf = random_3cnf(random.Random(0), 40, 170)
        app = SatApplication(budget_kind="conflicts")
        gd, _root = app.init(cnf_text(cnf).encode())
        assert gd.activity == tuple(occurrences(cnf))
        result = app.search(gd, (2, -7), Budget(None, 10), ())
        outcome = solve_budgeted(gd, (2, -7), 10, "conflicts", activity=gd.activity)
        assert outcome.status == "exhausted"
        assert result.unexplored == outcome.splits
        assert result.visited == outcome.conflicts
        assert result.shared_delta == outcome.learnt_clauses
        # unseeded activity and the lowest-index order split this job elsewhere
        unseeded = solve_budgeted(gd, (2, -7), 10, "conflicts", activity=[0] * len(gd.activity))
        assert unseeded.splits != outcome.splits
        assert solve_budgeted(gd, (2, -7), 10, "conflicts").splits != outcome.splits


class TestNodePayloads:
    def test_assumption_round_trip(self):
        app = SatApplication()
        gd, root = app.init(b"p cnf 3 1\n1 2 3 0\n")
        assert root == ()
        assert app.encode_node(root) == b""
        assert app.decode_node(b"", gd) == ()
        assert app.decode_node(app.encode_node((1, -3)), gd) == (1, -3)

    def test_decode_rejects_garbage(self):
        app = SatApplication()
        gd, _ = app.init(b"p cnf 2 1\n1 2 0\n")
        with pytest.raises(NodeDecodeError):
            app.decode_node(b"1 1", gd)  # variable assumed twice
        with pytest.raises(NodeDecodeError):
            app.decode_node(b"5", gd)  # out of range
        with pytest.raises(NodeDecodeError):
            app.decode_node(b"xyz", gd)

    def test_search_rejects_node_budget_kind(self):
        # the app checks its kind when it is built, before any run
        message = "sat accepts budget kinds decisions, conflicts, not 'nodes'"
        with pytest.raises(ValueError, match=message):
            SatApplication(budget_kind="nodes")
        with pytest.raises(ValueError, match=message):
            build_application("sat", budget_kind="nodes")

    def test_inconsistent_shared_units_signal_global_unsat(self):
        app = SatApplication()
        gd, root = app.init(b"p cnf 2 1\n1 2 0\n")
        result = app.search(gd, root, Budget(None, None), ((1,), (-1,)))
        assert result.halt
        assert result.outputs == ["s UNSATISFIABLE"]

    def test_the_budget_kind_sets_what_a_unit_counts(self):
        data = cnf_text(pigeonhole_cnf(5, 4)).encode()
        splits = {}
        for kind in ("decisions", "conflicts"):
            app = SatApplication(budget_kind=kind)
            gd, root = app.init(data)
            result = app.search(gd, root, Budget(None, 5), ())
            outcome = solve_budgeted(gd, (), 5, kind, activity=gd.activity)
            assert outcome.status == "exhausted"
            assert result.visited == getattr(outcome, kind)
            splits[kind] = result.unexplored
            assert splits[kind] == outcome.splits
        assert splits["decisions"] != splits["conflicts"]
