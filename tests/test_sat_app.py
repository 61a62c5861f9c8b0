import io
import math
import random

import pytest

from btsearch.budget import Budget, SchedulerConfig
from btsearch.engine import run
from btsearch.errors import NodeDecodeError
from btsearch.apps.base import encode_ints
from btsearch.apps.sat.app import SatApplication
from btsearch.apps.sat.dimacs import parse_dimacs, verify_model

from oracles import brute_force_implied, brute_force_sat, cnf_text, pigeonhole_cnf, random_3cnf


def sat_config(limit, kind="decisions", num_workers=2, **kw):
    return SchedulerConfig(
        num_workers=num_workers,
        base_max_depth=None,
        base_max_nodes=limit,
        scale=1,
        lmin=math.inf,
        lmax=math.inf,
        budget_kind=kind,
        **kw,
    )


def run_sat(cnf, limit=None, kind="decisions", num_workers=2, **app_kw):
    out = io.StringIO()
    report = run(
        SatApplication(**app_kw),
        cnf_text(cnf).encode(),
        sat_config(limit, kind, num_workers),
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

    def test_restart_toggle_preserves_verdicts(self):
        rng = random.Random(555)
        for _ in range(4):
            cnf = random_3cnf(rng, 8, 30)
            expected_sat, _ = brute_force_sat(cnf)
            verdict, _, _ = run_sat(cnf, limit=5, kind="conflicts", restarts=True)
            assert verdict == ("s SATISFIABLE" if expected_sat else "s UNSATISFIABLE")


class TestSharedUnits:
    def test_shared_tokens_are_implied_unit_clauses(self):
        # an UNSAT instance with forced chains produces learnt units
        rng = random.Random(31)
        audited = 0
        for _ in range(10):
            cnf = random_3cnf(rng, 8, 36)
            _, _, report = run_sat(cnf, limit=2, kind="decisions", num_workers=4)
            for token in report.shared_tokens:
                lit = int(token.decode())
                assert brute_force_implied(cnf, lit)
                audited += 1
        assert audited > 0


class TestCheckpointResume:
    def test_interrupted_unsat_run_resumes_to_the_same_verdict(self, tmp_path):
        cnf = pigeonhole_cnf(4, 3)
        cp = tmp_path / "sat.ckpt"
        cfg = sat_config(1, "decisions", num_workers=2, checkpoint_path=cp, stop_after_jobs=4)
        out = io.StringIO()
        partial = run(SatApplication(), cnf_text(cnf).encode(), cfg, out)
        assert not partial.completed
        assert "s " not in out.getvalue()
        resume_cfg = sat_config(1, "decisions", num_workers=4, restart_path=cp)
        out2 = io.StringIO()
        resumed = run(SatApplication(), cnf_text(cnf).encode(), resume_cfg, out2)
        assert resumed.completed
        assert out2.getvalue().splitlines()[-1] == "s UNSATISFIABLE"
        # shared unit tokens written before the stop are restored on resume
        assert set(partial.shared_tokens) <= set(resumed.shared_tokens)


class TestNodePayloads:
    def test_assumption_round_trip(self):
        app = SatApplication()
        gd, root = app.init(b"p cnf 3 1\n1 2 3 0\n")
        assert root == b""
        assert app.decode_node(root, gd) == ()
        assert app.decode_node(encode_ints((1, -3)), gd) == (1, -3)

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
        # the engine checks the kind against the app's kinds before any search
        with pytest.raises(ValueError):
            SatApplication.resolve_budget_kind("nodes")
        with pytest.raises(ValueError):
            run(SatApplication(), b"p cnf 1 1\n1 0\n", sat_config(5, "nodes"))

    def test_inconsistent_shared_units_signal_global_unsat(self):
        app = SatApplication()
        gd, root = app.init(b"p cnf 2 1\n1 2 0\n")
        result = app.search(gd, root, Budget(None, None, "decisions"), (b"1", b"-1"))
        assert result.halt
        assert result.outputs == ["s UNSATISFIABLE"]
