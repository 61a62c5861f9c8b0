import io
import itertools
import math
import queue
import threading
import time

import pytest

from btsearch.budget import Budget, SchedulerConfig
from btsearch.engine import (
    AssignMsg,
    Master,
    OutputMsg,
    ResultMsg,
    SharedStore,
    consumer_loop,
    run,
    worker_loop,
)
from btsearch.errors import EngineError, InputFormatError, WorkerCrashError
from btsearch.search_api import Application, SearchResult
from btsearch.apps import build_application
from btsearch.apps.topsorts import count_extensions

from oracles import antichain, bipartite_poset, brute_force_extensions, cnf_text, pigeonhole_cnf
from test_reverse_search import complete_binary_depth3


def static_config(max_depth, max_nodes, num_workers=2, **kw):
    """Budgets that never react to the job-list length."""
    return SchedulerConfig(
        num_workers=num_workers,
        base_max_depth=max_depth,
        base_max_nodes=max_nodes,
        scale=1,
        lmin=math.inf,
        lmax=math.inf,
        **kw,
    )


def poset_bytes(poset):
    from btsearch.apps.topsorts import format_poset

    return format_poset(poset).encode()


class TreeApp(Application):
    """Fixed 15-vertex binary tree as an engine application (tests only)."""

    name = "tree15"

    def init(self, input_bytes):
        oracle = complete_binary_depth3()
        return oracle, b"r"

    def search(self, global_data, payload, budget, shared):
        from btsearch.reverse_search import budgeted_search

        start = self.decode_node(payload, global_data)
        outputs = []
        result = budgeted_search(
            global_data,
            start,
            max_depth=budget.max_depth,
            max_nodes=budget.max_nodes,
            sink=lambda v, f: outputs.append(v),
        )
        return SearchResult(
            outputs=outputs,
            output_count=len(outputs),
            unexplored=[v.encode() for v in result.unexplored],
            visited=result.count,
        )

    def encode_node(self, vertex):
        return vertex.encode()

    def decode_node(self, payload, global_data):
        return payload.decode()


class CrashingApp(TreeApp):
    name = "crash15"

    def search(self, global_data, payload, budget, shared):
        if payload == b"r":
            raise RuntimeError("boom")
        return super().search(global_data, payload, budget, shared)


class WorkerInitCrashApp(TreeApp):
    """``init`` succeeds for the master's call and raises in every worker."""

    name = "initcrash15"

    def __init__(self):
        self.calls = itertools.count()

    def init(self, input_bytes):
        if next(self.calls) > 0:
            raise RuntimeError("worker init failed")
        return super().init(input_bytes)


class TestSharedStore:
    def test_merge_dedupes_and_orders(self):
        store = SharedStore(2)
        assert store.merge([b"a", b"b", b"a"]) == 2
        assert store.merge([b"b", b"c"]) == 1
        assert store.tokens == (b"a", b"b", b"c")

    def test_delivery_at_most_once_per_worker(self):
        store = SharedStore(2)
        store.merge([b"t1", b"t2"])
        assert store.delta_for(0) == (b"t1", b"t2")
        assert store.delta_for(0) == ()
        store.merge([b"t3"])
        assert store.delta_for(0) == (b"t3",)
        assert store.delta_for(1) == (b"t1", b"t2", b"t3")


class TestMasterOperations:
    def make_master(self, *jobs, num_workers=2):
        master = Master(static_config(None, 10, num_workers=num_workers))
        master.joblist.extend(jobs)
        return master

    def test_assign_with_empty_store_carries_nothing(self):
        master = self.make_master(b"x")
        msg = master.assign_next()
        assert msg == AssignMsg(b"x", Budget(None, 10), ())
        assert master.inboxes[0].get_nowait() is msg
        assert master.in_flight == {0: b"x"}
        assert list(master.idle) == [1]
        assert not master.joblist

    def test_assign_carries_only_tokens_above_high_water_mark(self):
        master = self.make_master(b"x")
        master.store.merge([b"s1", b"s2", b"s3", b"s4", b"s5"])
        # simulate a worker that has already seen the first three
        master.store._marks[0] = 3
        msg = master.assign_next()
        assert msg.shared == (b"s4", b"s5")
        assert master.store.delta_for(0) == ()

    def test_consecutive_assigns_carry_nothing_new(self):
        master = self.make_master(b"x", b"y", num_workers=1)
        master.store.merge([b"s1"])
        first = master.assign_next()
        assert first.shared == (b"s1",)
        master.collect_result(ResultMsg(0, 1, 0, (), (), False))
        second = master.assign_next()
        assert second.shared == ()

    def test_collect_with_no_unfinished_leaves_joblist_alone(self):
        master = self.make_master(b"x")
        master.assign_next()
        master.collect_result(ResultMsg(0, 3, 2, (), (), False))
        assert len(master.joblist) == 0
        assert not master.in_flight
        assert list(master.idle) == [1, 0]
        assert master.report.frequencies == [3]

    def test_collect_appends_each_unfinished_node(self):
        master = self.make_master(b"x")
        master.assign_next()
        unfinished = (b"u1", b"u2", b"u3")
        master.collect_result(ResultMsg(0, 5, 0, unfinished, (), False))
        assert list(master.joblist) == [b"u1", b"u2", b"u3"]

    def test_collect_merges_tokens_without_redelivery(self):
        master = self.make_master(b"x", b"y", num_workers=1)
        master.assign_next()
        master.collect_result(ResultMsg(0, 1, 0, (), (b"tok",), False))
        assert len(master.store.tokens) == 1
        master.assign_next()
        master.collect_result(ResultMsg(0, 1, 0, (), (b"tok",), False))
        assert len(master.store.tokens) == 1  # duplicate token, stored once

    def test_result_from_a_worker_with_no_job_is_rejected(self):
        master = self.make_master(b"x")
        master.assign_next()
        with pytest.raises(EngineError, match="result from idle worker 1"):
            master.collect_result(ResultMsg(1, 1, 0, (), (), False))
        master.collect_result(ResultMsg(0, 1, 0, (), (), False))
        with pytest.raises(EngineError, match="result from idle worker 0"):
            master.collect_result(ResultMsg(0, 1, 0, (), (), False))
        assert master.report.jobs_executed == 1

    def test_pending_jobs_cover_in_flight_and_queued(self):
        master = self.make_master(b"flying", b"queued", num_workers=1)
        master.assign_next()
        assert master.pending_jobs() == [b"flying", b"queued"]
        master.collect_result(ResultMsg(0, 1, 0, (), (), False))
        assert master.pending_jobs() == [b"queued"]


class TestWorkerLoop:
    def run_worker(self, messages):
        inbox, to_master, to_consumer = queue.Queue(), queue.Queue(), queue.Queue()
        for msg in messages:
            inbox.put(msg)
        worker_loop(0, TreeApp(), b"", inbox, to_master, to_consumer)
        results = []
        while not to_master.empty():
            results.append(to_master.get())
        outputs = []
        while not to_consumer.empty():
            outputs.append(to_consumer.get())
        return results, outputs

    def test_terminate_first_exits_cleanly(self):
        results, outputs = self.run_worker([None])
        assert results == [] and outputs == []

    def test_job_within_budget_returns_no_unfinished(self):
        msg = AssignMsg(b"r", Budget(None, None), ())
        results, _ = self.run_worker([msg, None])
        assert len(results) == 1
        assert results[0].unexplored == ()
        assert results[0].visited == 14

    def test_budget_five_leaves_unfinished_work(self):
        # 15-vertex subtree, node budget 5: the flagged over-budget vertex
        # plus one backtrack sibling are returned; both were counted.
        msg = AssignMsg(b"r", Budget(None, 5), ())
        results, _ = self.run_worker([msg, None])
        assert len(results[0].unexplored) == 2
        assert results[0].visited == 6


class TestConsumerLoop:
    def drain(self, messages):
        inbox = queue.Queue()
        for m in messages:
            inbox.put(m)
        inbox.put(None)
        out = io.StringIO()
        to_master = queue.Queue()
        consumer_loop(inbox, out, to_master)
        assert to_master.empty()
        return out.getvalue()

    def test_messages_written_verbatim_in_order(self):
        got = self.drain([OutputMsg(("A",)), OutputMsg(("B",)), OutputMsg(("C",))])
        assert got == "A\nB\nC\n"

    def test_no_messages_no_output(self):
        assert self.drain([]) == ""

    def test_verdicts_deduplicated_to_first(self):
        got = self.drain(
            [OutputMsg(("s ONE",), verdict=True), OutputMsg(("s TWO",), verdict=True)]
        )
        assert got == "s ONE\n"


class FailingOutput(io.StringIO):
    """An output stream whose writes fail once ``limit`` lines are written."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, text):
        if self.getvalue().count("\n") >= self.limit:
            raise OSError(28, "No space left on device")
        return super().write(text)


class TestRun:
    def test_antichain_counts_all_extensions(self):
        out = io.StringIO()
        report = run(build_application("topsorts"), b"3 0\n", static_config(None, 1000), out)
        assert report.total_output_count == 6
        assert sorted(out.getvalue().splitlines()) == sorted(
            " ".join(map(str, p)) for p in brute_force_extensions(antichain(3))
        )

    def test_triangle_spanning_trees(self):
        report = run(build_application("spantree"), b"3 3\n1 2\n1 3\n2 3\n", static_config(None, 1000))
        assert report.total_output_count == 3

    def test_k33_poset_matches_brute_force(self):
        poset = bipartite_poset(3, 3)
        expected = len(brute_force_extensions(poset))
        assert expected == 36
        report = run(build_application("topsorts"), poset_bytes(poset), SchedulerConfig(num_workers=4))
        assert report.total_output_count == 36

    def test_count_extensions_operation(self):
        assert count_extensions(bipartite_poset(2, 2)) == 4

    def test_parse_failure_aborts_before_workers(self):
        with pytest.raises(InputFormatError):
            run(build_application("topsorts"), b"", SchedulerConfig(num_workers=2))
        assert threading.active_count() < 10  # no worker threads leaked

    def test_worker_crash_aborts_run_with_diagnostic(self):
        with pytest.raises(WorkerCrashError, match="boom"):
            run(CrashingApp(), b"", SchedulerConfig(num_workers=2))

    def test_worker_crash_before_first_result_aborts_promptly(self):
        start = time.monotonic()
        with pytest.raises(WorkerCrashError, match="worker init failed"):
            run(WorkerInitCrashApp(), b"", SchedulerConfig(num_workers=2))
        assert time.monotonic() - start < 5.0
        leaked = [t.name for t in threading.enumerate() if t.name.startswith("btsearch-")]
        assert leaked == []

    @pytest.mark.parametrize(
        ("count_only", "limit"),
        [(False, 0), (False, 5), (True, 0)],  # the total is written after the loop
    )
    def test_a_failed_output_write_aborts_the_run(self, count_only, limit):
        app = build_application("topsorts", count_only=count_only)
        with pytest.raises(EngineError, match="cannot write the output .OSError: .Errno 28"):
            run(app, b"4 0\n", static_config(None, 3), FailingOutput(limit))
        leaked = [t.name for t in threading.enumerate() if t.name.startswith("btsearch-")]
        assert leaked == []

    @pytest.mark.parametrize(
        ("name", "kind", "data"),
        [("topsorts", "conflicts", b"4 0\n"), ("sat", "nodes", b"p cnf 1 1\n1 0\n")],
    )
    def test_rejects_a_budget_kind_the_app_does_not_accept(self, name, kind, data):
        app = build_application(name)
        inits = []
        app.init = lambda input_bytes: inits.append(input_bytes)
        with pytest.raises(ValueError, match=f"{name} accepts budget kinds"):
            run(app, data, static_config(None, 5, budget_kind=kind))
        assert inits == []  # rejected before the input is parsed
        leaked = [t.name for t in threading.enumerate() if t.name.startswith("btsearch-")]
        assert leaked == []

    def test_report_invariants(self):
        report = run(build_application("topsorts"), b"4 0\n", static_config(None, 7, num_workers=3))
        assert report.jobs_executed == len(report.frequencies)
        assert report.completed and not report.halted
        assert report.wall_time >= 0
        for elapsed, busy, joblist_len in report.samples:
            assert 0 <= busy <= 3
            assert joblist_len >= 0
        assert [s[0] for s in report.samples] == sorted(s[0] for s in report.samples)

    def test_count_only_emits_single_aggregate_line(self):
        # many jobs, stopped part-way: still one line, the master's total
        out = io.StringIO()
        app = build_application("topsorts", count_only=True)
        cfg = static_config(None, 3, num_workers=2, stop_after_jobs=4)
        report = run(app, b"4 0\n", cfg, out)
        assert not report.completed
        assert 0 < report.total_output_count < 24
        assert out.getvalue() == f"{report.total_output_count}\n"

    def test_count_only_app_prints_only_the_total_under_a_default_config(self):
        # count-only is the app's setting alone: no extension lines, one total
        out = io.StringIO()
        app = build_application("topsorts", count_only=True)
        report = run(app, b"3 0\n", SchedulerConfig(num_workers=2), out)
        assert out.getvalue() == "6\n"
        assert report.total_output_count == 6

    def test_count_only_consumer_emits_total(self):
        out = io.StringIO()
        app = build_application("topsorts", count_only=True)
        report = run(app, b"4 0\n", static_config(None, 7), out)
        assert out.getvalue().strip() == "24"
        assert report.total_output_count == 24

    def test_budget_hits_show_up_in_frequencies(self):
        # tree larger than the static budget: some job consumed at least b
        report = run(build_application("topsorts"), b"4 0\n", static_config(None, 7, 2))
        assert any(f >= 7 for f in report.frequencies)
        assert len(report.frequencies) == report.jobs_executed > 1


class TestDeterminism:
    def test_output_and_frequency_multisets_static_budget(self):
        poset = bipartite_poset(3, 2)
        baseline = None
        for workers in (1, 2, 4, 8):
            out = io.StringIO()
            cfg = static_config(None, 6, num_workers=workers)
            report = run(build_application("topsorts"), poset_bytes(poset), cfg, out)
            key = (sorted(out.getvalue().splitlines()), sorted(report.frequencies))
            if baseline is None:
                baseline = key
            assert key == baseline

    def test_partition_conservation_across_budgets(self):
        poset = bipartite_poset(3, 2)
        unbudgeted = run(
            build_application("topsorts"), poset_bytes(poset), static_config(None, None, 1)
        )
        reference = sum(unbudgeted.frequencies)
        for max_depth, max_nodes in ((2, 10), (None, 6), (None, 5000)):
            out = io.StringIO()
            cfg = static_config(max_depth, max_nodes, num_workers=4)
            report = run(build_application("topsorts"), poset_bytes(poset), cfg, out)
            assert sum(report.frequencies) == reference
            lines = out.getvalue().splitlines()
            assert len(lines) == len(set(lines))  # zero duplicate outputs


class TestStopAndResume:
    def test_unwritable_checkpoint_path_warns_but_run_completes(self, tmp_path, caplog):
        bad = tmp_path / "missing_dir" / "state.ckpt"
        cfg = static_config(None, 5, num_workers=2, checkpoint_path=bad, stop_after_jobs=2)
        report = run(build_application("topsorts"), b"4 0\n", cfg)
        assert not report.completed  # stopped early; checkpoint failed but no crash
        assert not bad.exists()
        assert any("cannot write checkpoint" in r.message for r in caplog.records)

    def test_stop_after_the_last_job_completes_the_run(self, tmp_path):
        # pigeonhole(4 into 3) at conflict budget 3 takes exactly 3 jobs on one worker
        cnf = cnf_text(pigeonhole_cnf(4, 3)).encode()
        cp = tmp_path / "state.ckpt"
        for stop in (3, 4):
            out = io.StringIO()
            cfg = static_config(
                None, 3, num_workers=1, budget_kind="conflicts", checkpoint_path=cp,
                stop_after_jobs=stop,
            )
            report = run(build_application("sat"), cnf, cfg, out)
            assert report.jobs_executed == 3
            assert report.completed
            assert out.getvalue().splitlines() == ["s UNSATISFIABLE"]
            assert not cp.exists()

    def test_stop_after_jobs_checkpoints_and_reports_incomplete(self, tmp_path):
        cp = tmp_path / "state.ckpt"
        cfg = static_config(None, 4, num_workers=1, checkpoint_path=cp, stop_after_jobs=3)
        out = io.StringIO()
        report = run(build_application("topsorts"), b"4 0\n", cfg, out)
        assert not report.completed
        assert cp.exists()
        partial = report.total_output_count
        # resume and finish
        out2 = io.StringIO()
        cfg2 = static_config(None, 4, num_workers=2, restart_path=cp)
        report2 = run(build_application("topsorts"), b"4 0\n", cfg2, out2)
        assert report2.completed
        assert partial + report2.total_output_count == 24
        combined = out.getvalue().splitlines() + out2.getvalue().splitlines()
        assert len(combined) == len(set(combined)) == 24
