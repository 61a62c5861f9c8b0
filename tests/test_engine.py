import errno
import io
import itertools
import math
import os
import queue
import signal
import sys
import threading
import time

import pytest

from btsearch import cli
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
from btsearch.transport import ForkTransport, ThreadTransport
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
        assert master.assign_next() == (0, AssignMsg(b"x", Budget(None, 10), ()))
        assert master.in_flight == {0: b"x"}
        assert list(master.idle) == [1]
        assert not master.joblist

    def test_assign_carries_only_tokens_above_high_water_mark(self):
        master = self.make_master(b"x")
        master.store.merge([b"s1", b"s2", b"s3", b"s4", b"s5"])
        # simulate a worker that has already seen the first three
        master.store._marks[0] = 3
        _worker_id, msg = master.assign_next()
        assert msg.shared == (b"s4", b"s5")
        assert master.store.delta_for(0) == ()

    def test_consecutive_assigns_carry_nothing_new(self):
        master = self.make_master(b"x", b"y", num_workers=1)
        master.store.merge([b"s1"])
        _worker_id, first = master.assign_next()
        assert first.shared == (b"s1",)
        master.collect_result(ResultMsg(0, 1, 0, (), (), False))
        _worker_id, second = master.assign_next()
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
        app = TreeApp()
        results = []
        worker_loop(0, app, lambda: app.init(b"")[0], iter(messages).__next__, results.append)
        return [ResultMsg._make(result) for result in results]

    def test_terminate_first_exits_cleanly(self):
        assert self.run_worker([None]) == []

    def test_job_within_budget_returns_no_unfinished(self):
        msg = AssignMsg(b"r", Budget(None, None), ())
        (result,) = self.run_worker([msg, None])
        assert result.unexplored == ()
        assert result.visited == 14
        # one message per job: its lines travel with its result
        lines = result.lines.splitlines()
        assert len(lines) == len(set(lines)) == result.output_count == 14

    def test_budget_five_leaves_unfinished_work(self):
        # 15-vertex subtree, node budget 5: the flagged over-budget vertex
        # plus one backtrack sibling are returned; both were counted.
        msg = AssignMsg(b"r", Budget(None, 5), ())
        results = self.run_worker([msg, None])
        assert len(results[0].unexplored) == 2
        assert results[0].visited == 6


class TestConsumerLoop:
    def drain(self, messages):
        inbox = queue.SimpleQueue()
        for m in messages:
            inbox.put(m)
        inbox.put(None)
        out = io.StringIO()
        failed = []
        consumer_loop(inbox, out, failed)
        assert failed == []
        return out.getvalue()

    def test_messages_written_verbatim_in_order(self):
        got = self.drain([OutputMsg("A\n"), OutputMsg("B\nC\n"), OutputMsg("D\n")])
        assert got == "A\nB\nC\nD\n"

    def test_no_messages_no_output(self):
        assert self.drain([]) == ""


class FailingOutput(io.StringIO):
    """An output stream whose writes fail once ``limit`` lines are written."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit
        self.failed_writes = 0

    def write(self, text):
        if self.getvalue().count("\n") >= self.limit:
            self.failed_writes += 1
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
        for transport in (ThreadTransport, ForkTransport):
            out = FailingOutput(limit)
            with pytest.raises(EngineError, match="cannot write the output .OSError: .Errno 28"):
                run(app, b"4 0\n", static_config(None, 3), out, transport=transport)
            assert out.failed_writes == 1  # nothing is written after the failure
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
    def test_unwritable_checkpoint_path_aborts_the_run(self, tmp_path):
        # the unfinished jobs would be lost, so no partial count is printed
        bad = tmp_path / "missing_dir" / "state.ckpt"
        cfg = static_config(None, 5, num_workers=2, checkpoint_path=bad, stop_after_jobs=2)
        out = io.StringIO()
        with pytest.raises(EngineError, match="cannot write the checkpoint"):
            run(build_application("topsorts", count_only=True), b"4 0\n", cfg, out)
        assert not bad.exists()
        assert out.getvalue() == ""

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


# --------------------------------------------------------------------------
# Forked worker processes
# --------------------------------------------------------------------------


@pytest.fixture
def forked_pids(monkeypatch):
    """The pid of every worker ``os.fork`` starts during the test."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # a zombie would still accept the signal


def multisets(name, data, config, transport):
    out = io.StringIO()
    report = run(build_application(name), data, config, out, transport=transport)
    return sorted(out.getvalue().splitlines()), sorted(report.frequencies)


class HaltingApp(TreeApp):
    """The root splits in two: job ``a`` sleeps, job ``b`` halts with a verdict."""

    name = "halt15"

    def search(self, global_data, payload, budget, shared):
        if payload == b"r":
            return SearchResult(unexplored=[b"a", b"b"], visited=1)
        if payload == b"a":
            time.sleep(60)
        return SearchResult(outputs=["s FOUND"], output_count=1, visited=1, halt=True)


class SleepingApp(TreeApp):
    """Writes its worker's pid to ``pid_dir / "pid"``, then sleeps in ``search``."""

    name = "sleep15"

    def __init__(self, pid_dir):
        self.pid_dir = pid_dir

    def search(self, global_data, payload, budget, shared):
        partial = self.pid_dir / f"{os.getpid()}.tmp"
        partial.write_text(str(os.getpid()))
        os.replace(partial, self.pid_dir / "pid")
        time.sleep(60)
        return super().search(global_data, payload, budget, shared)


def start_killer(pid_dir, killed):
    """A thread that SIGKILLs the worker pid ``SleepingApp`` writes; records (pid, time)."""

    def kill():
        pid_file = pid_dir / "pid"
        deadline = time.monotonic() + 30
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        pid = int(pid_file.read_text())
        os.kill(pid, signal.SIGKILL)
        killed.append((pid, time.monotonic()))

    thread = threading.Thread(target=kill, daemon=True)
    thread.start()
    return thread


class InterruptedForkTransport(ForkTransport):
    def receive(self, timeout):
        raise KeyboardInterrupt


class TestForkTransport:
    """The transport of the ``btsearch`` program; no test starts more than three workers."""

    @pytest.mark.parametrize(
        ("name", "data", "max_depth", "max_nodes"),
        [
            ("topsorts", poset_bytes(bipartite_poset(4, 4)), None, 50),  # criterion 3
            ("topsorts", poset_bytes(bipartite_poset(3, 2)), 2, 3),
            ("spantree", b"4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n", None, 3),
            ("spantree", b"4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n", 1, 5),
        ],
    )
    def test_static_budget_runs_match_the_thread_transport(
        self, name, data, max_depth, max_nodes, forked_pids
    ):
        baseline = multisets(name, data, static_config(max_depth, max_nodes, 1), ThreadTransport)
        assert baseline[0]
        for workers in (1, 3):
            config = static_config(max_depth, max_nodes, workers)
            assert multisets(name, data, config, ForkTransport) == baseline
        assert_reaped(forked_pids)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
    def test_workers_keep_to_one_cpu_each_only_with_one_worker_per_cpu(self, forked_pids):
        def report_cpus(worker_id, receive, send):
            send((worker_id, sorted(os.sched_getaffinity(0))))
            receive()  # stay alive until stopped, so no result pipe reads end of file

        cpus = sorted(os.sched_getaffinity(0))
        for num_workers in {1, 3, len(cpus) if len(cpus) <= 3 else 1}:
            transport = ForkTransport()
            try:
                transport.start(num_workers, report_cpus)
                seen = dict(transport.receive(5.0) for _ in range(num_workers))
            finally:
                transport.stop()
            if 2 <= num_workers == len(cpus):
                expected = {i: [cpu] for i, cpu in enumerate(cpus)}
            else:
                expected = dict.fromkeys(range(num_workers), cpus)
            assert seen == expected, num_workers
        assert_reaped(forked_pids)

    def test_criterion_8_checkpoint_restart_reaches_the_full_count(self, tmp_path, forked_pids):
        k44 = poset_bytes(bipartite_poset(4, 4))
        cp = tmp_path / "k44.ckpt"
        outs = [io.StringIO(), io.StringIO()]
        configs = [
            static_config(None, 40, 2, checkpoint_path=cp, stop_after_jobs=4),
            static_config(None, 40, 3, restart_path=cp),
        ]
        reports = [
            run(build_application("topsorts"), k44, config, out, transport=ForkTransport)
            for config, out in zip(configs, outs)
        ]
        assert [r.completed for r in reports] == [False, True]
        lines = outs[0].getvalue().splitlines() + outs[1].getvalue().splitlines()
        assert len(lines) == len(set(lines)) == sum(r.total_output_count for r in reports) == 576
        assert_reaped(forked_pids)

    def test_a_halting_run_writes_one_verdict(self, forked_pids):
        cnf = cnf_text(pigeonhole_cnf(3, 3)).encode()
        config = static_config(None, 1, 3, budget_kind="conflicts")
        for transport in (ThreadTransport, ForkTransport):
            out = io.StringIO()
            report = run(build_application("sat"), cnf, config, out, transport=transport)
            assert report.halted
            verdict, model = out.getvalue().splitlines()
            assert verdict == "s SATISFIABLE" and model.startswith("v ")
        assert_reaped(forked_pids)

    def test_a_halt_abandons_the_jobs_in_flight(self, forked_pids):
        out = io.StringIO()
        start = time.monotonic()
        report = run(HaltingApp(), b"", SchedulerConfig(num_workers=2), out, transport=ForkTransport)
        assert time.monotonic() - start < 5.0  # the sleeping job was not waited for
        assert report.halted and report.completed
        assert report.jobs_executed == 2  # the root and the halting job
        assert out.getvalue() == "s FOUND\n"
        assert_reaped(forked_pids)

    def test_a_search_that_raises_aborts_with_its_text(self, forked_pids):
        with pytest.raises(WorkerCrashError, match="RuntimeError: boom"):
            run(CrashingApp(), b"", SchedulerConfig(num_workers=2), transport=ForkTransport)
        assert len(forked_pids) == 2
        assert_reaped(forked_pids)

    def test_a_killed_worker_aborts_the_run_within_a_second(self, tmp_path, forked_pids):
        killed = []
        killer = start_killer(tmp_path, killed)
        with pytest.raises(WorkerCrashError, match="died without a result"):
            run(SleepingApp(tmp_path), b"", SchedulerConfig(num_workers=2), transport=ForkTransport)
        raised_at = time.monotonic()
        killer.join(timeout=5)
        ((pid, killed_at),) = killed
        assert raised_at - killed_at < 1.0
        assert pid in forked_pids
        assert_reaped(forked_pids)

    def test_a_killed_worker_exits_3_through_the_cli(
        self, tmp_path, monkeypatch, capsys, forked_pids
    ):
        monkeypatch.setattr(cli, "build_application", lambda name, **kw: SleepingApp(tmp_path))
        inp = tmp_path / "in.txt"
        inp.write_text("ignored\n")
        monkeypatch.setattr(sys, "argv", ["btsearch", "run", "topsorts", str(inp), "-np", "2"])
        killed = []
        killer = start_killer(tmp_path, killed)
        assert cli.main() == 3
        raised_at = time.monotonic()
        killer.join(timeout=5)
        ((_pid, killed_at),) = killed
        assert raised_at - killed_at < 1.0
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("btsearch: aborted: worker ")
        assert captured.out == ""
        assert_reaped(forked_pids)

    def test_a_failed_fork_exits_3_and_reaps_the_first_worker(self, tmp_path, monkeypatch, capsys):
        real_fork = os.fork
        pids = []

        def fork():
            if pids:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        inp = tmp_path / "p.txt"
        inp.write_text("4 0\n")
        monkeypatch.setattr(sys, "argv", ["btsearch", "run", "topsorts", str(inp), "-np", "2"])
        assert cli.main() == 3
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("btsearch: aborted: cannot start worker 1 (BlockingIOError")
        assert captured.out == ""
        assert_reaped(pids)

    def test_keyboard_interrupt_reaps_every_worker_at_once(self, tmp_path, forked_pids):
        # the interrupt arrives while a worker sleeps in its job
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run(SleepingApp(tmp_path), b"", SchedulerConfig(num_workers=3),
                transport=InterruptedForkTransport)
        assert time.monotonic() - start < 5.0
        assert len(forked_pids) == 3
        assert_reaped(forked_pids)
