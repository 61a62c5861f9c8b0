import errno
import io
import itertools
import math
import os
import signal
import sys
import threading
import time

import pytest

from btsearch import cli, engine
from btsearch.budget import SchedulerConfig
from btsearch.checkpoint import checkpoint_read
from btsearch.engine import Master, SharedStore, run, worker_loop
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
        return oracle, "r"

    def search(self, global_data, start, budget, shared):
        from btsearch.reverse_search import budgeted_search

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
            unexplored=result.unexplored,
            visited=result.count,
        )

    def encode_node(self, vertex):
        return vertex.encode()

    def decode_node(self, payload, global_data):
        return payload.decode()


class CrashingApp(TreeApp):
    name = "crash15"

    def search(self, global_data, vertex, budget, shared):
        if vertex == "r":
            raise RuntimeError("boom")
        return super().search(global_data, vertex, budget, shared)


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
        store.merge([b"a", b"b", b"a"])
        assert store.tokens == (b"a", b"b")
        store.merge([b"b", b"c"])
        assert store.tokens == (b"a", b"b", b"c")

    def test_delivery_at_most_once_per_worker(self):
        store = SharedStore(2)
        store.merge([b"t1", b"t2"])
        assert store.delta_for(0) == (b"t1", b"t2")
        assert store.delta_for(0) == ()
        store.merge([b"t3"])
        assert store.delta_for(0) == (b"t3",)
        assert store.delta_for(1) == (b"t1", b"t2", b"t3")


def result(worker_id, visited, output_count, unexplored=(), shared_delta=(), halt=False):
    """A worker's result tuple for a job that wrote no lines."""
    return (worker_id, visited, output_count, unexplored, shared_delta, halt, "")


class TestMasterOperations:
    def make_master(self, *jobs, num_workers=2):
        master = Master(static_config(None, 10, num_workers=num_workers))
        master.joblist.extend(jobs)
        return master

    def test_assign_with_empty_store_carries_nothing(self):
        master = self.make_master(b"x")
        assert master.assign_next() == (0, (b"x", None, 10, ()))
        assert master.in_flight == {0: b"x"}
        assert list(master.idle) == [1]
        assert not master.joblist

    def test_assign_carries_only_tokens_above_high_water_mark(self):
        master = self.make_master(b"x")
        master.store.merge([b"s1", b"s2", b"s3", b"s4", b"s5"])
        # simulate a worker that has already seen the first three
        master.store._marks[0] = 3
        _worker_id, (_job, _max_depth, _max_nodes, tokens) = master.assign_next()
        assert tokens == (b"s4", b"s5")
        assert master.store.delta_for(0) == ()

    def test_consecutive_assigns_carry_nothing_new(self):
        master = self.make_master(b"x", b"y", num_workers=1)
        master.store.merge([b"s1"])
        _worker_id, first = master.assign_next()
        assert first[3] == (b"s1",)
        master.collect_result(result(0, 1, 0))
        _worker_id, second = master.assign_next()
        assert second[3] == ()

    def test_collect_with_no_unfinished_leaves_joblist_alone(self):
        master = self.make_master(b"x")
        master.assign_next()
        master.collect_result(result(0, 3, 2))
        assert len(master.joblist) == 0
        assert not master.in_flight
        assert list(master.idle) == [1, 0]
        assert master.report.frequencies == [3]

    def test_collect_appends_each_unfinished_node(self):
        master = self.make_master(b"x")
        master.assign_next()
        unfinished = (b"u1", b"u2", b"u3")
        master.collect_result(result(0, 5, 0, unfinished))
        assert list(master.joblist) == [b"u1", b"u2", b"u3"]

    def test_collect_merges_tokens_without_redelivery(self):
        master = self.make_master(b"x", b"y", num_workers=1)
        master.assign_next()
        master.collect_result(result(0, 1, 0, shared_delta=(b"tok",)))
        assert len(master.store.tokens) == 1
        master.assign_next()
        master.collect_result(result(0, 1, 0, shared_delta=(b"tok",)))
        assert len(master.store.tokens) == 1  # duplicate token, stored once

    def test_result_from_a_worker_with_no_job_is_rejected(self):
        master = self.make_master(b"x")
        master.assign_next()
        with pytest.raises(EngineError, match="result from idle worker 1"):
            master.collect_result(result(1, 1, 0))
        master.collect_result(result(0, 1, 0))
        with pytest.raises(EngineError, match="result from idle worker 0"):
            master.collect_result(result(0, 1, 0))
        assert master.report.jobs_executed == 1

    def test_pending_jobs_cover_in_flight_and_queued(self):
        master = self.make_master(b"flying", b"queued", num_workers=1)
        master.assign_next()
        assert master.pending_jobs() == [b"flying", b"queued"]
        master.collect_result(result(0, 1, 0))
        assert master.pending_jobs() == [b"queued"]


class TestWorkerLoop:
    def run_worker(self, messages):
        app = TreeApp()
        results = []
        worker_loop(0, app, lambda: app.init(b"")[0], iter(messages).__next__, results.append)
        return results

    def test_terminate_first_exits_cleanly(self):
        assert self.run_worker([None]) == []

    def test_job_within_budget_returns_no_unfinished(self):
        (sent,) = self.run_worker([("r", None, None, ()), None])
        worker_id, visited, output_count, unexplored, _shared_delta, _halt, lines = sent
        assert worker_id == 0
        assert list(unexplored) == []
        assert visited == 14
        # one message per job: its lines travel with its result
        lines = lines.splitlines()
        assert len(lines) == len(set(lines)) == output_count == 14

    def test_budget_five_leaves_unfinished_work(self):
        # 15-vertex subtree, node budget 5: the flagged over-budget vertex
        # plus one backtrack sibling are returned; both were counted.
        (sent,) = self.run_worker([("r", None, 5, ()), None])
        _worker_id, visited, _output_count, unexplored, *_rest = sent
        assert len(unexplored) == 2
        assert visited == 6


class FailingOutput(io.StringIO):
    """An output stream whose writes fail once ``limit`` lines are written.

    With ``limit=None`` every write succeeds and ``flush`` fails instead.
    ``failed_writes`` counts the failed calls; once one has failed, every
    later write or flush fails too.
    """

    def __init__(self, limit):
        super().__init__()
        self.limit = limit
        self.failed_writes = 0

    def fail(self):
        self.failed_writes += 1
        raise OSError(28, "No space left on device")

    def write(self, text):
        if self.failed_writes or (
            self.limit is not None and self.getvalue().count("\n") >= self.limit
        ):
            self.fail()
        return super().write(text)

    def flush(self):
        if self.failed_writes or self.limit is None:
            self.fail()


class ThreadRecordingOutput(io.StringIO):
    """An output stream that records, for each write and flush, the calling
    thread's id and the number of threads alive."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append((threading.get_ident(), threading.active_count()))
        return super().write(text)

    def flush(self):
        self.calls.append((threading.get_ident(), threading.active_count()))


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
        # the total is written after the loop; None: the final flush fails
        [(False, 0), (False, 5), (True, 0), (False, None), (True, None)],
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

    @pytest.mark.parametrize("transport", [ThreadTransport, ForkTransport], ids=["thread", "fork"])
    @pytest.mark.parametrize(
        ("name", "options", "data"),
        [
            ("topsorts", {}, b"4 0\n"),
            ("topsorts", {"count_only": True}, b"4 0\n"),
            ("sat", {}, b"p cnf 2 1\n1 2 0\n"),  # a halting result
        ],
        ids=["lines", "count-only", "halting"],
    )
    def test_only_the_calling_thread_writes_the_output(self, transport, name, options, data):
        # A writer thread of its own would outlive a run whose reader is
        # slow, and what it had not written would be lost at exit.
        out = ThreadRecordingOutput()
        report = run(build_application(name, **options), data, static_config(None, 3), out,
                     transport=transport)
        assert report.completed and out.getvalue()
        threads = {ident for ident, _alive in out.calls}
        assert threads == {threading.get_ident()}
        if transport is ForkTransport:
            assert {alive for _ident, alive in out.calls} == {1}

    @pytest.mark.parametrize(
        ("name", "kind", "data"),
        [("topsorts", "conflicts", b"4 0\n"), ("sat", "nodes", b"p cnf 1 1\n1 0\n")],
    )
    def test_rejects_a_budget_kind_the_app_does_not_accept(
        self, tmp_path, capsys, monkeypatch, name, kind, data
    ):
        # The kind is checked where it is given (the CLI for the enumeration
        # apps, the sat app's constructor), so no run starts: the input is
        # not parsed and no engine thread is left behind.
        inits, runs = [], []

        def recording_build(app_name, **options):
            app = build_application(app_name, **options)
            app.init = lambda input_bytes: inits.append(input_bytes)
            return app

        monkeypatch.setattr(cli, "build_application", recording_build)
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
        inp = tmp_path / "input"
        inp.write_bytes(data)
        assert cli.main(["run", name, str(inp), "-budgetkind", kind]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"btsearch: {name} accepts budget kinds ")
        assert captured.err.endswith(f", not {kind!r}\n")
        assert inits == [] and runs == []
        leaked = [t.name for t in threading.enumerate() if t.name.startswith("btsearch-")]
        assert leaked == []

    def test_report_invariants(self, monkeypatch, forked_pids):
        # a -hist row for every wait: each shows the state a wait starts
        # from, when no worker is idle while a job is queued
        monkeypatch.setattr(engine, "_SAMPLE_INTERVAL_S", 0.0)
        for transport in (ThreadTransport, ForkTransport):
            report = run(
                build_application("topsorts"), b"4 0\n", static_config(None, 7, num_workers=3),
                transport=transport,
            )
            assert report.jobs_executed == len(report.frequencies)
            assert report.completed and not report.halted
            assert report.wall_time >= 0
            for elapsed, busy, joblist_len in report.samples:
                assert busy == 3 or joblist_len == 0, (transport, elapsed, busy, joblist_len)
                assert 1 <= busy <= 3
            assert [s[0] for s in report.samples] == sorted(s[0] for s in report.samples)
            assert len(report.samples) == report.jobs_executed
        assert_reaped(forked_pids)

    def test_count_only_emits_single_aggregate_line(self, tmp_path):
        # many jobs, stopped part-way: still one line, the master's total
        out = io.StringIO()
        app = build_application("topsorts", count_only=True)
        cfg = static_config(
            None, 3, num_workers=2, checkpoint_path=tmp_path / "c.ckpt", stop_after_jobs=4
        )
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


class FlushRecordingOutput(io.StringIO):
    """Keeps what has been flushed: what a killed master would have left."""

    flushed = ""

    def flush(self):
        super().flush()
        self.flushed = self.getvalue()


class TestStopAndResume:
    @pytest.mark.parametrize("transport", [ThreadTransport, ForkTransport])
    def test_every_periodic_checkpoint_loses_no_output(
        self, transport, tmp_path, monkeypatch, forked_pids
    ):
        # Kill the master right after any one checkpoint: the lines it has
        # flushed plus a restart from that checkpoint hold every extension.
        k44 = poset_bytes(bipartite_poset(4, 4))
        every_line = io.StringIO()
        run(build_application("topsorts"), k44, static_config(None, None, 1), every_line)
        expected = set(every_line.getvalue().splitlines())
        assert len(expected) == 576

        out = FlushRecordingOutput()
        snapshots = []
        real_write = engine.checkpoint_write

        def recording_write(path, *args):
            real_write(path, *args)
            snapshots.append((path.read_bytes(), out.flushed))

        monkeypatch.setattr(engine, "_CHECKPOINT_INTERVAL_S", 0.0)
        monkeypatch.setattr(engine, "checkpoint_write", recording_write)
        cp = tmp_path / "periodic.ckpt"
        config = static_config(None, 40, 2, checkpoint_path=cp)
        report = run(build_application("topsorts"), k44, config, out, transport=transport)
        assert report.completed
        assert len(snapshots) > 1

        restart = tmp_path / "restart.ckpt"
        resume = static_config(None, 40, 1, restart_path=restart)
        for number, (snapshot, flushed) in enumerate(snapshots):
            restart.write_bytes(snapshot)
            rest = io.StringIO()
            run(build_application("topsorts"), k44, resume, rest)
            lines = flushed.splitlines() + rest.getvalue().splitlines()
            assert set(lines) == expected, number
        assert len(snapshots) == report.jobs_executed  # one at every wait
        if transport is ForkTransport:
            assert_reaped(forked_pids)

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
            cfg = static_config(None, 3, num_workers=1, checkpoint_path=cp, stop_after_jobs=stop)
            report = run(build_application("sat", budget_kind="conflicts"), cnf, cfg, out)
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


CODEC = ("encode_node", "decode_node", "encode_token", "decode_token")
CODEC_CASES = [  # (app, options, input, static node budget): runs of many jobs
    ("topsorts", {}, b"4 0\n", 3),
    ("sat", {"budget_kind": "conflicts"}, cnf_text(pigeonhole_cnf(5, 4)).encode(), 5),
]


class TestCodecOnlyAtTheCheckpoint:
    """Jobs and tokens cross as the app's values; only a checkpoint holds bytes."""

    @pytest.mark.parametrize("transport", [ThreadTransport, ForkTransport], ids=["thread", "fork"])
    @pytest.mark.parametrize(("name", "options", "data", "max_nodes"), CODEC_CASES,
                             ids=["topsorts", "sat"])
    def test_a_run_without_a_checkpoint_calls_no_codec(
        self, transport, name, options, data, max_nodes
    ):
        app = build_application(name, **options)

        def refuse(*args):
            raise AssertionError("a codec call outside a checkpoint")

        for method in CODEC:  # a call in a forked worker crashes the run too
            setattr(app, method, refuse)
        out = io.StringIO()
        report = run(app, data, static_config(None, max_nodes, 2), out, transport=transport)
        assert report.completed and report.jobs_executed > 1
        if name == "sat":
            assert report.shared_tokens
            assert out.getvalue() == "s UNSATISFIABLE\n"
        else:
            assert len(set(out.getvalue().splitlines())) == 24

    @pytest.mark.parametrize("transport", [ThreadTransport, ForkTransport], ids=["thread", "fork"])
    @pytest.mark.parametrize(("name", "options", "data", "max_nodes"), CODEC_CASES,
                             ids=["topsorts", "sat"])
    def test_each_item_is_encoded_once_per_write_and_decoded_once_per_restore(
        self, tmp_path, transport, name, options, data, max_nodes
    ):
        calls = dict.fromkeys(CODEC, 0)

        def counted(app):
            for method in CODEC:
                def call(*args, method=method, real=getattr(app, method)):
                    calls[method] += 1
                    return real(*args)

                setattr(app, method, call)
            return app

        cp = tmp_path / "c.ckpt"
        stop = static_config(None, max_nodes, 2, checkpoint_path=cp, stop_after_jobs=3)
        first = run(counted(build_application(name, **options)), data, stop, transport=transport)
        assert not first.completed
        jobs, tokens = checkpoint_read(cp)
        assert jobs and (tokens or name != "sat")
        assert calls == {"encode_node": len(jobs), "decode_node": 0,
                         "encode_token": len(tokens), "decode_token": 0}

        calls.update(dict.fromkeys(CODEC, 0))
        resume = static_config(None, max_nodes, 2, restart_path=cp)
        second = run(counted(build_application(name, **options)), data, resume, transport=transport)
        assert second.completed
        assert calls == {"encode_node": 0, "decode_node": len(jobs),
                         "encode_token": 0, "decode_token": len(tokens)}


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

    def search(self, global_data, vertex, budget, shared):
        if vertex == "r":
            return SearchResult(unexplored=["a", "b"], visited=1)
        if vertex == "a":
            time.sleep(60)
        return SearchResult(outputs=["s FOUND"], output_count=1, visited=1, halt=True)


class SleepingApp(TreeApp):
    """Writes its worker's pid to ``pid_dir / "pid"``, then sleeps in ``search``."""

    name = "sleep15"

    def __init__(self, pid_dir):
        self.pid_dir = pid_dir

    def search(self, global_data, vertex, budget, shared):
        partial = self.pid_dir / f"{os.getpid()}.tmp"
        partial.write_text(str(os.getpid()))
        os.replace(partial, self.pid_dir / "pid")
        time.sleep(60)
        return super().search(global_data, vertex, budget, shared)


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
    def receive(self):
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
            # tuple jobs and clause tokens cross marshal
            ("sat", cnf_text(pigeonhole_cnf(5, 4)).encode(), None, 5),
        ],
    )
    def test_static_budget_runs_match_the_thread_transport(
        self, name, data, max_depth, max_nodes, forked_pids
    ):
        baseline = multisets(name, data, static_config(max_depth, max_nodes, 1), ThreadTransport)
        assert baseline[0]
        for workers in (1, 3):
            config = static_config(max_depth, max_nodes, workers)
            lines, frequencies = multisets(name, data, config, ForkTransport)
            assert lines == baseline[0]
            # a sat job's size depends on the clauses relayed to it so far,
            # which only a single worker fixes
            if workers == 1 or name != "sat":
                assert frequencies == baseline[1]
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
                seen = {}
                # receive() has no timeout: the test bounds its wait
                reader = threading.Thread(
                    target=lambda: seen.update(transport.receive() for _ in range(num_workers)),
                    daemon=True,
                )
                reader.start()
                reader.join(timeout=5.0)
                assert not reader.is_alive(), num_workers
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
        config = static_config(None, 1, 3)
        for transport in (ThreadTransport, ForkTransport):
            out = io.StringIO()
            report = run(
                build_application("sat", budget_kind="conflicts"), cnf, config, out,
                transport=transport,
            )
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

    def test_a_crash_reads_the_same_under_both_transports(self, forked_pids):
        crashes = []
        for transport in (ThreadTransport, ForkTransport):
            with pytest.raises(WorkerCrashError) as info:
                run(CrashingApp(), b"", SchedulerConfig(num_workers=1), transport=transport)
            crashes.append(info.value)
        thread, fork = crashes
        assert str(fork) == str(thread)
        assert isinstance(thread.__cause__, RuntimeError)  # a thread keeps the traceback
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
