import io
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from btsearch import SchedulerConfig, run
from btsearch import checkpoint as checkpoint_module
from btsearch.apps import build_application
from btsearch.checkpoint import checkpoint_read, checkpoint_write
from btsearch.cli import main
from btsearch.errors import CheckpointError

from oracles import cnf_text, pigeonhole_cnf

# Written by the release that still wrapped payloads in job-node objects,
# with static budgets and one worker.  Topsorts of the 4-antichain (24
# extensions), node budget 4, stopped after 3 jobs that had counted 14.
OLDER_RELEASE_CHECKPOINT = "mts-checkpoint 1 topsorts\nN MSAzIDQgMg==\nN MSA0IDIgMw==\n"
# sat on pigeonhole(4 into 3), conflict budget 3, stopped after 2 jobs: the
# shared unit "-1" and the pending assumption "-2".
OLDER_RELEASE_SAT_CHECKPOINT = "mts-checkpoint 1 sat\nS LTE=\nN LTI=\n"


class TestRoundTrip:
    def test_empty_state_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        checkpoint_write(path, "topsorts", [], [])
        assert path.read_text() == "mts-checkpoint 1 topsorts\n"
        jobs, tokens = checkpoint_read(path)
        assert jobs == [] and tokens == []

    def test_payload_multiset_survives(self, tmp_path):
        rng = random.Random(5)
        payloads = [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40))) for _ in range(25)]
        tokens = [b"tok-1", b"\x00\xff binary", b""]
        path = tmp_path / "state.ckpt"
        checkpoint_write(path, "sat", payloads, tokens)
        jobs, read_tokens = checkpoint_read(path, expected_app="sat")
        assert sorted(jobs) == sorted(payloads)
        assert read_tokens == tokens

    def test_three_node_lines_give_three_jobs(self, tmp_path):
        path = tmp_path / "state.ckpt"
        checkpoint_write(path, "spantree", [b"a", b"b", b"c"], [])
        jobs, _ = checkpoint_read(path)
        assert jobs == [b"a", b"b", b"c"]

    def test_older_release_checkpoint_resumes_to_the_same_total(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text(OLDER_RELEASE_CHECKPOINT)
        cfg = SchedulerConfig(
            num_workers=2, base_max_depth=None, base_max_nodes=4, scale=1,
            lmin=math.inf, lmax=math.inf, restart_path=path,
        )
        out = io.StringIO()
        report = run(build_application("topsorts", count_only=True), b"4 0\n", cfg, out)
        assert report.completed
        assert 14 + report.total_output_count == 24
        assert out.getvalue() == "10\n"
        # rewriting what was read gives the same bytes
        jobs, tokens = checkpoint_read(path, expected_app="topsorts")
        checkpoint_write(tmp_path / "again.ckpt", "topsorts", jobs, tokens)
        assert (tmp_path / "again.ckpt").read_text() == OLDER_RELEASE_CHECKPOINT

    def test_older_release_sat_checkpoint_resumes_to_the_verdict(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text(OLDER_RELEASE_SAT_CHECKPOINT)
        jobs, tokens = checkpoint_read(path, expected_app="sat")
        assert (jobs, tokens) == ([b"-2"], [b"-1"])
        checkpoint_write(tmp_path / "again.ckpt", "sat", jobs, tokens)
        assert (tmp_path / "again.ckpt").read_text() == OLDER_RELEASE_SAT_CHECKPOINT
        cfg = SchedulerConfig(
            num_workers=2, base_max_depth=None, base_max_nodes=3, scale=1, lmin=math.inf,
            lmax=math.inf, restart_path=path,
        )
        out = io.StringIO()
        report = run(build_application("sat", budget_kind="conflicts"), cnf_text(pigeonhole_cnf(4, 3)).encode(), cfg, out)
        assert report.completed
        assert out.getvalue() == "s UNSATISFIABLE\n"


class TestSatClauseTokens:
    """Shared sat tokens are clauses; a unit token is a one-literal clause."""

    @pytest.mark.parametrize(
        "token",
        [b"", b"2 0", b"7", b"3 3", b"-2 2", b"1 2 3 4 5 6 -1 -2 -3"],
        ids=["empty", "zero", "out-of-range", "repeated", "complementary", "nine-literals"],
    )
    def test_a_bad_clause_token_exits_2_naming_its_number(self, tmp_path, capsys, token):
        inp = tmp_path / "php.cnf"
        inp.write_text(cnf_text(pigeonhole_cnf(3, 2)))
        bad = tmp_path / "bad.ckpt"
        checkpoint_write(bad, "sat", [b"1"], [b"-1", b"-3 2", token])
        code = main(["run", "sat", str(inp), "-restart", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert str(bad) in line and "shared token 3" in line

    def test_older_release_unit_tokens_restore_through_the_cli(self, tmp_path, capsys):
        inp = tmp_path / "php.cnf"
        inp.write_text(cnf_text(pigeonhole_cnf(4, 3)))
        old = tmp_path / "old.ckpt"
        old.write_text(OLDER_RELEASE_SAT_CHECKPOINT)
        code = main([
            "run", "sat", str(inp), "-restart", str(old), "-np", "2",
            "-budgetkind", "conflicts", "-maxnodes", "3",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "s UNSATISFIABLE\n"


class TestAtomicWrite:
    def test_failed_replace_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "state.ckpt"
        checkpoint_write(path, "topsorts", [b"1 2 3"], [b"tok"])
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint_module.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            checkpoint_write(path, "topsorts", [b"2 1 3", b"3 2 1"], [])
        assert path.read_bytes() == before
        assert not (tmp_path / "state.ckpt.tmp").exists()


class TestDiagnostics:
    def test_tampered_payload_names_the_line(self, tmp_path):
        path = tmp_path / "state.ckpt"
        checkpoint_write(path, "topsorts", [b"1 2 3", b"2 1 3"], [])
        lines = path.read_text().splitlines()
        lines[2] = "N @@@not-base64@@@"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="line 3"):
            checkpoint_read(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        path.write_text("mts-checkpoint 2 topsorts\n")
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_read(path)

    def test_wrong_application_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        checkpoint_write(path, "topsorts", [], [])
        with pytest.raises(CheckpointError, match="topsorts"):
            checkpoint_read(path, expected_app="spantree")

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        path.write_text("hello world\n")
        with pytest.raises(CheckpointError, match="line 1"):
            checkpoint_read(path)

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        path.write_text("mts-checkpoint 1 sat\nX abcd\n")
        with pytest.raises(CheckpointError, match="line 2"):
            checkpoint_read(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            checkpoint_read(tmp_path / "absent.ckpt")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.binary(max_size=64)
    | st.binary(max_size=64).map(lambda body: b"mts-checkpoint 1 topsorts\n" + body)
)
@example(b"mts-checkpoint 1 topsorts\nN \xff\n")
def test_any_bytes_read_back_or_raise_checkpoint_error(tmp_path, data):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(data)
    try:
        jobs, tokens = checkpoint_read(path)
    except CheckpointError:
        return
    assert all(isinstance(item, bytes) for item in jobs + tokens)
