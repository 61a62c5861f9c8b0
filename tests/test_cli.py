import base64
import subprocess
import sys

import pytest

from btsearch import cli
from btsearch.apps.sat.app import SatApplication
from btsearch.apps.topsorts import TopsortsApplication
from btsearch.cli import main, parse_cli, _CliError

from oracles import cnf_text, pigeonhole_cnf


class TestParseCli:
    def test_defaults_applied(self):
        opts = parse_cli(["run", "topsorts", "input.txt"])
        config = opts.config
        assert config.num_workers == 4
        assert config.base_max_depth == 2
        assert config.base_max_nodes == 5000
        assert config.scale == 40
        assert (config.lmin, config.lmax) == (1.0, 3.0)
        assert opts.prune == "off"
        assert TopsortsApplication.resolve_budget_kind(config.budget_kind) == "nodes"
        assert not opts.count_only

    def test_explicit_budget_flags(self):
        opts = parse_cli(["run", "topsorts", "in.txt", "-scale", "200", "-maxnodes", "10000"])
        assert opts.config.scale == 200
        assert opts.config.base_max_nodes == 10000

    def test_unbounded_depth_spelling(self):
        opts = parse_cli(["run", "spantree", "in.txt", "-maxd", "inf"])
        assert opts.config.base_max_depth is None

    def test_lmin_above_lmax_is_usage_error(self):
        with pytest.raises(_CliError) as err:
            parse_cli(["run", "topsorts", "in.txt", "-lmin", "3", "-lmax", "1"])
        assert err.value.code == 1

    def test_unknown_flag_rejected(self):
        with pytest.raises(_CliError):
            parse_cli(["run", "topsorts", "in.txt", "-frobnicate"])

    def test_unknown_app_rejected(self):
        with pytest.raises(_CliError):
            parse_cli(["run", "mystery", "in.txt"])

    def test_sat_defaults_to_decision_budgeting(self):
        opts = parse_cli(["run", "sat", "f.cnf"])
        kind = SatApplication.resolve_budget_kind(opts.config.budget_kind)
        assert kind == "decisions"

    def test_sat_rejects_node_budgeting_and_countonly(self, tmp_path, capsys):
        inp = tmp_path / "php.cnf"
        inp.write_text(cnf_text(pigeonhole_cnf(3, 2)))
        assert main(["run", "sat", str(inp), "-budgetkind", "nodes"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sat accepts budget kinds decisions, conflicts" in captured.err
        with pytest.raises(_CliError) as err:
            parse_cli(["run", "sat", "f.cnf", "-countonly"])
        assert err.value.code == 1

    def test_enumeration_rejects_conflict_budgeting(self, tmp_path, capsys):
        inp = tmp_path / "poset.txt"
        inp.write_text("3 0\n")
        assert main(["run", "topsorts", str(inp), "-budgetkind", "conflicts"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "topsorts accepts budget kinds nodes" in captured.err


class TestMain:
    def test_run_topsorts_countonly(self, tmp_path, capsys):
        inp = tmp_path / "poset.txt"
        inp.write_text("3 0\n")
        code = main(["run", "topsorts", str(inp), "-countonly", "-np", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_countonly_stopafter_prints_the_master_total(self, tmp_path, capsys, monkeypatch):
        inp = tmp_path / "poset.txt"
        inp.write_text("4 0\n")
        reports = []
        real_run = cli.run

        def recording_run(*args, **kwargs):
            reports.append(real_run(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "run", recording_run)
        code = main(
            [
                "run", "topsorts", str(inp), "-countonly", "-np", "2", "-maxd", "inf",
                "-maxnodes", "3", "-scale", "1", "-stopafter", "4",
                "-checkpoint", str(tmp_path / "state.ckpt"),
            ]
        )
        assert code == 0
        (report,) = reports
        assert not report.completed
        assert capsys.readouterr().out.splitlines() == [str(report.total_output_count)]

    def test_countonly_worker_crash_exits_3_without_a_count(self, tmp_path, capsys, monkeypatch):
        class CrashingTopsorts(TopsortsApplication):
            def search(self, global_data, payload, budget, shared):
                raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_application", lambda name, **kw: CrashingTopsorts(**kw))
        inp = tmp_path / "poset.txt"
        inp.write_text("4 0\n")
        code = main(["run", "topsorts", str(inp), "-countonly", "-np", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "boom" in captured.err

    def test_restart_with_an_undecodable_job_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "poset.txt"
        inp.write_text("3 0\n")
        bad = tmp_path / "bad.ckpt"
        bad.write_text("mts-checkpoint 1 topsorts\nN " + base64.b64encode(b"garbage").decode() + "\n")
        code = main(["run", "topsorts", str(inp), "-restart", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert str(bad) in line and "job 1" in line

    def test_restart_with_an_undecodable_shared_token_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "php.cnf"
        inp.write_text(cnf_text(pigeonhole_cnf(3, 2)))
        bad = tmp_path / "bad.ckpt"
        bad.write_text(
            "mts-checkpoint 1 sat\n"
            f"S {base64.b64encode(b'-1').decode()}\n"
            f"S {base64.b64encode(b'garbage').decode()}\n"
            f"N {base64.b64encode(b'1').decode()}\n"
        )
        code = main(["run", "sat", str(inp), "-restart", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert str(bad) in line and "shared token 2" in line

    def test_restart_from_a_non_ascii_checkpoint_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "poset.txt"
        inp.write_text("3 0\n")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"mts-checkpoint 1 topsorts\nN \xff\n")
        code = main(["run", "topsorts", str(inp), "-restart", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert str(bad) in line

    def test_run_writes_frequency_and_histogram_files(self, tmp_path, capsys):
        inp = tmp_path / "poset.txt"
        inp.write_text("4 0\n")
        freq = tmp_path / "freq.txt"
        hist = tmp_path / "hist.csv"
        code = main(
            ["run", "topsorts", str(inp), "-countonly", "-freq", str(freq), "-hist", str(hist)]
        )
        assert code == 0
        freq_lines = freq.read_text().splitlines()
        assert all(int(v) >= 0 for v in freq_lines)
        assert hist.read_text().startswith("elapsed_seconds,busy_workers,joblist_len")

    def test_unwritable_freq_and_hist_paths_print_one_line_each(self, tmp_path, capsys):
        inp = tmp_path / "poset.txt"
        inp.write_text("4 0\n")
        freq = tmp_path / "missing" / "freq.txt"
        hist = tmp_path / "missing" / "hist.csv"
        code = main(
            ["run", "topsorts", str(inp), "-countonly", "-freq", str(freq), "-hist", str(hist)]
        )
        captured = capsys.readouterr()
        assert code == 0  # the run's own result stands
        assert captured.out == "24\n"
        assert captured.err.splitlines()[:2] == [
            f"btsearch: cannot write frequency file {freq}",
            f"btsearch: cannot write histogram file {hist}",
        ]

    def test_unwritable_checkpoint_exits_3_without_a_count(self, tmp_path, capsys):
        inp = tmp_path / "p.txt"
        inp.write_text("4 0\n")
        ckpt = tmp_path / "nonexistent" / "dir" / "c.ckpt"
        code = main(
            [
                "run", "topsorts", str(inp), "-np", "1", "-maxnodes", "2", "-maxd", "inf",
                "-scale", "1", "-countonly", "-stopafter", "1", "-checkpoint", str(ckpt),
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("btsearch: aborted: cannot write the checkpoint")

    def test_gwtree_bad_size_window_is_input_error(self, tmp_path, capsys):
        inp = tmp_path / "g.txt"
        inp.write_text("catalan 40 20 7\n")
        code = main(["run", "gwtree", str(inp), "-np", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "size_lo <= size_hi" in line

    def test_run_sat_unsat(self, tmp_path, capsys):
        inp = tmp_path / "php.cnf"
        inp.write_text(cnf_text(pigeonhole_cnf(3, 2)))
        code = main(["run", "sat", str(inp), "-np", "2"])
        assert code == 0
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_missing_input_is_input_error(self, tmp_path):
        code = main(["run", "topsorts", str(tmp_path / "absent.txt")])
        assert code == 2

    def test_unparsable_input_is_input_error(self, tmp_path):
        inp = tmp_path / "bad.txt"
        inp.write_text("3 3\n1 2\n2 3\n3 1\n")  # cyclic
        code = main(["run", "topsorts", str(inp)])
        assert code == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["run", "topsorts", "x", "-lmin", "9", "-lmax", "1"]) == 1

    def test_gwtree_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        code = main(
            [
                "gwtree", "-law", "fullbinary", "-size", "200", "-budget", "50",
                "-trials", "2", "-seed", "1", "-out", str(out_csv),
            ]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "trial,size,b,jobs,ratio,predicted"
        assert len(lines) == 3

    def test_gwtree_rejects_bad_law(self):
        assert main(["gwtree", "-law", "cauchy"]) == 2

    def test_efficiency_output(self, capsys):
        assert main(["efficiency", "12723", "192", "125"]) == 0
        assert capsys.readouterr().out.startswith("efficiency 0.530")

    def test_efficiency_rejects_nonpositive(self):
        assert main(["efficiency", "0", "4", "5"]) == 1


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        inp = tmp_path / "p.txt"
        inp.write_text("3 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "btsearch.cli", "run", "topsorts", str(inp), "-countonly"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "6"

    @pytest.mark.parametrize(
        "flags",
        [
            ["-stopafter", "0"],
            ["-scale", "0"],
            ["-lmin", "0"],
            ["-lmin", "nan"],
            ["-lmax", "0"],
            ["-np", "0"],
            ["-budgetkind", "hours"],
            ["-stopafter", "3"],  # without -checkpoint
        ],
    )
    def test_out_of_range_settings_exit_1_without_traceback(self, tmp_path, flags):
        inp = tmp_path / "p.txt"
        inp.write_text("3 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "btsearch.cli", "run", "topsorts", str(inp), *flags],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("flags", [["-np", "1"], ["-np", "2"], ["-countonly"]])
    def test_closed_stdout_exits_3_with_one_line(self, tmp_path, flags):
        inp = tmp_path / "g.txt"
        inp.write_text("catalan 20 40 7\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "btsearch.cli", "run", "gwtree", str(inp), *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()  # as `| head -1` does once it has its line
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert "Traceback" not in stderr
        (line,) = stderr.splitlines()
        assert line.startswith("btsearch: aborted: cannot write the output (BrokenPipeError")

    def test_gwtree_to_a_closed_stdout_exits_3_with_one_line(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "btsearch.cli", "gwtree", "-size", "200", "-budget", "10",
             "-trials", "3", "-seed", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert "Traceback" not in stderr
        (line,) = stderr.splitlines()
        assert line.startswith("btsearch: aborted: cannot write the output (BrokenPipeError")

    def test_importing_the_cli_does_not_load_numpy(self):
        # Every run pays for what these imports load on top of a bare
        # interpreter: only the gwtree subcommand needs numpy, and
        # dataclasses (with the inspect it loads) and logging alone cost
        # about 30 ms of start-up.  The forked workers use raw pipes:
        # multiprocessing.connection alone added about 21 ms (90.5 to
        # 111.6 ms, medians of 25 runs of `import btsearch.cli`).
        script = (
            "import sys; bare = set(sys.modules)\n"
            "import btsearch.cli, btsearch.apps.spantree, btsearch.apps.topsorts\n"
            "import btsearch.apps.sat.app\n"
            "print(' '.join(sorted(set(sys.modules) - bare)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert "btsearch.apps.sat.app" in added
        assert added.isdisjoint(
            {"numpy", "dataclasses", "inspect", "logging", "multiprocessing", "subprocess",
             "concurrent"}
        )
