import base64
import subprocess
import sys

import pytest

from btsearch import cli
from btsearch.apps import APPLICATION_NAMES
from btsearch.apps.gwtree import make_law, sample_offspring_sequence
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
        assert opts.app_options["prune"] == "off"
        assert opts.app_options.get("budget_kind") is None  # topsorts budgets count nodes
        assert not opts.app_options["count_only"]

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "topsorts", "p.txt", "-restar", "c.ckpt"],
            ["run", "topsorts", "p.txt", "-stop", "3", "-check", "c"],
            ["run", "topsorts", "p.txt", "-count"],
            ["run", "topsorts", "p.txt", "--hel"],
            ["gwtree", "-la", "zipf"],
            ["gwtree", "-law", "zipf", "-k7"],
            ["efficiency", "--hel"],
        ],
    )
    def test_a_flag_is_taken_only_by_its_full_name(self, capsys, argv):
        # argparse took a unique prefix of a one-dash flag as that flag, so
        # deleting a flag changed what its prefixes meant
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("btsearch")

    def test_every_run_flag_is_taken_by_its_full_name(self):
        opts = parse_cli(
            ["run", "topsorts", "in.txt", "-np", "2", "-maxd", "3", "-maxnodes", "7",
             "-scale", "5", "-lmin", "0.5", "-lmax", "2", "-prune", "1", "-countonly",
             "-hist", "h.csv", "-freq", "f.txt", "-checkpoint", "c.ckpt", "-restart", "r.ckpt",
             "-budgetkind", "nodes", "-stopafter", "4"]
        )
        config = opts.config
        assert (config.num_workers, config.base_max_depth, config.base_max_nodes) == (2, 3, 7)
        assert (config.scale, config.lmin, config.lmax) == (5, 0.5, 2.0)
        assert opts.app_options == {"prune": "1", "count_only": True}
        assert (opts.hist_path, opts.freq_path) == ("h.csv", "f.txt")
        assert (config.checkpoint_path, config.restart_path) == ("c.ckpt", "r.ckpt")
        assert config.stop_after_jobs == 4

    def test_unknown_app_rejected(self):
        with pytest.raises(_CliError):
            parse_cli(["run", "mystery", "in.txt"])

    def test_sat_defaults_to_decision_budgeting(self):
        opts = parse_cli(["run", "sat", "f.cnf"])
        assert opts.app_options.get("budget_kind") is None
        assert SatApplication().budget_kind == "decisions"

    def test_sat_rejects_node_budgeting_and_countonly(self, tmp_path, capsys):
        inp = tmp_path / "php.cnf"
        inp.write_text(cnf_text(pigeonhole_cnf(3, 2)))
        assert main(["run", "sat", str(inp), "-budgetkind", "nodes"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "btsearch: -budgetkind: sat accepts budget kinds decisions, conflicts, not 'nodes'\n"
        )
        with pytest.raises(_CliError) as err:
            parse_cli(["run", "sat", "f.cnf", "-countonly"])
        assert err.value.code == 1

    def test_sat_countonly_is_a_one_line_usage_error(self, tmp_path, capsys):
        inp = tmp_path / "php.cnf"
        inp.write_text(cnf_text(pigeonhole_cnf(3, 2)))
        assert main(["run", "sat", str(inp), "-countonly"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "btsearch: sat streams its verdict; -countonly is not supported\n"

    def test_enumeration_rejects_conflict_budgeting(self, tmp_path, capsys):
        inp = tmp_path / "poset.txt"
        inp.write_text("3 0\n")
        assert main(["run", "topsorts", str(inp), "-budgetkind", "conflicts"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "btsearch: -budgetkind: topsorts accepts budget kinds nodes, not 'conflicts'\n"
        )
        assert main(["run", "topsorts", str(inp), "-budgetkind", "nodes", "-countonly"]) == 0
        assert capsys.readouterr().out == "6\n"

    @pytest.mark.parametrize(
        ("app", "flags"),
        [
            ("sat", ["-prune", "1"]),
            ("topsorts", ["-restarts"]),
            ("spantree", ["-restarts"]),
            ("sat", ["-restarts"]),  # sat jobs restart only at job boundaries
        ],
    )
    def test_a_flag_of_another_app_is_a_usage_error(self, tmp_path, capsys, app, flags):
        # each used to be ignored, with exit 0
        inp = tmp_path / "input.txt"
        inp.write_text(cnf_text(pigeonhole_cnf(3, 2)) if app == "sat" else "3 0\n")
        assert main(["run", app, str(inp), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("btsearch: ") and flags[0] in line

    @pytest.mark.parametrize("app", APPLICATION_NAMES)
    def test_vsids_is_not_a_flag(self, tmp_path, capsys, app):
        # sat jobs always branch by activity, so no flag chooses the rule
        inp = tmp_path / "input.txt"
        inp.write_text(cnf_text(pigeonhole_cnf(3, 2)) if app == "sat" else "3 0\n")
        assert main(["run", app, str(inp), "-vsids"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "btsearch: unrecognized arguments: -vsids\n"


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

    @pytest.mark.parametrize(
        ("app", "text", "flags"),
        [("sat", "p cnf 2 1\n1 2 0\n", []), ("topsorts", "3 0\n", ["-countonly"])],
        ids=["sat", "topsorts"],
    )
    def test_restart_from_a_checkpoint_listing_no_job_exits_2(
        self, tmp_path, capsys, app, text, flags
    ):
        # run from no job, a satisfiable formula would read s UNSATISFIABLE and a poset 0
        inp = tmp_path / "input.txt"
        inp.write_text(text)
        empty = tmp_path / "empty.ckpt"
        empty.write_text(f"mts-checkpoint 1 {app}\n")
        code = main(["run", app, str(inp), "-restart", str(empty), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"btsearch: {empty}: lists no job"

    def test_sat_resumes_from_its_own_checkpoint(self, tmp_path, capsys):
        # -restart FILE, the checkpoint resume, still resumes a sat run
        inp = tmp_path / "php.cnf"
        inp.write_text(cnf_text(pigeonhole_cnf(4, 3)))
        ckpt = tmp_path / "sat.ckpt"
        flags = ["-np", "1", "-budgetkind", "conflicts", "-maxnodes", "2", "-scale", "1"]
        code = main(["run", "sat", str(inp), *flags, "-stopafter", "1", "-checkpoint", str(ckpt)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert ckpt.read_text().count("\nN ") > 1
        assert main(["run", "sat", str(inp), *flags, "-restart", str(ckpt)]) == 0
        assert capsys.readouterr().out == "s UNSATISFIABLE\n"

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

    def test_gwtree_k_for_a_law_without_one_is_input_error(self, tmp_path, capsys):
        inp = tmp_path / "g.txt"
        inp.write_text("catalan 20 40 1 7\n")
        code = main(["run", "gwtree", str(inp), "-np", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "catalan law takes no k" in line

    def test_run_sat_unsat(self, tmp_path, capsys):
        inp = tmp_path / "php.cnf"
        inp.write_text(cnf_text(pigeonhole_cnf(3, 2)))
        code = main(["run", "sat", str(inp), "-np", "2"])
        assert code == 0
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_run_sat_empty_formula_prints_an_empty_model(self, tmp_path, capsys):
        inp = tmp_path / "empty.cnf"
        inp.write_text("p cnf 0 0\n")
        assert main(["run", "sat", str(inp)]) == 0
        assert capsys.readouterr().out == "s SATISFIABLE\nv 0\n"

    def test_a_cnf_header_too_large_to_index_exits_2(self, tmp_path, capsys):
        # a worker's per-literal tables would have 2n + 1 entries, too many
        # to index
        inp = tmp_path / "huge.cnf"
        inp.write_text("p cnf 100000000000000000000 1\n1 0\n")
        assert main(["run", "sat", str(inp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("btsearch: line 1: 100000000000000000000 variables")

    def test_a_cnf_header_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # 2n + 1 is sys.maxsize, so the count passes the parse, but the
        # n + 1 entries of init's occurrence table cannot be allocated; the
        # allocation fails at once.  A count whose n + 1 entries can be
        # allocated is left untested: it would fill the memory.
        inp = tmp_path / "huge.cnf"
        inp.write_text("p cnf 4611686018427387903 1\n1 0\n")
        assert main(["run", "sat", str(inp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == "btsearch: 4611686018427387903 variables; too many to allocate"

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

    def test_gwtree_rejects_a_negative_seed(self, capsys):
        # numpy's own message named no argument
        assert main(["gwtree", "-seed", "-1", "-size", "200", "-trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "btsearch: seed must be >= 0\n"

    def test_gwtree_rejects_k_for_a_law_without_one(self, capsys):
        assert main(["gwtree", "-law", "catalan", "-k", "7"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "catalan law takes no k" in line

    def test_uniform_takes_no_k(self, tmp_path, capsys):
        # uniform is critical only on {0, 1, 2}, so its k had one legal value
        assert main(["gwtree", "-law", "uniform", "-k", "2"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "btsearch: uniform law takes no k (only binomial does)"
        inp = tmp_path / "g.txt"
        inp.write_text("uniform 20 40 33 2\n")
        assert main(["run", "gwtree", str(inp), "-np", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "btsearch: uniform law takes no k (only binomial does)\n"

    def test_gwtree_binomial_takes_its_k(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        argv = ["gwtree", "-law", "binomial", "-k", "7", "-size", "200", "-budget", "50",
                "-trials", "1", "-out", str(out_csv)]
        assert main(argv) == 0
        assert len(out_csv.read_text().splitlines()) == 2

    def test_efficiency_output(self, capsys):
        assert main(["efficiency", "12723", "192", "125"]) == 0
        assert capsys.readouterr().out.startswith("efficiency 0.530")

    def test_efficiency_rejects_nonpositive(self):
        assert main(["efficiency", "0", "4", "5"]) == 1

    @pytest.mark.parametrize(
        "args", [("nan", "1", "1"), ("1", "2", "inf"), ("1", "2", "-inf"), ("-inf", "2", "1")]
    )
    def test_efficiency_rejects_nonfinite_times(self, args, capsys):
        assert main(["efficiency", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "finite" in line

    def test_efficiency_help_still_prints(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["efficiency", "-h"])
        assert exit_.value.code == 0
        assert "single cores multi" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("command", "flags"),
        [
            ("run", ["-np", "-maxd", "-maxnodes", "-scale", "-lmin", "-lmax", "-prune",
                     "-countonly", "-hist", "-freq", "-checkpoint", "-restart", "-budgetkind",
                     "-stopafter"]),
            ("gwtree", ["-law", "-k", "-size", "-budget", "-trials", "-seed", "-out"]),
        ],
    )
    def test_help_gives_every_flag_a_line(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"usage: btsearch {command} ")
        named = [line.split()[0] for line in lines[1:]]
        assert [name for name in named if name.startswith("-")] == flags
        assert all(len(line.split()) > 1 for line in lines[1:])  # each with its help


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
        (line,) = proc.stderr.splitlines()
        assert flags[0] in line  # the flag typed, not the SchedulerConfig field
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

    @pytest.mark.parametrize(
        ("window", "expected"),
        [("fullbinary 2 2 0", None), ("fullbinary 4 4 0", None), ("fullbinary 2 4 0", "3")],
    )
    def test_run_gwtree_refuses_a_fullbinary_window_without_an_odd_size(
        self, tmp_path, window, expected
    ):
        inp = tmp_path / "g.txt"
        inp.write_text(window + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "btsearch.cli", "run", "gwtree", str(inp), "-countonly"],
            capture_output=True,
            text=True,
            timeout=20,  # the sampler once drew attempts without end here
        )
        if expected is None:
            assert proc.returncode == 2
            assert proc.stdout == ""
            (line,) = proc.stderr.splitlines()
            assert "odd size" in line
        else:
            assert proc.returncode == 0
            assert proc.stdout == f"{expected}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["gwtree", "-size", "200", "-budget", "10", "-trials", "3", "-seed", "1"],
            ["efficiency", "10", "2", "6"],
        ],
        ids=["gwtree", "efficiency"],
    )
    def test_gwtree_to_a_closed_stdout_exits_3_with_one_line(self, args):
        proc = subprocess.Popen(
            [sys.executable, "-m", "btsearch.cli", *args],
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

    def test_importing_the_cli_loads_no_app(self):
        # Every run compiles what it imports when no bytecode is cached, so
        # the CLI loads only the app its command line names: no kinds table
        # or flag check of its own may import an app module.
        script = (
            "import sys, btsearch.cli\n"
            "print(' '.join(m for m in sys.modules if m.startswith('btsearch.apps')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["btsearch.apps"]

    def test_a_sat_run_loads_no_reverse_search_module(self):
        # compiling reverse_search.py and apps/base.py takes about 4 ms of
        # a run with no cached bytecode, and sat needs neither
        script = (
            "import sys, btsearch.cli, btsearch.apps.sat.app\n"
            "print(' '.join(m for m in sys.modules if m.startswith('btsearch')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "btsearch.apps.sat.app" in loaded
        assert loaded.isdisjoint({"btsearch.reverse_search", "btsearch.apps.base"})

    def test_importing_the_cli_does_not_load_numpy(self):
        # Every run pays for what these imports load on top of a bare
        # interpreter: numpy alone costs about 170 ms, and
        # dataclasses (with the inspect it loads) and logging alone cost
        # about 30 ms of start-up.  The forked workers use raw pipes:
        # multiprocessing.connection alone added about 21 ms (90.5 to
        # 111.6 ms, medians of 25 runs of `import btsearch.cli`), and their
        # messages are marshalled: pickle cost about 2.5 ms of imports.
        script = (
            "import sys; bare = set(sys.modules)\n"
            "import btsearch.cli, btsearch.apps.spantree, btsearch.apps.topsorts\n"
            "import btsearch.apps.gwtree\n"
            "import btsearch.apps.sat.app\n"
            "print(' '.join(sorted(set(sys.modules) - bare)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert {"btsearch.apps.sat.app", "btsearch.apps.gwtree"} <= added
        assert added.isdisjoint(
            {"numpy", "dataclasses", "inspect", "logging", "multiprocessing", "subprocess",
             "concurrent", "pickle"}
        )

    @pytest.mark.parametrize(
        "text,needs_numpy",
        [
            ("catalan 20 40 2", False),
            ("catalan 20 40 0", False),
            ("poisson 20 40 0", True),
            ("poisson 20 40 10", True),
            ("catalan 490 510 0", True),
        ],
        ids=[
            "first-attempt-lands",
            "later-attempt-lands",
            "no-jump-fallback",
            "no-jump-first-attempt-lands",
            "limit-fallback",
        ],
    )
    def test_run_gwtree_imports_numpy_only_when_pure_python_gives_up(
        self, tmp_path, text, needs_numpy
    ):
        # Seed 2's first catalan attempt lands in [20, 40], seed 0's does
        # not and a later one is found by jumping over the rejected chunks.
        # poisson's draws take a varying number of outputs, so a rejected
        # attempt cannot be jumped over and numpy draws it from the start,
        # also for seed 10, whose first attempt lands; catalan seed 0 needs
        # more than the 32,768 values drawn in pure Python for [490, 510].
        inp = tmp_path / "g.txt"
        inp.write_text(text + "\n")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "btsearch.cli", "run", "gwtree",
             str(inp), "-countonly", "-np", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert ("numpy" in imported) == needs_numpy
        name, lo, hi, seed = text.split()
        nodes = len(sample_offspring_sequence(make_law(name), int(lo), int(hi), rng=int(seed)))
        assert proc.stdout == f"{nodes}\n"

    def test_a_fork_run_imports_no_thread_machinery(self, tmp_path):
        # queue and threading serve only the library's thread workers; -S
        # leaves out the interpreter's site hooks, which may load threading
        inp = tmp_path / "p.txt"
        inp.write_text("4 0\n")
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "btsearch.cli", "run", "topsorts",
             str(inp), "-np", "2", "-maxnodes", "3", "-scale", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "btsearch.transport" in imported
        # argparse, gettext and locale were the parser's; metrics serves only
        # -freq, -hist and efficiency
        assert imported.isdisjoint(
            {"queue", "threading", "argparse", "gettext", "locale", "btsearch.metrics"}
        )
        assert len(set(proc.stdout.splitlines())) == 24
