import io
import math
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btsearch.budget import SchedulerConfig
from btsearch.engine import run
from btsearch.errors import InputFormatError
from btsearch.apps.gwtree import (
    GWExperiment,
    GWTreeApplication,
    GWTreeOracle,
    make_law,
    measure_joblist_ratio,
    predicted_ratio,
    run_budgeted_jobs,
    sample_offspring_list,
    sample_offspring_sequence,
    subtree_sizes,
    write_experiment_csv,
)
from btsearch.apps import gwtree
from btsearch.apps.npstream import table_draws

from oracles import gw_reference_jobs, random_offspring_sequence

ALL_LAWS = [
    make_law("catalan"),
    make_law("fullbinary"),
    make_law("geometric"),
    make_law("poisson"),
    make_law("binomial", 2),
    make_law("binomial", 3),
    make_law("binomial", 7),
    make_law("uniform"),
]
# the laws whose values draws follows without numpy
STREAM_LAWS = [law for law in ALL_LAWS if law.per_output]
# Seeds below 2**32 take one SeedSequence entropy word; larger ones take up
# to seven, and more than four go through numpy's extra mixing loop.
SEEDS = st.integers(0, 2**32) | st.integers(2**64, 2**200)


class TestLaws:
    def test_catalan_carries_both_second_moments(self):
        law = make_law("catalan")
        # direct variance of {0:1/4, 1:1/2, 2:1/4} is 1/2; the published
        # growth-law constant corresponds to 3/2, kept separately
        assert law.variance == pytest.approx(0.5)
        assert law.ratio_sigma2 == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "name,k,var",
        [
            ("fullbinary", None, 1.0),
            ("poisson", None, 1.0),
            ("geometric", None, 2.0),
            ("binomial", 4, 0.75),
            ("uniform", None, 2.0 / 3.0),
        ],
    )
    def test_variances(self, name, k, var):
        assert make_law(name, k=k).variance == pytest.approx(var)

    def test_noncritical_laws_rejected(self):
        with pytest.raises(InputFormatError):
            make_law("binomial", k=1)
        with pytest.raises(InputFormatError):
            make_law("zipf")
        for name in ("catalan", "fullbinary", "geometric", "poisson", "uniform"):
            with pytest.raises(InputFormatError, match=r"takes no k \(only binomial does\)"):
                make_law(name, k=7)

    def test_uniform_takes_no_k(self):
        # {0, 1, 2} is the one critical uniform law, so k had one legal value
        with pytest.raises(InputFormatError, match="uniform law takes no k"):
            make_law("uniform", k=2)
        law = make_law("uniform")
        assert law.k is None
        assert law.draw(np.random.default_rng(5), 1000).tolist() == (
            np.random.default_rng(5).integers(0, 3, size=1000).tolist()
        )
        with pytest.raises(InputFormatError, match="uniform law takes no k"):
            GWTreeApplication().init(b"uniform 20 40 33 2")

    def test_predicted_ratio_values(self):
        # catalan at b=5000 reproduces the published constant ~ 0.0109
        assert predicted_ratio(make_law("catalan"), 5000) == pytest.approx(0.010854, abs=1e-5)
        # fullbinary substitutes sigma^2 = 1
        assert predicted_ratio(make_law("fullbinary"), 5000) == pytest.approx(0.008862, abs=1e-5)

    def test_empirical_offspring_mean_is_one(self):
        rng = np.random.default_rng(9)
        for name in ("catalan", "fullbinary", "geometric", "poisson"):
            draws = make_law(name).draw(rng, 200_000)
            assert abs(float(draws.mean()) - 1.0) < 0.02


class TestSampling:
    def test_unique_size_three_fullbinary_shape(self):
        xi = sample_offspring_sequence(make_law("fullbinary"), 3, 3, rng=1)
        assert xi.tolist() == [2, 0, 0]

    def test_sampled_sequences_encode_complete_trees(self):
        law = make_law("catalan")
        for seed in range(10):
            xi = sample_offspring_sequence(law, 5, 500, rng=seed)
            assert int(xi.sum()) == xi.shape[0] - 1
            assert 5 <= xi.shape[0] <= 500

    def test_impossible_window_raises_with_advice(self):
        # full binary trees always have odd size, so [4, 4] is impossible:
        # the window check says so before any attempt is drawn
        with pytest.raises(ValueError, match="odd size; widen"):
            sample_offspring_sequence(make_law("fullbinary"), 4, 4, rng=0, max_attempts=300)

    def test_a_fullbinary_window_without_an_odd_size_is_refused(self, monkeypatch):
        monkeypatch.setattr(gwtree, "_MAX_ATTEMPTS", 50)  # a sampler that tries fails fast
        law = make_law("fullbinary")
        for size in (2, 4, 20_000):
            message = rf"odd size; widen \[{size}, {size}\]"
            with pytest.raises(ValueError, match=message):
                sample_offspring_list(law, size, size, 0)
            with pytest.raises(ValueError, match=message):
                sample_offspring_sequence(law, size, size, rng=0, max_attempts=50)
        assert sample_offspring_list(law, 2, 4, 0) == [2, 0, 0]
        assert sample_offspring_sequence(law, 2, 4, rng=0).tolist() == [2, 0, 0]

    def test_deterministic_for_a_seed(self):
        law = make_law("geometric")
        a = sample_offspring_sequence(law, 10, 100, rng=42)
        b = sample_offspring_sequence(law, 10, 100, rng=42)
        assert a.tolist() == b.tolist()


class TestNumpyStreamPort:
    """The pure-Python stream draws what numpy's default_rng(seed) draws."""

    @settings(max_examples=60, deadline=None)
    @given(
        law=st.sampled_from(STREAM_LAWS),
        seed=SEEDS,
        n=st.integers(1, 3000),
        cut=st.integers(0, 3000),
    )
    @example(law=ALL_LAWS[0], seed=0, n=3000, cut=1001)
    @example(law=ALL_LAWS[1], seed=2**64, n=3000, cut=1001)
    @example(law=ALL_LAWS[2], seed=2**70 + 3, n=3000, cut=0)
    def test_first_draws_equal_numpy(self, law, seed, n, cut):
        # numpy's chunks share one stream, and the 32-bit laws one buffered
        # half of a 64-bit output, so any split into chunks draws the same.
        cut = min(cut, n)
        rng = np.random.default_rng(seed)
        expected = np.concatenate([law.draw(rng, cut), law.draw(rng, n - cut)]).tolist()
        assert list(islice(law.draws(seed), n)) == expected

    @settings(max_examples=30, deadline=None)
    @given(law=st.sampled_from(STREAM_LAWS), seed=SEEDS, skip=st.integers(0, 2**80))
    @example(law=ALL_LAWS[1], seed=2**64, skip=2**40 + 7)
    @example(law=ALL_LAWS[2], seed=2**70 + 3, skip=0)
    def test_a_skip_starts_after_that_many_outputs(self, law, seed, skip):
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(skip)
        assert list(islice(law.draws(seed, skip), 500)) == law.draw(rng, 500).tolist()

    @settings(max_examples=30, deadline=None)
    @given(
        law=st.sampled_from(STREAM_LAWS),
        seed=SEEDS,
        skip=st.integers(0, 3000),
    )
    @example(law=ALL_LAWS[0], seed=2**70 + 3, skip=(4096 + 262_144) // 2)
    def test_per_output_values_take_each_output(self, law, seed, skip):
        rng = np.random.default_rng(seed)
        law.draw(rng, skip * law.per_output)
        assert list(islice(law.draws(seed, skip), 500)) == law.draw(rng, 500).tolist()

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, bits=st.integers(1, 31))
    @example(seed=0, bits=31)
    def test_power_of_two_tables_match_numpy(self, seed, bits):
        high = 1 << bits
        expected = np.random.default_rng(seed).integers(0, high, size=2000).tolist()
        assert list(islice(table_draws(seed, range(high)), 2000)) == expected

    def test_a_table_numpy_could_reject_from_is_refused(self):
        # numpy rejects some 32-bit draws for any other length, and the
        # port no longer follows its rejection loop
        for high in (0, 1, 3, 6, 1 << 32):
            with pytest.raises(ValueError, match="power of two"):
                table_draws(0, range(high))
        for law in ALL_LAWS:
            if not law.per_output:
                with pytest.raises(ValueError, match="no pure-Python stream"):
                    law.draws(0)

    def test_negative_seed_is_numpys_value_error(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng(-1)
        with pytest.raises(ValueError) as port_error:
            next(make_law("catalan").draws(-1))
        assert str(port_error.value) == str(numpy_error.value)
        with pytest.raises(InputFormatError, match=str(numpy_error.value)):
            GWTreeApplication().init(b"catalan 20 40 -1")


def same_tables(a, b):
    def tables(oracle):
        return oracle.n, oracle._children, oracle._parent, oracle.max_degree

    return tables(a) == tables(b)


def numpy_oracle(law, lo, hi, seed):
    return GWTreeOracle(subtree_sizes(sample_offspring_sequence(law, lo, hi, rng=seed)))


@pytest.fixture
def numpy_calls(monkeypatch):
    """The max_attempts and starting PCG64 state of each call that
    sample_offspring_list makes to numpy's sampler."""
    calls = []

    def spy(law, lo, hi, rng, max_attempts):
        calls.append((max_attempts, rng.bit_generator.state["state"]))
        return sample_offspring_sequence(law, lo, hi, rng, max_attempts)

    monkeypatch.setattr(gwtree, "sample_offspring_sequence", spy)
    return calls


class TestSampleOffspringList:
    """init builds the tree numpy's sampler names, with or without numpy."""

    @settings(max_examples=60, deadline=None)
    @given(
        law=st.sampled_from(ALL_LAWS),
        lo=st.integers(1, 50),
        width=st.integers(10, 100),
        seed=SEEDS,
    )
    @example(law=ALL_LAWS[0], lo=20, width=20, seed=2)  # attempt 1 lands
    @example(law=ALL_LAWS[0], lo=20, width=20, seed=0)  # a later attempt lands
    @example(law=ALL_LAWS[3], lo=20, width=20, seed=0)  # poisson cannot jump: numpy starts over
    def test_init_names_the_numpy_samplers_tree(self, law, lo, width, seed):
        k = f" {law.k}" if law.k is not None else ""
        oracle, _ = GWTreeApplication().init(f"{law.name} {lo} {lo + width} {seed}{k}".encode())
        assert same_tables(oracle, numpy_oracle(law, lo, lo + width, seed))

    @pytest.mark.parametrize(
        "lo,hi,seed,handover",
        [
            (20, 40, 2, None),  # attempt 1 lands
            (20, 40, 0, None),  # a later attempt lands
            # Seed 1's first attempt is still open after the first 4,096
            # values, so numpy draws a big chunk before rejecting it.
            (20, 5000, 1, None),
            # Seed 0 needs more than 32,768 values for [490, 510]: numpy goes
            # on after the attempts Python rejected.
            (490, 510, 0, "later"),
            # A window this narrow is found within the limit far less than
            # one time in five, so numpy goes on after the first attempt,
            # which is rejected inside its first chunk of 2,048 outputs.
            (19_600, 20_400, 12345, (1_999_999, 2048)),
            # Seed 2128's first attempt closes after 296,917 values.
            (290_000, 300_000, 2128, (2_000_000, 0)),
        ],
    )
    def test_numpy_is_reached_only_past_the_limit(self, numpy_calls, lo, hi, seed, handover):
        law = make_law("catalan")
        found = sample_offspring_list(law, lo, hi, seed)
        assert found == sample_offspring_sequence(law, lo, hi, rng=seed).tolist()
        rng = np.random.default_rng(seed)
        if handover is None:
            assert numpy_calls == []
        elif handover == "later":
            [(left, state)] = numpy_calls
            assert left < 2_000_000 and state != rng.bit_generator.state["state"]
        else:
            left, outputs = handover
            rng.bit_generator.advance(outputs)
            assert numpy_calls == [(left, rng.bit_generator.state["state"])]

    def test_a_law_that_cannot_jump_starts_numpy_over(self, numpy_calls):
        cases = [
            (make_law("poisson"), 0),
            (make_law("binomial", 3), 0),
            (make_law("uniform"), 0),
            # these first attempts land, and numpy's sampler still draws them
            (make_law("poisson"), 10),
            (make_law("uniform"), 33),
        ]
        for law, seed in cases:
            numpy_calls.clear()
            assert sample_offspring_list(law, 20, 40, seed) == (
                sample_offspring_sequence(law, 20, 40, rng=seed).tolist()
            )
            initial = np.random.default_rng(seed).bit_generator.state["state"]
            assert numpy_calls == [(2_000_000, initial)], (law.name, seed)

    def test_seed_1_reaches_a_big_chunk(self):
        walk = 1 + np.cumsum(make_law("catalan").draw(np.random.default_rng(1), 4096) - 1)
        assert walk.min() > 0

    def test_a_tree_one_node_past_the_window_is_rejected(self):
        law = make_law("catalan")
        size = len(sample_offspring_sequence(law, 20, 40, rng=2, max_attempts=1))
        found = sample_offspring_list(law, 1, size - 1, 2)
        assert found == sample_offspring_sequence(law, 1, size - 1, rng=2).tolist()
        assert len(found) < size

    def test_no_tree_counts_the_attempts_of_both_samplers(self, monkeypatch):
        monkeypatch.setattr(gwtree, "_PYTHON_LIMIT", 64)
        monkeypatch.setattr(gwtree, "_MAX_ATTEMPTS", 300)
        # one odd size, which seed 0 does not reach within 300 attempts
        with pytest.raises(InputFormatError, match=r"\[2001, 2001\] found in 300 attempts; widen"):
            GWTreeApplication().init(b"fullbinary 2001 2001 0")

    def test_from_offspring_reads_one_tree(self):
        rng = random.Random(11)
        for _ in range(50):
            seq = random_offspring_sequence(rng, 80)
            ref = GWTreeOracle(subtree_sizes(np.array(seq, dtype=np.int64)))
            assert same_tables(GWTreeOracle.from_offspring(seq + [3, 0]), ref)
            with pytest.raises(ValueError, match="empty|ends before its tree"):
                GWTreeOracle.from_offspring(seq[:-1])
        with pytest.raises(ValueError, match="empty"):
            GWTreeOracle.from_offspring([])
        assert same_tables(GWTreeOracle.from_offspring([0, 5]), GWTreeOracle(np.array([1])))


class TestSubtreeSizes:
    def reference_sizes(self, xi):
        """Recursive reference, independent of the vectorized version."""
        sizes = [0] * len(xi)

        def visit(i):
            total = 1
            child = i + 1
            for _ in range(xi[i]):
                total += visit(child)
                child = i + size_at(child)
            sizes[i] = total
            return total

        def size_at(i):
            return sizes[i]

        # compute bottom-up by walking right-to-left
        for i in range(len(xi) - 1, -1, -1):
            total, child = 1, i + 1
            for _ in range(xi[i]):
                total += sizes[child]
                child += sizes[child]
            sizes[i] = total
        return sizes

    def test_against_reference_on_random_trees(self):
        rng = random.Random(3)
        for _ in range(50):
            xi = random_offspring_sequence(rng, 120)
            got = subtree_sizes(np.array(xi, dtype=np.int64))
            assert got.tolist() == self.reference_sizes(xi)

    def test_root_spans_whole_tree(self):
        xi = sample_offspring_sequence(make_law("catalan"), 50, 200, rng=8)
        sizes = subtree_sizes(xi)
        assert int(sizes[0]) == xi.shape[0]

    def test_invalid_sequences_rejected(self):
        with pytest.raises(ValueError):
            subtree_sizes(np.array([2, 0], dtype=np.int64))  # incomplete
        with pytest.raises(ValueError):
            subtree_sizes(np.array([0, 0], dtype=np.int64))  # forest


class TestBudgetedJobs:
    def test_matches_reference_walker(self):
        rng = random.Random(19)
        for _ in range(60):
            xi = np.array(random_offspring_sequence(rng, 150), dtype=np.int64)
            sizes = subtree_sizes(xi)
            budget = rng.randrange(1, 12)
            fast = run_budgeted_jobs(sizes, budget)
            ref_unexplored, ref_counts = gw_reference_jobs(sizes, budget)
            assert fast.unexplored_total == ref_unexplored
            assert fast.counts == ref_counts
            assert sum(fast.counts) == xi.shape[0] - 1  # partition of the tree

    def test_unbudgeted_single_job(self):
        xi = sample_offspring_sequence(make_law("catalan"), 20, 100, rng=2)
        stats = run_budgeted_jobs(subtree_sizes(xi), None)
        assert stats.jobs == 1
        assert stats.unexplored_total == 0
        assert stats.counts == [xi.shape[0] - 1]

    def test_job_accounting_identity(self):
        xi = sample_offspring_sequence(make_law("geometric"), 500, 2000, rng=6)
        stats = run_budgeted_jobs(subtree_sizes(xi), 50)
        assert stats.jobs == stats.unexplored_total + 1


class TestExperiment:
    def test_growth_law_with_direct_variance_smallscale(self):
        # Monte-Carlo arbitration of the sigma^2 ambiguity: measured ratios
        # track sqrt(pi * Var / 8b), i.e. the direct variance.
        law = make_law("catalan")
        exp = GWExperiment(law=law, target_size=120_000, budget=500, trials=6, seed=11)
        result = measure_joblist_ratio(exp)
        variance_pred = math.sqrt(math.pi * law.variance / (8 * 500))
        assert abs(result.mean_ratio / variance_pred - 1.0) < 0.15
        # the published catalan constant is sqrt(3) higher and does not fit
        assert result.predicted == pytest.approx(variance_pred * math.sqrt(3.0), rel=1e-6)
        assert result.mean_ratio < 0.75 * result.predicted

    def test_ratio_scales_inversely_with_sqrt_budget(self):
        law = make_law("fullbinary")
        base = measure_joblist_ratio(
            GWExperiment(law=law, target_size=80_000, budget=400, trials=6, seed=3)
        )
        doubled = measure_joblist_ratio(
            GWExperiment(law=law, target_size=80_000, budget=800, trials=6, seed=4)
        )
        factor = doubled.mean_ratio / base.mean_ratio
        assert 0.60 < factor < 0.82  # ideal 1/sqrt(2) ~ 0.707

    def test_csv_format(self):
        exp = GWExperiment(make_law("fullbinary"), 200, 50, trials=3, seed=0)
        result = measure_joblist_ratio(exp)
        out = io.StringIO()
        write_experiment_csv(result, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "trial,size,b,jobs,ratio,predicted"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "50"

    def test_rows_match_trial_count_and_window(self):
        exp = GWExperiment(make_law("catalan"), 1000, 100, trials=5, seed=2)
        lo, hi = exp.window()
        result = measure_joblist_ratio(exp)
        assert len(result.rows) == 5
        assert all(lo <= r.size <= hi for r in result.rows)


class TestEngineApplication:
    def test_enumerates_every_node_once(self):
        out = io.StringIO()
        report = run(
            GWTreeApplication(),
            b"catalan 30 120 7",
            SchedulerConfig(num_workers=3, base_max_depth=2, base_max_nodes=10, scale=1),
            out,
        )
        lines = out.getvalue().splitlines()
        xi = sample_offspring_sequence(make_law("catalan"), 30, 120, rng=7)
        assert report.total_output_count == xi.shape[0]
        assert sorted(int(l) for l in lines) == list(range(xi.shape[0]))
        assert sum(report.frequencies) == xi.shape[0] - 1

    @pytest.mark.parametrize("budget", [1, 2, 7, 30])
    def test_engine_jobs_match_budgeted_job_walker(self, budget):
        # run_budgeted_jobs claims to reproduce the generic traversal's jobs
        xi = sample_offspring_sequence(make_law("catalan"), 200, 400, rng=11)
        expected = run_budgeted_jobs(subtree_sizes(xi), budget)
        for workers in (1, 2):
            report = run(
                GWTreeApplication(count_only=True),
                b"catalan 200 400 11",
                SchedulerConfig(
                    num_workers=workers, base_max_depth=None, base_max_nodes=budget, scale=1
                ),
            )
            assert report.jobs_executed == expected.jobs
            if workers == 1:  # one worker runs the FIFO job list in order
                assert report.frequencies == expected.counts
            else:
                assert sorted(report.frequencies) == sorted(expected.counts)

    def test_oracle_child_index_structure(self):
        xi = np.array([2, 1, 0, 0], dtype=np.int64)
        oracle = GWTreeOracle(subtree_sizes(xi))
        assert oracle.root() == 0
        assert oracle.adjacent(0, 1) == 1 and oracle.adjacent(0, 2) == 3
        assert oracle.parent(1) == (0, 1)
        assert oracle.parent(2) == (1, 1)
        assert oracle.parent(3) == (0, 2)

    def test_oracle_matches_a_brute_force_build(self):
        rng = random.Random(5)
        for _ in range(50):
            seq = random_offspring_sequence(rng, 60)
            children = [[] for _ in seq]
            waiting = []  # nodes with children still to come, innermost last
            for node, k in enumerate(seq):
                if waiting:
                    p = waiting[-1]
                    children[p].append(node)
                    if len(children[p]) == seq[p]:
                        waiting.pop()
                if k:
                    waiting.append(node)
            parent = [None] * len(seq)
            for p, kids in enumerate(children):
                for j, c in enumerate(kids, start=1):
                    parent[c] = (p, j)
            oracle = GWTreeOracle(subtree_sizes(np.array(seq, dtype=np.int64)))
            assert oracle._children == children
            assert oracle._parent == parent
            assert oracle.max_degree == max(seq)

    def test_bad_input_rejected(self):
        with pytest.raises(InputFormatError):
            GWTreeApplication().init(b"catalan 10")
        with pytest.raises(InputFormatError, match="size_lo <= size_hi"):
            GWTreeApplication().init(b"catalan 40 20 7")
