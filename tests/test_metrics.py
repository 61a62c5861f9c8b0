import math

import pytest

from btsearch.errors import MetricsError
from btsearch.metrics import compute_efficiency, write_frequency_file, write_histogram_file


class TestEfficiency:
    def test_perfect_scaling(self):
        rec = compute_efficiency(100, 4, 25)
        assert rec.efficiency == pytest.approx(1.0)
        assert rec.speedup == pytest.approx(4.0)

    def test_192_core_run(self):
        rec = compute_efficiency(12723, 192, 125)
        assert rec.efficiency == pytest.approx(0.530, abs=1e-3)

    def test_12_core_run(self):
        rec = compute_efficiency(8957, 12, 859)
        assert rec.efficiency == pytest.approx(0.869, abs=1e-3)

    def test_speedup_is_efficiency_times_cores(self):
        rec = compute_efficiency(50, 8, 10)
        assert rec.speedup == pytest.approx(rec.efficiency * 8)

    @pytest.mark.parametrize("args", [(0, 4, 25), (100, 0, 25), (100, 4, 0), (-1, 4, 2)])
    def test_nonpositive_inputs_rejected(self, args):
        with pytest.raises(MetricsError):
            compute_efficiency(*args)

    @pytest.mark.parametrize(
        "args",
        [(math.nan, 1, 1), (1, 2, math.inf), (math.inf, 2, 1), (1, 2, math.nan), (-math.inf, 1, 1)],
    )
    def test_nonfinite_times_rejected(self, args):
        with pytest.raises(MetricsError, match="finite"):
            compute_efficiency(*args)


class TestFiles:
    def test_frequency_file_one_value_per_line(self, tmp_path):
        path = tmp_path / "freq.txt"
        assert write_frequency_file([5, 0, 17], path)
        assert path.read_text() == "5\n0\n17\n"

    def test_histogram_csv_layout(self, tmp_path):
        path = tmp_path / "hist.csv"
        samples = [(0.0, 0, 1), (0.1, 3, 5), (0.25, 2, 0)]
        assert write_histogram_file(samples, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "elapsed_seconds,busy_workers,joblist_len"
        assert lines[1] == "0.000,0,1"
        assert len(lines) == 4
        elapsed = [float(l.split(",")[0]) for l in lines[1:]]
        assert elapsed == sorted(elapsed)

    def test_unwritable_path_warns_but_does_not_raise(self, tmp_path):
        bad = tmp_path / "no_dir" / "freq.txt"
        assert write_frequency_file([1], bad) is False
        assert write_histogram_file([(0.0, 0, 0)], bad) is False
