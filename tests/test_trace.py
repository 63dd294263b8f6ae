"""Tests for run traces and their CSV round trip."""

import pytest

from svilab import Recorder
from svilab.errors import ContractViolation
from svilab.trace import CSV_HEADER, RunTrace, TraceRow


class TestSchema:
    def test_header_is_stable(self):
        assert CSV_HEADER == (
            "scheme,seed,outer_k,inner_k,calls,natural_residual,gap,"
            "yosida_sq,saddle_gap,dist_ref_sq,truncated"
        )


class TestRunTrace:
    def test_add_requires_increasing_calls(self):
        trace = RunTrace("vs_ave", 0)
        trace.add(TraceRow(outer_k=1, inner_k=0, calls=5))
        with pytest.raises(ContractViolation, match="strictly increase"):
            trace.add(TraceRow(outer_k=2, inner_k=0, calls=5))
        with pytest.raises(ContractViolation):
            trace.add(TraceRow(outer_k=2, inner_k=0, calls=4))

    def test_final(self):
        trace = RunTrace("vs_ave", 0)
        assert trace.final is None
        trace.add(TraceRow(outer_k=1, inner_k=0, calls=2))
        trace.add(TraceRow(outer_k=2, inner_k=0, calls=6))
        assert trace.final.outer_k == 2


class TestRecorder:
    def test_cadence(self):
        # a run's last iteration gets a row, on the cadence or off it
        assert [k for k in range(1, 8) if Recorder(every=3).due(k, 7)] == \
               [3, 6, 7]
        assert [k for k in range(1, 7) if Recorder(every=3).due(k, 6)] == \
               [3, 6]
        assert all(Recorder().due(k, 4) for k in range(1, 5))

    def test_defaults_record_cheap_metrics_only(self):
        recorder = Recorder()
        assert (recorder.every, recorder.gap, recorder.yosida_lam) == \
               (1, False, None)

    def test_rejects_bad_values(self):
        for bad in (0, -2, 1.5):
            with pytest.raises(ContractViolation, match="every"):
                Recorder(every=bad)


class TestCsvRoundTrip:
    def _sample_trace(self):
        trace = RunTrace("ppawss", 3)
        trace.add(TraceRow(outer_k=1, inner_k=4, calls=20,
                           natural_residual=0.5, gap=None, yosida_sq=0.0625,
                           saddle_gap=1.0 / 3.0, dist_ref_sq=0.25))
        trace.add(TraceRow(outer_k=2, inner_k=6, calls=77,
                           natural_residual=0.125))
        return trace

    def test_exact_file_content(self, tmp_path):
        path = tmp_path / "t.csv"
        self._sample_trace().write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == ("ppawss,3,1,4,20,0.5,,0.0625,"
                            "0.3333333333333333,0.25,false")
        assert lines[2] == "ppawss,3,2,6,77,0.125,,,,,false"

    def test_round_trip_preserves_values(self, tmp_path):
        path = tmp_path / "t.csv"
        original = self._sample_trace()
        original.truncated = True
        original.write_csv(path)
        loaded = RunTrace.read_csv(path)
        assert loaded.scheme == "ppawss"
        assert loaded.seed == 3
        assert loaded.truncated
        assert len(loaded.rows) == 2
        # repr-format floats survive the trip bit for bit
        assert loaded.rows[0].saddle_gap == original.rows[0].saddle_gap
        assert loaded.rows[0].yosida_sq == original.rows[0].yosida_sq
        assert loaded.rows[1].gap is None
        assert loaded.rows[1].dist_ref_sq is None

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ContractViolation, match="unexpected header"):
            RunTrace.read_csv(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nvs_ave,0,1,0,2\n")
        with pytest.raises(ContractViolation, match="malformed row"):
            RunTrace.read_csv(path)

    @pytest.mark.parametrize("row", [
        "ppawss,x,2,6,77,0.125,,,,,false",
        "ppawss,3,2,six,77,0.125,,,,,false",
        "ppawss,3,2,6,77,abc,,,,,false",
    ])
    def test_rejects_non_numeric_field(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + row + "\n")
        with pytest.raises(ContractViolation, match="non-numeric field"):
            RunTrace.read_csv(path)

    def test_rejects_non_ascii_bytes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes((CSV_HEADER + "\nppawss,3,1,4,20,0.5,,,,,false\xe9\n")
                         .encode("latin-1"))
        with pytest.raises(ContractViolation, match="not ASCII"):
            RunTrace.read_csv(path)

    def test_rejects_unknown_flag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nppawss,3,1,4,20,0.5,,,,,maybe\n")
        with pytest.raises(ContractViolation, match="malformed row"):
            RunTrace.read_csv(path)

    @pytest.mark.parametrize("second", [
        "extragradient,3,2,6,77,0.125,,,,,false",
        "ppawss,7,2,6,77,0.125,,,,,false",
        "ppawss,3,2,6,77,0.125,,,,,true",
    ])
    def test_rejects_rows_of_another_run(self, tmp_path, second):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nppawss,3,1,4,20,0.5,,,,,false\n"
                        + second + "\n")
        with pytest.raises(ContractViolation, match="disagrees"):
            RunTrace.read_csv(path)

    def test_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(ContractViolation, match="no data rows"):
            RunTrace.read_csv(path)
