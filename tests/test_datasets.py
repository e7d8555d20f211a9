"""Dataset ingestion tests: CSV parsing and relabeling, synthetic generators,
and the split protocol."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dqml.datasets import (
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split_random,
    write_sidecar,
)
from dqml.errors import InvalidInputError
from dqml.pipeline import Dataset

# Signed zero, the smallest subnormal and normal, values next to repr's switch
# between plain and exponent notation, the largest double and two plain values.
CSV_EDGE_VALUES = [
    -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 9.999999999999999e-05,
    1e16, 1.7976931348623157e308, 2.0, 0.1,
]

# Cells on either side of numpy's grammar: what Python's int() or float()
# take and numpy does not (underscores, non-ASCII digits), labels that are not
# int64, non-finite doubles, an empty cell, and cells both accept.
CSV_EDGE_CELLS = [
    "1_0", "\uff11", "\u0663", "1.0", "1.5", "+1", "--1", "nan", "inf", "1e999",
    " 2 ", "", "0x10", "1e", "\x1c1", "9223372036854775807", "9223372036854775808",
]


class TestCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        texts = [
            "1,0.5,0.5\n2,1,0\n",
            " 1 , 0.5,\t0.5 \n\n \t \n2,1 ,0\n",
            "1,0.5,0.5\r\n2,1,0\r\n",
            # Blank, space-only and tab-only lines before, between and after.
            "\n  \n\t\n1,0.5,0.5\n \t\n\n2,1,0\n\t\n  \n\n",
            "\r\n \r\n1,0.5,0.5\r\n\t\r\n2,1,0\r\n  \r\n",
        ]
        for text in texts:
            p.write_bytes(text.encode())
            ds, relabel = load_csv(p)
            assert ds.n == 2 and ds.dim == 2 and ds.class_count == 2
            assert relabel == {1: 1, 2: 2}
            assert np.array_equal(ds.samples, [[0.5, 0.5], [1.0, 0.0]])
            assert np.array_equal(ds.labels, [1, 2])

    def test_relabeling_follows_sorted_order(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("9,1.0\n7,2.0\n9,3.0\n")
        ds, relabel = load_csv(p)
        assert relabel == {7: 1, 9: 2}
        assert ds.labels.tolist() == [2, 1, 2]

    # Blank and whitespace-only lines: line 4 is the second row.
    PADDED = "1,0.5,0.5\n\n  \t\n{}\n"

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        cases = [
            ("1,0.5,0.5\n2,1\n", "row 2"),
            (self.PADDED.format("2,1"), "row 4"),
            ("1,0.5\n2,0.5,\n", "row 2: expected 2 cells, got 3"),
            ("1,0.5,\n2,0.5,\n", "row 1: non-numeric"),
        ]
        for text, message in cases:
            p.write_text(text)
            with pytest.raises(InvalidInputError, match=message):
                load_csv(p)

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        cases = [
            ("1,0.5\n2,abc\n", "row 2"),
            (self.PADDED.format("2,0.5,abc"), "row 4: non-numeric"),
            # float() reads 1_0 and a full-width 1, numpy does not.
            (self.PADDED.format("2,0.5,1_0"), "row 4: non-numeric"),
            ("1,0.5\n2,\uff11\n", "row 2: non-numeric"),
        ]
        for text, message in cases:
            p.write_text(text)
            with pytest.raises(InvalidInputError, match=message):
                load_csv(p)

    def test_bad_label_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        cases = [
            ("1.5,0.5\n", "row 1"),
            ("1.0,0.5\n", "row 1: label '1.0' is not an integer"),
            # The first line is data: a header is a bad label.
            ("label,x1\n1,0.5\n", "row 1: label 'label' is not an integer"),
            ("1,0.5\n2.9,0.5\n", "row 2: label '2.9' is not an integer"),
            (self.PADDED.format("1_0,0.5,0.5"), "row 4: label '1_0'"),
            ("0,0.5\n", "positive"),
            (self.PADDED.format("x,0.5,0.5"), "row 4: label 'x'"),
            (self.PADDED.format("-3,0.5,0.5"), "row 4: label must be positive"),
            ("1,0.5\n9223372036854775808,0.5\n", "row 2: label .* 64 bits"),
        ]
        for text, message in cases:
            p.write_text(text)
            # Python's default filters ignore DeprecationWarning outside
            # __main__; the refusal must not depend on the caller's filters.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(InvalidInputError, match=message):
                    load_csv(p)

    def test_label_read_through_float_is_refused(self, tmp_path, monkeypatch):
        # numpy releases before the deprecation expired read an int64 cell
        # such as 1.5 through float, truncate it and only warn, and only when
        # the rows they are given hold such a cell.
        real_loadtxt = np.loadtxt

        def lenient_loadtxt(rows, dtype, **kwargs):
            rows = list(rows)
            if any("1.5" in r for r in rows):
                warnings.warn(
                    "loadtxt(): Parsing an integer via a float is deprecated.",
                    DeprecationWarning,
                )
            return real_loadtxt([r.replace("1.5", "1") for r in rows], dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        p = tmp_path / "d.csv"
        p.write_text("2,0.5\n1.5,0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(InvalidInputError, match="row 2: label '1.5'"):
                load_csv(p)

    def test_non_finite_value_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(self.PADDED.format("2,0.5,nan"))
        with pytest.raises(InvalidInputError, match="row 4: non-finite value"):
            load_csv(p)

    @given(
        blank=st.sampled_from(["", "\n", "\n \t\n"]),
        row=st.integers(0, 5),
        column=st.integers(1, 2),
        label=st.sampled_from(CSV_EDGE_CELLS),
        value=st.sampled_from(CSV_EDGE_CELLS),
    )
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_loads_exactly_what_numpy_reads(self, tmp_path, blank, row, column,
                                            label, value):
        rows = [[str(1 + i % 3), str(0.5 * i), str(-i)] for i in range(6)]
        rows[row][0] = label
        rows[row][column] = value
        text = blank + "".join(",".join(cells) + "\n" for cells in rows)
        p = tmp_path / "d.csv"
        p.write_text(text)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    [line for line in text.split("\n") if line.strip()],
                    dtype=[("label", "i8"), ("x", "f8", (2,))],
                    delimiter=",", comments=None, ndmin=1,
                )
            valid = table["label"].min() >= 1 and np.isfinite(table["x"]).all()
        except (ValueError, Warning):
            valid = False
        if not valid:
            lineno = blank.count("\n") + row + 1
            with pytest.raises(InvalidInputError, match=f": row {lineno}: "):
                load_csv(p)
            return
        ds, relabel = load_csv(p)
        assert ds.samples.tobytes() == table["x"].tobytes()
        originals = sorted(set(table["label"].tolist()))
        assert relabel == {lab: new for new, lab in enumerate(originals, start=1)}
        assert ds.labels.tolist() == [relabel[lab] for lab in table["label"].tolist()]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        for text in ("", "\n  \n"):
            p.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInputError, match="no data rows"):
                    load_csv(p)

    def test_one_column_is_refused(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1\n2\n")
        with pytest.raises(InvalidInputError, match="row 1: need a label and at least one value"):
            load_csv(p)

    def test_non_utf8_file_is_refused(self, tmp_path):
        p = tmp_path / "d.csv"
        # Bad bytes at the start, and in the third row after two valid ones:
        # the rows are decoded while numpy parses them.
        for blob in (
            b"\xff\xfe" + "1,0.5\n2,1.5\n".encode("utf-16-le"),
            b"1,0.5\n2,1.5\n1,\xff0.5\n" + b"2,1.5\n" * 5000,
            # Past the first read, so numpy's parser meets the bad byte:
            # mid-file, and as the file's last byte.
            b"1,0.5\n" * 3000 + b"2,\xff1.5\n" + b"1,0.5\n" * 5,
            b"1,0.5\n" * 3000 + b"2,1.5\xff",
        ):
            p.write_bytes(blob)
            with pytest.raises(InvalidInputError, match=r"d\.csv: not UTF-8 text"):
                load_csv(p)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("2,0.5\n1,1.5\n")
        ds_plain, relabel_plain = load_csv(plain)
        crlf = b"2,0.5\r\n1,1.5\r\n"
        for body in (plain.read_bytes(), crlf, b"\r\n \t\r\n" + crlf):
            marked.write_bytes(b"\xef\xbb\xbf" + body)
            ds, relabel = load_csv(marked)
            assert np.array_equal(ds.samples, ds_plain.samples)
            assert np.array_equal(ds.labels, ds_plain.labels)
            assert relabel == relabel_plain == {1: 1, 2: 2}

    def test_rows_stream_into_the_parser(self, tmp_path):
        # 21,000 rows at m=10 (the classify-bulk file): the table is 1.8 MB.
        # Reading the whole text and a list of its lines first peaked at 9.3 MiB.
        p = tmp_path / "d.csv"
        save_csv(generate_synthetic(SynthSpec(3, 10, 7000, 6.0, 1.0, seed=1)), p)
        tracemalloc.start()
        try:
            ds, _ = load_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n == 21_000
        assert peak <= 6 * 2**20

    def test_round_trip_and_stable_bytes(self, tmp_path):
        synthetic = generate_synthetic(
            SynthSpec(2, 3, 4, separation=2.0, sigma=0.5, seed=1)
        )
        extreme = Dataset(
            np.array([
                [-0.0, 5e-324, 1e308],
                [-1e308, 0.1 + 0.2, 1.2345678901234567],
                [2.2250738585072014e-308, -5e-324, 9007199254740993.0],
            ]),
            np.array([1, 2, 1]),
        )
        p = tmp_path / "d.csv"
        for ds in (synthetic, extreme):
            save_csv(ds, p)
            first = p.read_bytes()
            back, _ = load_csv(p)
            assert back.samples.tobytes() == ds.samples.tobytes()
            assert np.array_equal(back.labels, ds.labels)
            save_csv(back, p)
            assert p.read_bytes() == first

    @pytest.mark.parametrize("dim", [1, 10, 64])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                             ids=["1", "block-1", "block", "block+1", "3*block+7"])
    def test_bytes_match_per_value_repr_writer(self, blocks, extra, dim, tmp_path):
        # save_csv converts rows in blocks of max(1, 1024 // dim); these row
        # counts put the last row on each side of a block boundary.
        n = blocks * max(1, 1024 // dim) + extra
        samples = np.resize(CSV_EDGE_VALUES, (n, dim))
        ds = Dataset(samples, 1 + np.arange(n) % min(n, 12))
        expected = "".join(
            f"{int(label)},{','.join(repr(float(v)) for v in row)}\n"
            for label, row in zip(ds.labels, ds.samples)
        )
        p = tmp_path / "d.csv"
        save_csv(ds, p)
        assert p.read_bytes() == expected.encode("utf-8")
        back, _ = load_csv(p)
        assert back.samples.tobytes() == ds.samples.tobytes()
        assert np.array_equal(back.labels, ds.labels)

    def test_sidecar(self, tmp_path):
        p = tmp_path / "d.csv"
        side = write_sidecar(p, {"rows": 4, "seed": 7})
        assert side.read_text() == "rows: 4\nseed: 7\n"


class TestSynthetic:
    def test_shape_and_labels(self):
        ds = generate_synthetic(SynthSpec(3, 5, 4, separation=2.0, sigma=1.0, seed=0))
        assert ds.n == 12 and ds.dim == 5 and ds.class_count == 3
        assert np.all(np.bincount(ds.labels)[1:] == 4)

    def test_deterministic(self):
        spec = SynthSpec(2, 3, 5, separation=1.0, sigma=0.2, seed=42)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_well_separated_classes(self):
        # With separation 10*sigma, every sample sits closer to its own mean.
        for seed in range(10):
            spec = SynthSpec(2, 10, 15, separation=10.0, sigma=1.0, seed=seed)
            ds = generate_synthetic(spec)
            means = np.stack([10.0 * np.eye(10)[0], 10.0 * np.eye(10)[1]])
            d = np.linalg.norm(ds.samples[:, None, :] - means[None], axis=2)
            assert np.array_equal(np.argmin(d, axis=1) + 1, ds.labels)

    def test_more_classes_than_dims(self):
        spec = SynthSpec(5, 3, 2, separation=4.0, sigma=0.1, seed=3)
        ds = generate_synthetic(spec)
        assert ds.class_count == 5
        for c in (4, 5):
            block = ds.samples[ds.labels == c]
            assert np.linalg.norm(block.mean(axis=0)) == pytest.approx(4.0, abs=0.5)

    def test_rejects_bad_spec(self):
        with pytest.raises(InvalidInputError):
            SynthSpec(0, 3, 2, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            SynthSpec(2, 3, 2, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            SynthSpec(2, 3, 2, -1.0, 1.0)
        with pytest.raises(InvalidInputError, match="dim must be an integer of at least 1"):
            SynthSpec(2, 0, 2, 1.0, 1.0)
        with pytest.raises(InvalidInputError, match="per_class must be an integer of at least 1"):
            SynthSpec(2, 3, 0, 1.0, 1.0)
        # A bool or a float count, and a negative seed, are refused when the
        # spec is built, not later by numpy.
        for counts, name in [((2.0, 3, 4), "class_count"), ((True, 3, 4), "class_count"),
                             ((2, 3.5, 4), "dim"), ((2, 3, False), "per_class")]:
            with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
                SynthSpec(*counts, 1.0, 1.0)
        with pytest.raises(InvalidInputError, match="seed must be a non-negative integer"):
            SynthSpec(2, 3, 4, 1.0, 1.0, seed=-1)
        with pytest.raises(InvalidInputError, match="seed must be a non-negative integer"):
            SynthSpec(2, 3, 4, 1.0, 1.0, seed=0.5)
        # numpy integers are integers.
        assert generate_synthetic(SynthSpec(np.int64(2), 3, np.int32(4), 1.0, 1.0,
                                            seed=np.uint8(1))).n == 8


class TestSplit:
    def base(self):
        return generate_synthetic(SynthSpec(3, 4, 5, separation=3.0, sigma=1.0, seed=9))

    def test_counts(self):
        tr, te = split_random(self.base(), SplitSpec(per_class_train=2, seed=0), 0)
        for c in (1, 2, 3):
            assert int(np.sum(tr.labels == c)) == 2
            assert int(np.sum(te.labels == c)) == 3

    def test_partition(self):
        ds = self.base()
        tr, te = split_random(ds, SplitSpec(per_class_train=2, seed=5), 3)
        combined = np.vstack([tr.samples, te.samples])
        key = np.lexsort(combined.T)
        key_orig = np.lexsort(ds.samples.T)
        assert np.allclose(combined[key], ds.samples[key_orig])
        assert tr.n + te.n == ds.n

    def test_deterministic_per_repetition(self):
        ds = self.base()
        spec = SplitSpec(per_class_train=2, seed=5)
        a = split_random(ds, spec, 1)
        b = split_random(ds, spec, 1)
        assert np.array_equal(a[0].samples, b[0].samples)

    def test_rows_match_recorded_draws(self):
        # Rows of self.base() drawn to train and to test for SplitSpec(2, seed=5):
        # the draws themselves are pinned, not only their determinism.
        ds = self.base()
        recorded = {0: ([3, 4, 6, 9, 10, 14], [0, 1, 2, 5, 7, 8, 11, 12, 13]),
                    1: ([0, 2, 6, 8, 10, 11], [1, 3, 4, 5, 7, 9, 12, 13, 14])}
        for repetition, rows in recorded.items():
            for part, idx in zip(split_random(ds, SplitSpec(2, seed=5), repetition), rows):
                assert np.array_equal(part.samples, ds.samples[idx])
                assert np.array_equal(part.labels, ds.labels[idx])

    def test_different_repetitions_differ(self):
        ds = self.base()
        spec = SplitSpec(per_class_train=2, seed=12345)
        a = split_random(ds, spec, 0)
        b = split_random(ds, spec, 1)
        assert not np.array_equal(a[0].samples, b[0].samples)

    def test_class_too_small_is_named(self):
        ds = self.base()
        with pytest.raises(InvalidInputError, match="class 1"):
            split_random(ds, SplitSpec(per_class_train=5, seed=0), 0)

    def test_rejects_bad_spec(self):
        with pytest.raises(InvalidInputError):
            SplitSpec(per_class_train=0)
        # True would train one sample per class, 2.5 fail later in a slice.
        for count in (True, 2.5, np.float64(2.0)):
            with pytest.raises(InvalidInputError, match="per_class_train must be an integer"):
                SplitSpec(count)
        for seed in (-1, 1.5, True):
            with pytest.raises(InvalidInputError, match="seed must be a non-negative integer"):
                SplitSpec(2, seed=seed)
        tr, _ = split_random(self.base(), SplitSpec(np.int64(2), seed=np.int64(5)), 0)
        assert tr.n == 6
