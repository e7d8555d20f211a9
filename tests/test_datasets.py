"""Dataset ingestion tests: CSV parsing and relabeling, the PGM reader and
bilinear resize, synthetic generators, and the split protocol."""

import warnings

import numpy as np
import pytest

from dqml import datasets
from dqml.datasets import (
    SplitSpec,
    SynthSpec,
    bilinear_resize,
    generate_synthetic,
    load_csv,
    load_raster_dir,
    save_csv,
    split_random,
    write_sidecar,
)
from dqml.errors import InvalidInputError
from dqml.pipeline import Dataset


class TestCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        for text in ("1,0.5,0.5\n2,1,0\n", " 1 , 0.5,\t0.5 \n\n \t \n2,1 ,0\n"):
            p.write_text(text)
            ds, relabel = load_csv(p)
            assert ds.n == 2 and ds.dim == 2 and ds.class_count == 2
            assert relabel == {1: 1, 2: 2}
            assert ds.samples.tolist() == [[0.5, 0.5], [1.0, 0.0]]

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
        # such as 1.5 through float, truncate it and only warn.
        real_loadtxt = np.loadtxt

        def lenient_loadtxt(rows, dtype, **kwargs):
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
        p.write_bytes(b"\xff\xfe" + "1,0.5\n2,1.5\n".encode("utf-16-le"))
        with pytest.raises(InvalidInputError, match=r"d\.csv: not UTF-8 text"):
            load_csv(p)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("2,0.5\n1,1.5\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        (ds, relabel), (ds_plain, relabel_plain) = load_csv(marked), load_csv(plain)
        assert np.array_equal(ds.samples, ds_plain.samples)
        assert np.array_equal(ds.labels, ds_plain.labels)
        assert relabel == relabel_plain == {1: 1, 2: 2}

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

    def test_sidecar(self, tmp_path):
        p = tmp_path / "d.csv"
        side = write_sidecar(p, {"rows": 4, "seed": 7})
        assert side.read_text() == "rows: 4\nseed: 7\n"


def write_pgm(path, array, ascii_format=False, maxval=255):
    h, w = array.shape
    if ascii_format:
        body = "\n".join(" ".join(str(int(v)) for v in row) for row in array)
        path.write_text(f"P2\n{w} {h}\n{maxval}\n{body}\n")
    else:
        header = f"P5\n{w} {h}\n{maxval}\n".encode()
        path.write_bytes(header + array.astype(np.uint8).tobytes())


class TestRaster:
    def make_tree(self, root, images):
        for cls, arrays in images.items():
            d = root / cls
            d.mkdir(parents=True)
            for i, arr in enumerate(arrays):
                write_pgm(d / f"{i}.pgm", arr)

    def test_native_size_is_raw_pixels(self, tmp_path):
        img = np.arange(32 * 32, dtype=np.uint8).reshape(32, 32) % 251
        self.make_tree(tmp_path, {"a": [img], "b": [img]})
        ds, skipped, cmap = load_raster_dir(tmp_path)
        assert skipped == 0
        assert cmap == {"a": 1, "b": 2}
        assert np.allclose(ds.samples[0], img.reshape(-1) / 255.0)

    def test_constant_image_any_size(self, tmp_path):
        img = np.full((64, 64), 37, dtype=np.uint8)
        self.make_tree(tmp_path, {"only": [img, img]})
        ds, _, _ = load_raster_dir(tmp_path)
        assert ds.dim == 1024
        assert np.allclose(ds.samples, 37.0 / 255.0)

    def test_ascii_variant(self, tmp_path):
        d = tmp_path / "c1"
        d.mkdir()
        img = np.full((32, 32), 10)
        write_pgm(d / "x.pgm", img, ascii_format=True)
        (tmp_path / "c2").mkdir()
        write_pgm(tmp_path / "c2" / "y.pgm", img)
        ds, skipped, _ = load_raster_dir(tmp_path)
        assert skipped == 0
        assert np.allclose(ds.samples, 10.0 / 255.0)

    def test_bad_file_is_skipped_with_warning(self, tmp_path):
        img = np.full((32, 32), 5, dtype=np.uint8)
        self.make_tree(tmp_path, {"a": [img], "b": [img]})
        (tmp_path / "a" / "junk.pgm").write_bytes(b"not a raster")
        ds, skipped, _ = load_raster_dir(tmp_path)
        assert skipped == 1
        assert ds.n == 2

    def test_empty_class_dir_is_invalid(self, tmp_path):
        img = np.full((32, 32), 5, dtype=np.uint8)
        self.make_tree(tmp_path, {"a": [img]})
        (tmp_path / "b").mkdir()
        with pytest.raises(InvalidInputError, match="no usable image"):
            load_raster_dir(tmp_path)

    def test_no_class_dirs(self, tmp_path):
        with pytest.raises(InvalidInputError, match="no class subdirectories"):
            load_raster_dir(tmp_path)

    def test_zero_dimension_image_is_skipped(self, tmp_path):
        img = np.full((32, 32), 5, dtype=np.uint8)
        self.make_tree(tmp_path, {"a": [img, img]})
        (tmp_path / "a" / "zz.pgm").write_bytes(b"P5\n0 4\n255\n")
        _, skipped, _ = load_raster_dir(tmp_path)
        assert skipped == 1

    def test_header_comments_are_skipped(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
        plain, commented = tmp_path / "plain.pgm", tmp_path / "commented.pgm"
        write_pgm(plain, img)
        commented.write_bytes(
            b"P5\n# written by a scanner\n4 3\n#  second comment\n255\n" + img.tobytes()
        )
        expected = datasets._read_pgm(plain)
        assert np.array_equal(expected, img.astype(float))
        assert np.array_equal(datasets._read_pgm(commented), expected)

    @pytest.mark.parametrize("blob, message", [
        (b"P6\n2 2\n255\n" + bytes(12), "not a supported raster format"),
        (b"P5\n2 x\n255\n" + bytes(4), "malformed raster header"),
        (b"P5\n2 2\n65535\n" + bytes(8), "only 8-bit rasters"),
        (b"P5\n2 2\n255\n" + bytes(3), "pixel data ends early"),
        (b"P2\n2 2\n255\n1 2 x 4\n", "non-integer ASCII pixel"),
        (b"P2\n2 2\n255\n1 2 3\n", "pixel data ends early"),
        (b"P2\n2 2\n10\n1 2 3 11\n", "pixel value exceeds declared maximum"),
    ])
    def test_read_pgm_refusals(self, blob, message, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(InvalidInputError, match=message):
            datasets._read_pgm(path)

    def test_values_lie_in_unit_interval(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(48, 40)).astype(np.uint8)
        self.make_tree(tmp_path, {"a": [img]})
        ds, _, _ = load_raster_dir(tmp_path)
        assert ds.samples.min() >= 0.0 and ds.samples.max() <= 1.0


class TestBilinear:
    def test_identity_at_same_size(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(7, 5))
        assert np.array_equal(bilinear_resize(img, 7, 5), img)

    def test_constant_preserved(self):
        img = np.full((6, 9), 3.7)
        assert np.allclose(bilinear_resize(img, 13, 4), 3.7)

    def test_ramp_upsample(self):
        img = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = bilinear_resize(img, 2, 4)
        assert np.allclose(out[0], [0.0, 0.25, 0.75, 1.0])


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
