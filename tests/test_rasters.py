"""File IO: PGM/PPM round trips, label loading, heatmaps, CSV exports."""

import numpy as np
import numpy.testing as npt
import pytest

from rowgate.errors import DataError
from rowgate.rasters import (
    load_label_dir,
    read_label_map,
    read_pgm,
    read_ppm,
    unit_to_u8,
    write_attention_csv,
    write_attention_pgm,
    write_pgm,
    write_ppm,
)


class TestPGM:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(7, 5)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, image)
        npt.assert_array_equal(read_pgm(path), image)

    def test_ascii_variant(self, tmp_path):
        """Only binary PGM is read, as write_pgm writes it; an ascii (P2) file is refused."""
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 1 2\n3 4 255\n")
        with pytest.raises(DataError, match="expected P5 PGM"):
            read_pgm(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(DataError):
            read_pgm(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm(tmp_path / "b.pgm", np.zeros((2, 2), dtype=np.float64))


def pnm_bytes(fmt, magic=None, width=2, height=2, maxval=255, short=False) -> bytes:
    """A 2x2 ``fmt`` file (P5 or P6) whose header may lie about a field."""
    count = 12 if fmt == "P6" else 4
    return f"{magic or fmt}\n{width} {height}\n{maxval}\n".encode() + bytes(range(count - 1 if short else count))


# each header field corrupted in turn, and the error text that names it
HEADER_CORRUPTIONS = {
    "magic": (dict(magic="P9"), "expected"),
    "width": (dict(width=0), "width is 0"),
    "height": (dict(height=0), "height is 0"),
    "maxval": (dict(maxval=0), "maxval is 0"),
    "payload": (dict(short=True), "truncated"),
}


class TestCorruptHeaders:
    @pytest.mark.parametrize("fmt", ["P5", "P6"])
    def test_intact_file_reads(self, tmp_path, fmt):
        path = tmp_path / "ok.pnm"
        path.write_bytes(pnm_bytes(fmt))
        image = read_ppm(path) if fmt == "P6" else read_pgm(path)
        assert image.size == (12 if fmt == "P6" else 4)

    @pytest.mark.parametrize("field", list(HEADER_CORRUPTIONS))
    @pytest.mark.parametrize("fmt", ["P5", "P6"])
    def test_each_field_rejected(self, tmp_path, fmt, field):
        corruption, message = HEADER_CORRUPTIONS[field]
        path = tmp_path / "bad.pnm"
        path.write_bytes(pnm_bytes(fmt, **corruption))
        with pytest.raises(DataError, match=message):
            read_ppm(path) if fmt == "P6" else read_pgm(path)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(DataError, match="gone.pgm"):
            read_pgm(tmp_path / "gone.pgm")


class TestPPM:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(3, 4, 6)).astype(np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, image)
        npt.assert_array_equal(read_ppm(path), image)

    @pytest.mark.parametrize("maxval", [15, 254])
    def test_maxval_other_than_255_rejected(self, tmp_path, maxval):
        """Every caller scales by 255, so a white maxval-15 pixel would read as 15/255."""
        path = tmp_path / "x.ppm"
        path.write_bytes(pnm_bytes("P6", maxval=maxval))
        with pytest.raises(DataError, match=f"maxval {maxval}"):
            read_ppm(path)


class TestLabelLoading:
    def test_pgm_label_map(self, tmp_path):
        ids = np.array([[0, 1], [255, 2]], dtype=np.uint8)
        write_pgm(tmp_path / "labels.pgm", ids)
        label_map = read_label_map(tmp_path / "labels.pgm")
        npt.assert_array_equal(label_map.ids, ids)
        assert label_map.name == "labels.pgm"

    def test_png_label_map(self, tmp_path):
        pil = pytest.importorskip("PIL.Image")
        ids = np.array([[0, 3], [255, 1]], dtype=np.uint8)
        pil.fromarray(ids, mode="L").save(tmp_path / "labels.png")
        npt.assert_array_equal(read_label_map(tmp_path / "labels.png").ids, ids)

    def test_directory_loading_is_sorted(self, tmp_path):
        for name in ("b.pgm", "a.pgm"):
            write_pgm(tmp_path / name, np.zeros((2, 2), dtype=np.uint8))
        maps = load_label_dir(tmp_path)
        assert [m.name for m in maps] == ["a.pgm", "b.pgm"]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_label_dir(tmp_path)

    def test_unreadable_files_listed(self, tmp_path):
        write_pgm(tmp_path / "good.pgm", np.zeros((2, 2), dtype=np.uint8))
        (tmp_path / "bad.pgm").write_bytes(b"P5\n9 9\n255\nxx")
        with pytest.raises(DataError, match="bad.pgm"):
            load_label_dir(tmp_path)


class TestHeatmapAndCSV:
    def test_unit_scaling(self):
        npt.assert_array_equal(unit_to_u8(np.array([[0.0, 0.5, 1.0]])), [[0, 128, 255]])
        npt.assert_array_equal(unit_to_u8(np.array([[-0.2, 1.4]])), [[0, 255]])

    def test_attention_exports(self, tmp_path):
        rng = np.random.default_rng(2)
        attention = rng.uniform(0.01, 0.99, size=(4, 6))  # channels x height
        write_attention_csv(tmp_path / "a.csv", attention)
        write_attention_pgm(tmp_path / "a.pgm", attention)

        rows = (tmp_path / "a.csv").read_text().strip().splitlines()
        assert len(rows) == 6  # one row per image row
        parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert parsed.shape == (6, 4)
        npt.assert_allclose(parsed, attention.T, rtol=1e-5)  # 6 significant digits
        assert np.all((parsed > 0) & (parsed < 1))

        image = read_pgm(tmp_path / "a.pgm")
        assert image.shape == (6, 4)
        npt.assert_array_equal(image, unit_to_u8(attention.T))
