"""Byte-level fuzzing of the two container readers.

Whatever the bytes, ``nd.load_params`` and ``data.read_grid`` either parse
them or raise ``ValueError`` (``data.FormatError`` is one); any other
exception, or an allocation sized by a hostile header, fails the test.
"""

import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from icessm import data, nd
from icessm.nd import Tensor

BUDGET_S = 10.0


@pytest.fixture(scope="module", autouse=True)
def time_budget():
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < BUDGET_S, f"fuzz tests took {elapsed:.1f}s"


def _checkpoint_bytes(tmp_path) -> bytes:
    path = tmp_path / "seed.ckpt"
    nd.save_params(path, {"enc.w": Tensor(np.arange(24).reshape(2, 3, 4)),
                          "b": Tensor(np.ones(3)), "s": Tensor(np.float32(2.0))})
    return path.read_bytes()


def _grid_bytes(tmp_path) -> bytes:
    frames = np.linspace(0, 1, 3 * 4 * 5, dtype=np.float32).reshape(3, 4, 5)
    frames[1, 2, 3] = np.nan
    land = np.zeros((4, 5), dtype=bool)
    land[0, 0] = True
    path = tmp_path / "seed.sic"
    data.write_grid(data.Grid3(frames, np.array([3, 4, 6]), land), path)
    return path.read_bytes()


@st.composite
def damaged(draw, blob: bytes, header: int, word: int):
    """``blob`` truncated, with bits flipped, or with one ``word``-byte field
    of its first ``header`` bytes replaced by a large value."""
    kind = draw(st.sampled_from(["truncate", "flip", "oversize"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    if kind == "flip":
        for pos in draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=8)):
            out[pos // 8] ^= 1 << (pos % 8)
    else:
        at = draw(st.integers(0, header - word))
        value = draw(st.integers(2 ** (8 * word - 16), 2 ** (8 * word) - 1))
        out[at:at + word] = value.to_bytes(word, "little")
    return bytes(out)


def _parse_or_reject(read, path, blob):
    # a fresh file per example: truncating the last example's file may wait
    # for its blocks to reach the disk (ext4's auto_da_alloc)
    path.unlink(missing_ok=True)
    path.write_bytes(blob)
    try:
        read(path)
    except ValueError:
        pass


FUZZ = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCheckpointBytes:
    @FUZZ
    @given(st.data())
    def test_damaged_checkpoint(self, tmp_path, data_):
        blob = _checkpoint_bytes(tmp_path)
        header = len(blob) - 4 * (24 + 3 + 1)
        _parse_or_reject(nd.load_params, tmp_path / "x.ckpt",
                         data_.draw(damaged(blob, header, 8)))

    @FUZZ
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes(self, tmp_path, blob):
        _parse_or_reject(nd.load_params, tmp_path / "x.ckpt", blob)

    def test_huge_dims_do_not_wrap(self, tmp_path):
        # 2^32 * 2^32 wraps to 0 in int64; the payload size must not
        path = tmp_path / "x.ckpt"
        path.write_bytes(struct.pack("<QQ1sQ2Q", 1, 1, b"w", 2, 2 ** 32, 2 ** 32))
        with pytest.raises(ValueError, match="truncated"):
            nd.load_params(path)


class TestGridBytes:
    @FUZZ
    @given(st.data())
    def test_damaged_grid(self, tmp_path, data_):
        blob = _grid_bytes(tmp_path)
        header = len(data.MAGIC) + 12
        _parse_or_reject(data.read_grid, tmp_path / "x.sic",
                         data_.draw(damaged(blob, header, 4)))

    @FUZZ
    @given(st.binary(max_size=256).map(lambda b: data.MAGIC + b))
    def test_arbitrary_bytes_after_magic(self, tmp_path, blob):
        _parse_or_reject(data.read_grid, tmp_path / "x.sic", blob)
