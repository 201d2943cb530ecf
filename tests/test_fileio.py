import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hankelfill import (mdt, read_image, read_mask, read_tensor, write_image, write_mask,
                        write_tensor)
from helpers import traced_peak


class TestImages:
    def test_white_ppm_reads_as_255(self, tmp_path):
        path = tmp_path / "white.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes([255] * 12))
        t = read_image(path)
        assert t.shape == (2, 2, 3)
        np.testing.assert_array_equal(t, 255.0)

    def test_pgm_roundtrip_byte_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        img = np.floor(rng.uniform(0, 256, (7, 5)))
        first = tmp_path / "a.pgm"
        second = tmp_path / "b.pgm"
        write_image(first, img)
        write_image(second, read_image(first))
        assert first.read_bytes() == second.read_bytes()

    def test_ppm_roundtrip_byte_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        img = np.floor(rng.uniform(0, 256, (4, 6, 3)))
        first = tmp_path / "a.ppm"
        second = tmp_path / "b.ppm"
        write_image(first, img)
        write_image(second, read_image(first))
        assert first.read_bytes() == second.read_bytes()

    def test_values_clamped_and_rounded_on_write(self, tmp_path):
        path = tmp_path / "clamp.pgm"
        write_image(path, np.array([[260.3, -4.0], [127.5, 127.49]]))
        t = read_image(path)
        np.testing.assert_array_equal(t, [[255.0, 0.0], [128.0, 127.0]])

    def test_infinities_clamp_like_any_value_out_of_range(self, tmp_path):
        path = tmp_path / "inf.pgm"
        write_image(path, np.array([[np.inf, -np.inf]]))
        np.testing.assert_array_equal(read_image(path), [[255.0, 0.0]])

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([7, 9]))
        np.testing.assert_array_equal(read_image(path), [[7.0, 9.0]])

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P4\n2 2\n255\n\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            read_image(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(ValueError, match="truncated"):
            read_image(path)

    def test_sixteen_bit_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="maxval"):
            read_image(path)

    @pytest.mark.parametrize("maxval", [1, 7, 15, 100])
    def test_a_low_maxval_is_mapped_onto_0_to_255(self, tmp_path, maxval):
        # white reads 255 at any maxval, and a written copy keeps its brightness
        v = np.random.default_rng(maxval).integers(0, maxval + 1, (32, 32, 3))
        v[0, 0, 0] = maxval
        path = tmp_path / "low.ppm"
        path.write_bytes(b"P6\n32 32\n%d\n" % maxval + v.astype(np.uint8).tobytes())
        t = read_image(path)
        np.testing.assert_array_equal(t, v * 255.0 / maxval)
        assert t.max() == 255.0
        write_image(tmp_path / "out.ppm", t)
        np.testing.assert_array_equal(read_image(tmp_path / "out.ppm"), np.rint(t))

    def test_a_value_above_maxval_is_an_error(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([15, 16]))
        with pytest.raises(ValueError, match="exceeds maxval 15"):
            read_image(path)

    def test_write_rejects_odd_shapes(self, tmp_path):
        with pytest.raises(ValueError, match="image"):
            write_image(tmp_path / "x.ppm", np.zeros((2, 2, 4)))

    @pytest.mark.parametrize("name, shape, suffix", [("x.pgm", (2, 3, 3), ".ppm"),
                                                     ("x.ppm", (2, 3), ".pgm")],
                             ids=["colour to pgm", "gray to ppm"])
    def test_the_extension_picks_the_image_format(self, tmp_path, name, shape, suffix):
        # a .pgm file holds gray HxW images only, a .ppm file colour HxWx3 only
        path = tmp_path / name
        message = (f"cannot write shape {shape} to {path}: an image of that shape is "
                   f"written as {suffix}")
        with pytest.raises(ValueError, match=re.escape(message)):
            write_image(path, np.zeros(shape))
        assert not path.exists()


class TestHten:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 1, 4, 2))
        path = tmp_path / "t.hten"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back, t)

    def test_vector_roundtrip(self, tmp_path):
        path = tmp_path / "v.hten"
        write_tensor(path, np.array([1.0, -2.0, 3.5]))
        np.testing.assert_array_equal(read_tensor(path), [1.0, -2.0, 3.5])

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((5, 6))
        a = tmp_path / "a.hten"
        b = tmp_path / "b.hten"
        write_tensor(a, t)
        write_tensor(b, read_tensor(a))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.hten"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="too short"):
            read_tensor(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hten"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            read_tensor(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v9.hten"
        path.write_bytes(b"HTEN" + bytes([9, 1]) + (8).to_bytes(8, "little") + bytes(64))
        with pytest.raises(ValueError, match="version"):
            read_tensor(path)

    def test_payload_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "sz.hten"
        path.write_bytes(b"HTEN" + bytes([1, 1]) + (4).to_bytes(8, "little") + bytes(16))
        with pytest.raises(ValueError, match="mismatch"):
            read_tensor(path)

    def test_linearization_first_index_fastest(self, tmp_path):
        t = np.array([[1.0, 3.0], [2.0, 4.0]])  # flat order must be 1,2,3,4
        path = tmp_path / "order.hten"
        write_tensor(path, t)
        payload = path.read_bytes()[6 + 16:]
        np.testing.assert_array_equal(np.frombuffer(payload, "<f8"), [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("layout", ["C order", "an mdt view"])
    def test_a_write_holds_one_copy_of_the_payload(self, tmp_path, layout):
        # the header goes out, then the values from one Fortran-order buffer;
        # joining the header to the values' bytes in memory held 3 payloads
        x = np.random.default_rng(5).standard_normal((120, 100, 12))
        t = x if layout == "C order" else mdt(x[:60, :50, :3], (4, 5, 1))
        path = tmp_path / "t.hten"
        _, peak = traced_peak(lambda: write_tensor(path, t))
        assert peak <= 1.1 * t.nbytes
        head = b"HTEN" + struct.pack(f"<BB{t.ndim}Q", 1, t.ndim, *t.shape)
        assert path.read_bytes() == head + np.asarray(t).ravel(order="F").astype("<f8").tobytes()


class TestMaskFiles:
    def test_pgm_mask_roundtrip(self, tmp_path):
        q = np.array([[True, False], [False, True]])
        path = tmp_path / "m.pgm"
        write_mask(path, q)
        np.testing.assert_array_equal(read_mask(path), q)

    def test_image_mask_broadcasts_to_channels(self, tmp_path):
        q = np.array([[True, False], [False, True]])
        path = tmp_path / "m.pgm"
        write_mask(path, q)
        full = read_mask(path, data_shape=(2, 2, 3))
        assert full.shape == (2, 2, 3)
        for c in range(3):
            np.testing.assert_array_equal(full[:, :, c], q)

    def test_a_maxval_1_pgm_mask_masks_the_same_entries(self, tmp_path):
        q = np.random.default_rng(5).random((5, 7)) > 0.5
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n7 5\n1\n" + q.astype(np.uint8).tobytes())
        np.testing.assert_array_equal(read_mask(path), q)

    def test_hten_mask_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        q = rng.random((3, 4, 2)) > 0.5
        path = tmp_path / "m.hten"
        write_mask(path, q)
        np.testing.assert_array_equal(read_mask(path), q)

    def test_channel_uniform_3d_mask_to_pgm(self, tmp_path):
        q2 = np.array([[True, False], [True, True]])
        q = np.repeat(q2[:, :, None], 3, axis=2)
        path = tmp_path / "m.pgm"
        write_mask(path, q)
        np.testing.assert_array_equal(read_mask(path), q2)

    def test_channel_varying_mask_rejected_for_pgm(self, tmp_path):
        q = np.ones((2, 2, 3), bool)
        q[0, 0, 1] = False
        with pytest.raises(ValueError, match="channels"):
            write_mask(tmp_path / "m.pgm", q)

    def test_a_2d_mask_to_a_ppm_path_is_an_error(self, tmp_path):
        # a .ppm file holds three channels; a 2-D mask is written as .pgm
        path = tmp_path / "m.ppm"
        with pytest.raises(ValueError, match="is written as .pgm"):
            write_mask(path, np.ones((2, 2), bool))
        assert not path.exists()

    def test_mismatched_mask_shape_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_mask(path, np.ones((2, 2), bool))
        with pytest.raises(ValueError, match="does not match"):
            read_mask(path, data_shape=(3, 3))


@settings(max_examples=100, deadline=None)
@given(values=arrays(np.float64, st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
                     elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_hten_mask_is_finite_values_read_as_nonzero(tmp_path_factory, values):
    # NaN and +-Inf say neither observed nor missing: such a file is an error,
    # never a mask that counts them as observed
    path = tmp_path_factory.mktemp("masks") / "m.hten"
    write_tensor(path, values)
    if np.isfinite(values).all():
        np.testing.assert_array_equal(read_mask(path), values != 0)
    else:
        with pytest.raises(ValueError, match="non-finite"):
            read_mask(path)


# ---------------------------------------------------------------- hostile files
# A file from outside is either read or rejected with a ValueError; a header
# must never make a reader allocate for, or unpack, what the file does not hold.

ABSURD_DIMS = (0, 2**40, 2**62, 2**63, 2**64 - 1)


@settings(max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(0, 2**64 - 1), max_size=3),
       absurd=st.sampled_from(ABSURD_DIMS), at=st.integers(0, 3),
       payload=st.binary(max_size=64))
def test_absurd_hten_dims_are_value_errors(tmp_path_factory, dims, absurd, at, payload):
    dims.insert(min(at, len(dims)), absurd)
    path = tmp_path_factory.mktemp("hten") / "t.hten"
    path.write_bytes(b"HTEN" + struct.pack(f"<BB{len(dims)}Q", 1, len(dims), *dims) + payload)
    with pytest.raises(ValueError):
        read_tensor(path)
    with pytest.raises(ValueError):
        read_mask(path)


@settings(max_examples=100, deadline=None)
@given(magic=st.sampled_from([b"P5", b"P6"]),
       sizes=st.tuples(st.sampled_from(ABSURD_DIMS + (-1, 2**64, 10**40)),
                       st.integers(1, 2**64)).flatmap(st.permutations),
       payload=st.binary(max_size=64))
def test_absurd_image_dims_are_value_errors(tmp_path_factory, magic, sizes, payload):
    path = tmp_path_factory.mktemp("pnm") / "i.pnm"
    path.write_bytes(magic + b"\n%d %d\n255\n" % tuple(sizes) + payload)
    with pytest.raises(ValueError):
        read_image(path)
    with pytest.raises(ValueError):
        read_mask(path)


VALID_FILES = {
    "ppm": (read_image, b"P6\n4 3\n255\n" + bytes(range(36))),
    "pgm": (read_image, b"P5\n# a comment\n4 3\n255\n" + bytes(range(12))),
    "hten": (read_tensor, b"HTEN" + struct.pack("<BB2Q", 1, 2, 2, 3) + np.arange(6.0).tobytes()),
}

# one edit of a valid file: cut it at a byte, overwrite a byte, or insert bytes
_mutations = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 64), st.just(b"")),
    st.tuples(st.just("set"), st.integers(0, 64), st.binary(min_size=1, max_size=1)),
    st.tuples(st.just("insert"), st.integers(0, 64), st.binary(min_size=1, max_size=12)))


def _mutate(data, edits):
    for kind, at, chunk in edits:
        at = min(at, len(data))
        if kind == "cut":
            data = data[:at]
        elif kind == "set":
            data = data[:at] + chunk + data[at + 1:]
        else:
            data = data[:at] + chunk + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(VALID_FILES)), edits=st.lists(_mutations, min_size=1,
                                                                  max_size=4))
def test_mutated_files_are_read_or_value_errors(tmp_path_factory, kind, edits):
    reader, data = VALID_FILES[kind]
    path = tmp_path_factory.mktemp("mutated") / f"m.{kind}"
    path.write_bytes(_mutate(data, edits))
    for read in (reader, read_mask):
        try:
            read(path)
        except ValueError:
            pass
