"""File formats: binary PPM/PGM images and the HTEN dense-tensor container.

HTEN layout (all integers little-endian):

    bytes 0-3   magic "HTEN"
    byte  4     format version, currently 1
    byte  5     tensor order N (1..255)
    next 8*N    dims, uint64 each
    rest        prod(dims) float64 values, first index varying fastest

Images are 8-bit binary P5 (grayscale, HxW) or P6 (color, HxWx3); pixel
values v are read as float64 v * 255 / maxval and written clamped-rounded to
[0, 255] under maxval 255.  Masks ride either format: nonzero means observed.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import as_mask, check_shape

HTEN_MAGIC = b"HTEN"
HTEN_VERSION = 1
_IMAGE_MAXVAL = 255


# ---------------------------------------------------------------- images

def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines, then read one token
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated image header")
    return buf[start:pos], pos


def read_image(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file into a float64 tensor.

    P5 yields shape (H, W); P6 yields (H, W, 3).  A pixel value v reads as
    v * 255 / maxval (white is 255 at any maxval); one above maxval is an error.
    """
    buf = Path(path).read_bytes()
    magic, pos = _next_token(buf, 0)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ValueError(f"unsupported image magic {magic!r} (want binary P5 or P6)")
    width_tok, pos = _next_token(buf, pos)
    height_tok, pos = _next_token(buf, pos)
    maxval_tok, pos = _next_token(buf, pos)
    try:
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except ValueError:
        raise ValueError("malformed image header: non-numeric dimension") from None
    if width < 1 or height < 1:
        raise ValueError(f"invalid image size {width}x{height}")
    if not 0 < maxval <= _IMAGE_MAXVAL:
        raise ValueError(f"unsupported maxval {maxval} (only 8-bit images are handled)")
    pos += 1  # single whitespace byte after the header
    payload = buf[pos:pos + width * height * channels]
    if len(payload) != width * height * channels:
        raise ValueError(f"truncated payload: expected {width * height * channels} bytes, "
                         f"got {len(payload)}")
    data = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    if maxval != _IMAGE_MAXVAL:
        if data.max() > maxval:
            raise ValueError(f"pixel value {data.max():.0f} exceeds maxval {maxval}")
        data = data * _IMAGE_MAXVAL / maxval
    if channels == 1:
        return data.reshape(height, width)
    return data.reshape(height, width, 3)


def _image_magic(path, shape) -> bytes:
    """P5 for an HxW shape tuple, P6 for HxWx3, else a ValueError (the CLI checks early).

    The path's extension picks the format: a .pgm path takes HxW only, a
    .ppm path HxWx3 only.
    """
    if not (len(shape) == 2 or shape[2:] == (3,)):
        raise ValueError(f"cannot write shape {shape} as an image (want HxW or HxWx3)")
    magic, suffix, other = (b"P5", ".pgm", ".ppm") if len(shape) == 2 else (b"P6", ".ppm", ".pgm")
    if str(path).endswith(other):
        raise ValueError(f"cannot write shape {shape} to {path}: an image of that shape "
                         f"is written as {suffix}")
    return magic


def write_image(path, t: np.ndarray) -> None:
    """Write a tensor as binary PGM (2-D input) or PPM (HxWx3 input).

    Values are rounded to the nearest integer and clamped to [0, 255], so
    +Inf writes 255 and -Inf writes 0 like any value out of range; NaN has
    no pixel value and is a ValueError, raised before any byte is written.
    A .pgm path refuses HxWx3 input and a .ppm path HxW input.
    """
    t = np.asarray(t, dtype=np.float64)
    magic = _image_magic(path, t.shape)
    nans = int(np.count_nonzero(np.isnan(t)))
    if nans:
        raise ValueError(f"an image cannot hold NaN: {nans} of {t.size} values are NaN")
    height, width = t.shape[:2]
    pixels = np.clip(np.rint(t), 0, _IMAGE_MAXVAL).astype(np.uint8)
    header = magic + b"\n" + f"{width} {height}\n{_IMAGE_MAXVAL}\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


# ---------------------------------------------------------------- tensors

def write_tensor(path, t: np.ndarray) -> None:
    """Write a dense float64 tensor in the HTEN container (lossless).

    The header goes out first, then the values from one buffer: the
    tensor's own where it is Fortran-ordered, else a single Fortran-order
    copy, so a write holds at most one copy of the payload.
    """
    t = np.asarray(t, dtype=np.float64)
    shape = check_shape(t.shape)
    if len(shape) > 255:
        raise ValueError(f"order {len(shape)} exceeds the container limit of 255")
    head = HTEN_MAGIC + struct.pack("<BB", HTEN_VERSION, len(shape))
    head += struct.pack(f"<{len(shape)}Q", *shape)
    values = t.ravel(order="F").astype("<f8", copy=False)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(values.data)


def read_tensor(path) -> np.ndarray:
    """Read an HTEN container back into a float64 tensor."""
    buf = Path(path).read_bytes()
    if len(buf) < 6:
        raise ValueError("file too short to be an HTEN tensor")
    if buf[:4] != HTEN_MAGIC:
        raise ValueError(f"bad magic {buf[:4]!r}, expected {HTEN_MAGIC!r}")
    version, order = struct.unpack_from("<BB", buf, 4)
    if version != HTEN_VERSION:
        raise ValueError(f"unsupported HTEN version {version}")
    if order < 1:
        raise ValueError("tensor order must be >= 1")
    dims_end = 6 + 8 * order
    if len(buf) < dims_end:
        raise ValueError("truncated HTEN header")
    shape = check_shape(struct.unpack_from(f"<{order}Q", buf, 6))
    count = int(np.prod(shape, dtype=np.int64))
    expected = dims_end + 8 * count
    if len(buf) != expected:
        raise ValueError(f"payload size mismatch: file has {len(buf) - dims_end} bytes, "
                         f"dims {shape} require {8 * count}")
    values = np.frombuffer(buf, dtype="<f8", offset=dims_end, count=count)
    return np.asarray(values, dtype=np.float64).reshape(shape, order="F")


# ---------------------------------------------------------------- any format

def _read_any(path) -> np.ndarray:
    """An image or an HTEN tensor, told apart by the file's leading bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head[:2] in (b"P5", b"P6"):
        return read_image(path)
    if head == HTEN_MAGIC:
        return read_tensor(path)
    raise ValueError(f"unrecognized file format for {path} (leading bytes {head!r})")


def _is_image_path(path) -> bool:
    return str(path).endswith((".ppm", ".pgm"))


def _write_any(path, t: np.ndarray) -> None:
    """An image for paths ending .ppm/.pgm, an HTEN tensor for any other."""
    (write_image if _is_image_path(path) else write_tensor)(path, t)


# ---------------------------------------------------------------- masks

def read_mask(path, data_shape=None) -> np.ndarray:
    """Read an observation mask from a PGM/PPM (nonzero = observed) or HTEN file.

    A mask holding NaN or +-Inf, which only an HTEN file can, is rejected:
    such a value says neither observed nor missing.

    A 2-D image mask is broadcast along trailing modes when ``data_shape``
    says the data carries extra channels (e.g. HxW mask for HxWx3 data).
    """
    values = _read_any(path)
    if not np.isfinite(values).all():
        raise ValueError(f"mask {path} holds non-finite values; "
                         "want 0 for missing and a finite nonzero for observed")
    q = as_mask(values != 0)
    if data_shape is not None:
        data_shape = check_shape(data_shape)
        if q.shape != data_shape:
            if q.shape == data_shape[:q.ndim]:
                q = np.broadcast_to(q.reshape(q.shape + (1,) * (len(data_shape) - q.ndim)),
                                    data_shape).copy()
            else:
                raise ValueError(f"mask shape {q.shape} does not match data shape {data_shape}")
    return q


def write_mask(path, q: np.ndarray) -> None:
    """Write a mask as an image of 0/255 (paths ending .ppm/.pgm) or as HTEN 0/1.

    A PGM holds one channel: a mask of three equal channels is written as
    one, and one whose channels differ is rejected.
    """
    q = as_mask(q)
    if str(path).endswith(".pgm") and q.ndim == 3:
        if not (q == q[:, :, :1]).all():
            raise ValueError("mask varies across channels; PGM cannot represent it")
        q = q[:, :, 0]
    _write_any(path, q * (float(_IMAGE_MAXVAL) if _is_image_path(path) else 1.0))
