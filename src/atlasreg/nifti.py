"""Single-file NIfTI-1 (.nii, optionally gzipped) reading and writing.

Only the subset needed for 3D scalar volumes is handled: datatype codes
2 (uint8), 4 (int16) and 16 (float32), dim[0] = 3, single-file magic "n+1".
Gzipped input is decompressed transparently; output is always uncompressed.
Voxel data is stored x-fastest, matching the on-disk layout.
"""
from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    InvalidInputError,
    NiftiFormatError,
    TruncatedFileError,
    UnsupportedDatatypeError,
    UnsupportedDimensionalityError,
    require_type,
)
from .volume import LabelVolume, Volume

HEADER_SIZE = 348
# sizeof_hdr (=348) read with the wrong byte order comes out as this value.
_SWAPPED_SIZEOF_HDR = 1543569408

_DTYPES = {2: np.dtype(np.uint8), 4: np.dtype(np.int16), 16: np.dtype(np.float32)}
_BITPIX = {2: 8, 4: 16, 16: 32}


def _read_bytes(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except EOFError as exc:
            raise TruncatedFileError(f"{path}: gzip stream is truncated") from exc
        except (gzip.BadGzipFile, zlib.error) as exc:
            raise NiftiFormatError(f"{path}: gzip stream is corrupt: {exc}") from exc
    return raw


def read_nifti(path, *, labels: bool = False, label_remap: dict | None = None):
    """Parse a single-file NIfTI-1 volume.

    With labels=True the voxel values are validated (after applying the
    optional `label_remap` table, e.g. {200: 1, 500: 2, 600: 3}, which leaves
    the values it does not name as they are) against the internal class ids
    and a LabelVolume is returned.

    The reader checks the file format: header fields, datatype, payload
    length and an srow matrix it can normalise. The volume types check the
    values (finite voxels, class ids, spacing, orthonormal direction), and
    their InvalidInputError is raised as a NiftiFormatError naming the path.
    """
    require_type((str, os.PathLike), path=path)
    require_type(bool, labels=labels)
    require_type((dict, type(None)), label_remap=label_remap)
    raw = _read_bytes(path)
    if len(raw) < HEADER_SIZE:
        raise TruncatedFileError(f"{path}: file shorter than the 348-byte header")

    order = "<"
    (sizeof_hdr,) = struct.unpack_from("<i", raw, 0)
    if sizeof_hdr == _SWAPPED_SIZEOF_HDR:
        order = ">"
        (sizeof_hdr,) = struct.unpack_from(">i", raw, 0)
    if sizeof_hdr != HEADER_SIZE:
        raise NiftiFormatError(f"{path}: sizeof_hdr is {sizeof_hdr}, expected 348")

    magic = raw[344:348]
    if magic != b"n+1\x00":
        raise NiftiFormatError(
            f"{path}: magic {magic!r} is not the single-file NIfTI-1 magic"
        )

    dim = struct.unpack_from(f"{order}8h", raw, 40)
    if dim[0] != 3:
        raise UnsupportedDimensionalityError(
            f"{path}: dim[0] is {dim[0]}, only 3D volumes are supported"
        )
    dims = tuple(int(d) for d in dim[1:4])
    if any(d <= 0 for d in dims):
        raise NiftiFormatError(f"{path}: non-positive dims {dims}")

    (datatype,) = struct.unpack_from(f"{order}h", raw, 70)
    if datatype not in _DTYPES:
        raise UnsupportedDatatypeError(f"{path}: unsupported datatype code {datatype}")

    pixdim = struct.unpack_from(f"{order}8f", raw, 76)
    spacing = tuple(abs(float(p)) if p != 0 else 1.0 for p in pixdim[1:4])
    (vox_offset,) = struct.unpack_from(f"{order}f", raw, 108)
    if not HEADER_SIZE <= vox_offset < math.inf:
        raise NiftiFormatError(f"{path}: vox_offset {vox_offset} does not point past the header")
    scl_slope, scl_inter = struct.unpack_from(f"{order}2f", raw, 112)
    (sform_code,) = struct.unpack_from(f"{order}h", raw, 254)

    origin = np.zeros(3)
    direction = np.eye(3)
    if sform_code > 0:
        srow = np.array(struct.unpack_from(f"{order}12f", raw, 280), dtype=np.float64)
        srow = srow.reshape(3, 4)
        origin = srow[:, 3].copy()
        m = srow[:, :3]
        norms = np.linalg.norm(m, axis=0)
        if not np.all(np.isfinite(srow)) or np.any(norms <= 0):
            raise NiftiFormatError(f"{path}: degenerate srow matrix")
        direction = m / norms

    dtype = _DTYPES[datatype].newbyteorder(order)
    count = dims[0] * dims[1] * dims[2]
    offset = int(vox_offset)
    need = offset + count * dtype.itemsize
    if len(raw) < need:
        raise TruncatedFileError(
            f"{path}: payload truncated ({len(raw)} bytes, need {need})"
        )
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    data = flat.reshape(dims, order="F")

    if labels:
        kind = LabelVolume
        if label_remap:
            # a value the table does not name passes through, to be validated
            out = data.astype(np.float64)
            for src, dst in label_remap.items():
                out[data == src] = dst
            data = out
    else:
        kind = Volume
        data = data.astype(np.float32)
        if scl_slope != 0.0 and not (scl_slope == 1.0 and scl_inter == 0.0):
            with np.errstate(over="ignore", invalid="ignore"):  # Volume rejects NaN and Inf
                data = data * np.float32(scl_slope) + np.float32(scl_inter)
    try:
        return kind(data, spacing, origin, direction)
    except InvalidInputError as exc:
        raise NiftiFormatError(f"{path}: {exc}") from exc


def write_nifti(vol, path) -> None:
    """Write a Volume (float32) or LabelVolume (uint8) as little-endian NIfTI-1."""
    require_type((Volume, LabelVolume), vol=vol)
    require_type((str, os.PathLike), path=path)
    datatype = 2 if isinstance(vol, LabelVolume) else 16

    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, *vol.dims, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, datatype)
    struct.pack_into("<h", hdr, 72, _BITPIX[datatype])
    struct.pack_into("<8f", hdr, 76, 1.0, *vol.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)  # vox_offset
    struct.pack_into("<2f", hdr, 112, 0.0, 0.0)  # scl_slope/inter unset
    struct.pack_into("<h", hdr, 252, 0)  # qform_code
    struct.pack_into("<h", hdr, 254, 1)  # sform_code
    srow = vol.direction @ np.diag(vol.spacing)
    for r in range(3):
        struct.pack_into("<4f", hdr, 280 + 16 * r, *srow[r], vol.origin[r])
    hdr[344:348] = b"n+1\x00"

    payload = vol.data.astype(_DTYPES[datatype].newbyteorder("<")).tobytes(order="F")
    with open(path, "wb") as fh:
        fh.write(bytes(hdr))
        fh.write(b"\x00\x00\x00\x00")  # empty extension flag, pads to vox_offset 352
        fh.write(payload)
