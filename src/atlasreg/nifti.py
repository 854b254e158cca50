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
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    InvalidInputError,
    NiftiFormatError,
    TruncatedFileError,
    UnsupportedDatatypeError,
    UnsupportedDimensionalityError,
    is_integer,
    require_type,
)
from .volume import LabelVolume, Volume

HEADER_SIZE = 348
# The header fields this module reads or writes, little-endian, at their
# byte offsets; `.newbyteorder(">")` gives the big-endian layout.
_HEADER = np.dtype({
    "names": ["sizeof_hdr", "dim", "datatype", "bitpix", "pixdim", "vox_offset", "scl_slope",
              "scl_inter", "qform_code", "sform_code", "quatern", "qoffset", "srow", "magic"],
    "formats": ["<i4", "(8,)<i2", "<i2", "<i2", "(8,)<f4", "<f4", "<f4",
                "<f4", "<i2", "<i2", "(3,)<f4", "(3,)<f4", "(3,4)<f4", "V4"],
    "offsets": [0, 40, 70, 72, 76, 108, 112, 116, 252, 254, 256, 268, 280, 344],
})

_DTYPES = {2: np.dtype(np.uint8), 4: np.dtype(np.int16), 16: np.dtype(np.float32)}


def _quaternion_direction(bcd, qfac) -> np.ndarray:
    """The direction of NIfTI-1 method 2: the rotation of the unit quaternion
    (a, b, c, d) with a = sqrt(1 - b^2 - c^2 - d^2), or a = 0 and (b, c, d)
    normalised when that is below 1e-7, its third column negated when
    qfac (pixdim[0]) is negative."""
    rest = 1.0 - bcd @ bcd
    a, b, c, d = math.sqrt(rest) if rest >= 1e-7 else 0.0, *bcd
    n2 = a * a + b * b + c * c + d * d
    rotation = np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
    ]) / n2
    return rotation * (1.0, 1.0, -1.0 if qfac < 0 else 1.0)


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
    optional `label_remap` table of integers to integers, e.g. {200: 1,
    500: 2, 600: 3}, which leaves the values it does not name as they are)
    against the internal class ids and a LabelVolume is returned.

    The origin and direction come from the sform when sform_code > 0, else
    from the qform when qform_code > 0 (NIfTI-1 method 2: the quaternion
    rotation, qfac = pixdim[0], the qoffset), else they are the identity at
    origin 0. The reader checks the file format: header fields, datatype,
    payload length, an srow matrix it can normalise and a finite
    quaternion. The volume types check the
    values (finite voxels, class ids, spacing, orthonormal direction), and
    their InvalidInputError is raised as a NiftiFormatError naming the path.
    """
    require_type((str, os.PathLike), path=path)
    require_type(bool, labels=labels)
    require_type((dict, type(None)), label_remap=label_remap)
    if label_remap and not all(map(is_integer, [*label_remap, *label_remap.values()])):
        raise InvalidInputError(f"label_remap must map integers to integers, got {label_remap!r}")
    raw = _read_bytes(path)
    if len(raw) < HEADER_SIZE:
        raise TruncatedFileError(f"{path}: file shorter than the 348-byte header")

    # a big-endian sizeof_hdr reads as 348 byte-swapped
    hdr = np.frombuffer(raw, _HEADER, count=1)[0]
    order = ">" if hdr["sizeof_hdr"].byteswap() == HEADER_SIZE else "<"
    hdr = np.frombuffer(raw, _HEADER.newbyteorder(order), count=1)[0]
    if hdr["sizeof_hdr"] != HEADER_SIZE:
        raise NiftiFormatError(f"{path}: sizeof_hdr is {hdr['sizeof_hdr']}, expected 348")

    magic = hdr["magic"].tobytes()
    if magic != b"n+1\x00":
        raise NiftiFormatError(
            f"{path}: magic {magic!r} is not the single-file NIfTI-1 magic"
        )

    dim = hdr["dim"]
    if dim[0] != 3:
        raise UnsupportedDimensionalityError(
            f"{path}: dim[0] is {dim[0]}, only 3D volumes are supported"
        )
    dims = tuple(int(d) for d in dim[1:4])
    if any(d <= 0 for d in dims):
        raise NiftiFormatError(f"{path}: non-positive dims {dims}")

    datatype = int(hdr["datatype"])
    if datatype not in _DTYPES:
        raise UnsupportedDatatypeError(f"{path}: unsupported datatype code {datatype}")

    spacing = tuple(abs(float(p)) if p != 0 else 1.0 for p in hdr["pixdim"][1:4])
    vox_offset = float(hdr["vox_offset"])
    if not HEADER_SIZE <= vox_offset < math.inf:
        raise NiftiFormatError(f"{path}: vox_offset {vox_offset} does not point past the header")
    scl_slope, scl_inter = hdr["scl_slope"], hdr["scl_inter"]

    origin = np.zeros(3)
    direction = np.eye(3)
    if hdr["sform_code"] > 0:
        srow = hdr["srow"].astype(np.float64)
        origin = srow[:, 3].copy()
        m = srow[:, :3]
        norms = np.linalg.norm(m, axis=0)
        if not np.all(np.isfinite(srow)) or np.any(norms <= 0):
            raise NiftiFormatError(f"{path}: degenerate srow matrix")
        direction = m / norms
    elif hdr["qform_code"] > 0:
        bcd = hdr["quatern"].astype(np.float64)
        if not np.all(np.isfinite(bcd)):
            raise NiftiFormatError(f"{path}: quaternion is not finite")
        origin = hdr["qoffset"].astype(np.float64)
        direction = _quaternion_direction(bcd, hdr["pixdim"][0])

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

    hdr = np.zeros((), _HEADER)  # scl_slope/inter and qform_code stay 0, unset
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["dim"] = (3, *vol.dims, 1, 1, 1, 1)
    hdr["datatype"] = datatype
    hdr["bitpix"] = 8 * _DTYPES[datatype].itemsize
    hdr["pixdim"] = (1.0, *vol.spacing, 0.0, 0.0, 0.0, 0.0)
    hdr["vox_offset"] = 352.0
    hdr["sform_code"] = 1
    hdr["srow"] = np.column_stack([vol.direction @ np.diag(vol.spacing), vol.origin])
    hdr["magic"] = b"n+1\x00"

    payload = vol.data.astype(_DTYPES[datatype].newbyteorder("<")).tobytes(order="F")
    with open(path, "wb") as fh:
        fh.write(hdr.tobytes())
        fh.write(b"\x00\x00\x00\x00")  # empty extension flag, pads to vox_offset 352
        fh.write(payload)
