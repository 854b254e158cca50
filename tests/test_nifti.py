import gzip
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlasreg import (
    InvalidInputError,
    LabelVolume,
    NiftiFormatError,
    TruncatedFileError,
    UnsupportedDatatypeError,
    UnsupportedDimensionalityError,
    Volume,
    read_nifti,
    write_nifti,
)


def _make_volume(seed=0, dims=(3, 4, 5)):
    rng = np.random.default_rng(seed)
    return Volume(rng.normal(size=dims).astype(np.float32),
                  spacing=(1.5, 2.0, 1.0), origin=np.array([3.0, -2.0, 7.5]))


def build_header(dims=(2, 2, 2), datatype=16, magic=b"n+1\x00", dim0=3,
                 spacing=(1.0, 1.0, 1.0), vox_offset=352.0, sform=0, srow=np.zeros((3, 4)),
                 qform=0, quatern=(0.0, 0.0, 0.0), qoffset=(0.0, 0.0, 0.0), qfac=1.0,
                 byte_order="<"):
    """Hand-construct a 348-byte NIfTI-1 header field by field."""
    hdr = bytearray(348)
    struct.pack_into(f"{byte_order}i", hdr, 0, 348)
    struct.pack_into(f"{byte_order}8h", hdr, 40, dim0, *dims, 1, 1, 1, 1)
    struct.pack_into(f"{byte_order}h", hdr, 70, datatype)
    bitpix = {2: 8, 4: 16, 16: 32}.get(datatype, 0)
    struct.pack_into(f"{byte_order}h", hdr, 72, bitpix)
    struct.pack_into(f"{byte_order}8f", hdr, 76, qfac, *spacing, 0, 0, 0, 0)
    struct.pack_into(f"{byte_order}f", hdr, 108, vox_offset)
    struct.pack_into(f"{byte_order}h", hdr, 252, qform)
    struct.pack_into(f"{byte_order}h", hdr, 254, sform)
    struct.pack_into(f"{byte_order}3f", hdr, 256, *quatern)   # quatern_b, _c, _d
    struct.pack_into(f"{byte_order}3f", hdr, 268, *qoffset)   # qoffset_x, _y, _z
    struct.pack_into(f"{byte_order}12f", hdr, 280, *np.ravel(srow))  # srow_x, _y, _z
    hdr[344:348] = magic
    return hdr


def test_round_trip_is_bitwise_for_float32(tmp_path):
    vol = _make_volume()
    path = tmp_path / "vol.nii"
    write_nifti(vol, path)
    back = read_nifti(path)
    assert back.dims == vol.dims
    assert back.spacing == pytest.approx(vol.spacing, abs=1e-5)
    np.testing.assert_allclose(back.origin, vol.origin, atol=1e-5)
    np.testing.assert_allclose(back.direction, vol.direction, atol=1e-5)
    np.testing.assert_array_equal(back.data, vol.data)  # bitwise


def test_header_starts_with_348_little_endian(tmp_path):
    path = tmp_path / "v.nii"
    write_nifti(_make_volume(), path)
    raw = path.read_bytes()
    assert struct.unpack_from("<i", raw, 0)[0] == 348
    assert raw[344:348] == b"n+1\x00"


def test_label_round_trip_and_datatype(tmp_path):
    rng = np.random.default_rng(1)
    lbl = LabelVolume(rng.integers(0, 4, size=(4, 4, 4)))
    path = tmp_path / "lbl.nii"
    write_nifti(lbl, path)
    raw = path.read_bytes()
    assert struct.unpack_from("<h", raw, 70)[0] == 2   # uint8 datatype
    assert struct.unpack_from("<h", raw, 72)[0] == 8   # bitpix
    back = read_nifti(path, labels=True)
    assert isinstance(back, LabelVolume)
    np.testing.assert_array_equal(back.data, lbl.data)


def test_two_file_magic_is_rejected(tmp_path):
    hdr = build_header(magic=b"ni1\x00")
    payload = np.zeros(8, dtype="<f4").tobytes()
    path = tmp_path / "bad.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + payload)
    with pytest.raises(NiftiFormatError):
        read_nifti(path)


def test_hand_built_fixture_parses_exactly(tmp_path):
    # 2x2x2 float32 volume built byte by byte per the header field layout
    values = np.arange(8, dtype="<f4") * 1.5 - 3.0
    hdr = build_header(spacing=(2.0, 0.5, 1.25))
    path = tmp_path / "hand.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + values.tobytes())
    vol = read_nifti(path)
    assert vol.dims == (2, 2, 2)
    assert vol.spacing == pytest.approx((2.0, 0.5, 1.25))
    # x-fastest ordering: data[i,j,k] = values[i + 2j + 4k]
    expected = values.reshape((2, 2, 2), order="F")
    np.testing.assert_array_equal(vol.data, expected.astype(np.float32))


def test_unsupported_datatype(tmp_path):
    hdr = build_header(datatype=64)  # float64 not in the supported set
    path = tmp_path / "f64.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(8, dtype="<f8").tobytes())
    with pytest.raises(UnsupportedDatatypeError):
        read_nifti(path)


def test_wrong_dimensionality(tmp_path):
    hdr = build_header(dim0=4)
    path = tmp_path / "d4.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(8, dtype="<f4").tobytes())
    with pytest.raises(UnsupportedDimensionalityError):
        read_nifti(path)


def test_truncated_payload(tmp_path):
    hdr = build_header()
    path = tmp_path / "short.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(5, dtype="<f4").tobytes())
    with pytest.raises(TruncatedFileError):
        read_nifti(path)
    path.write_bytes(b"\x00" * 10)
    with pytest.raises(TruncatedFileError, match="shorter than the 348-byte header"):
        read_nifti(path)


@pytest.mark.parametrize("vox_offset", [-4.0, float("nan"), 100.0])
def test_vox_offset_before_payload_is_rejected(tmp_path, vox_offset):
    hdr = build_header(vox_offset=vox_offset)
    path = tmp_path / "offset.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(8, dtype="<f4").tobytes())
    with pytest.raises(NiftiFormatError):
        read_nifti(path)


# pixdim, vox_offset, scl; quatern, qoffset, srow
_FLOAT_FIELDS = [*range(76, 120, 4), *range(256, 328, 4)]
_SHORT_FIELDS = [*range(40, 56, 2), 70, 72, 252, 254]  # dim, datatype, bitpix, qform, sform
_EDIT = st.one_of(
    st.tuples(st.integers(0, 347), st.binary(min_size=1, max_size=1)),
    st.tuples(st.sampled_from(_FLOAT_FIELDS),
              st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, 1e30]),
                        st.floats(width=32)).map(lambda v: struct.pack("<f", v))),
    st.tuples(st.sampled_from(_SHORT_FIELDS),
              st.integers(-2 ** 15, 2 ** 15 - 1).map(lambda v: struct.pack("<h", v))),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(_EDIT, min_size=1, max_size=4))
def test_mutated_header_raises_only_format_errors(tmp_path_factory, edits):
    # an sform and, behind it, a qform of 90 degrees about z
    hdr = build_header(datatype=4, sform=1, srow=[[1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 0.0, -1.0],
                                                  [0.0, 0.0, 1.0, 0.5]],
                       qform=1, quatern=(0.0, 0.0, np.sqrt(0.5)), qoffset=(2.0, -1.0, 0.5))
    struct.pack_into("<2f", hdr, 112, 2.0, 1.0)  # scl_slope, scl_inter
    for offset, chunk in edits:
        hdr[offset:offset + len(chunk)] = chunk
    path = tmp_path_factory.getbasetemp() / "mutated.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.arange(8, dtype="<i2").tobytes())
    for labels in (False, True):
        try:
            read_nifti(path, labels=labels)
        except NiftiFormatError:
            pass


@pytest.mark.parametrize("value", [7.0, -1.0, 1.5, float("nan")])
def test_label_file_with_undeclared_class_is_a_format_error(tmp_path, value):
    hdr = build_header(datatype=16)
    path = tmp_path / "labels.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.full(8, value, dtype="<f4").tobytes())
    with pytest.raises(NiftiFormatError, match="undeclared class ids"):
        read_nifti(path, labels=True)


def _srow_off_by(det_error):
    """A 348-byte header whose srow columns have unit norm and a normalised
    |det| of 1 - det_error: the second column leans towards the first."""
    lean = np.sqrt(1.0 - (1.0 - det_error) ** 2)
    return build_header(sform=1, srow=[[1.0, lean, 0.0, 0.0], [0.0, 1.0 - det_error, 0.0, 0.0],
                                       [0.0, 0.0, 1.0, 0.0]])


@pytest.mark.parametrize("case", ["nan voxel", "nan pixdim", "srow det"])
def test_values_the_volume_types_reject_are_format_errors_naming_the_path(tmp_path, case):
    hdr = build_header()
    values = np.zeros(8, dtype="<f4")
    if case == "nan voxel":
        values[3] = np.nan
    elif case == "nan pixdim":
        hdr = build_header(spacing=(1.0, np.nan, 1.0))
    else:
        hdr = _srow_off_by(1e-3)
    path = tmp_path / "values.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + values.tobytes())
    with pytest.raises(NiftiFormatError) as caught:
        read_nifti(path)
    assert str(caught.value).startswith(f"{path}: ")


def test_written_payload_is_the_little_endian_values_x_fastest(tmp_path):
    vol = _make_volume(seed=3)
    lbl = LabelVolume(np.random.default_rng(4).integers(0, 4, size=(3, 4, 5)))
    for written, payload in ((vol, np.asarray(vol.data, "<f4").tobytes(order="F")),
                             (lbl, lbl.data.astype(np.uint8).tobytes(order="F"))):
        path = tmp_path / "payload.nii"
        write_nifti(written, path)
        raw = path.read_bytes()
        assert struct.unpack_from("<f", raw, 108)[0] == 352.0  # vox_offset
        assert raw[352:] == payload


def _oblique(kind):
    """A Volume or a LabelVolume on an oblique, anisotropic 3x4x5 grid."""
    rng = np.random.default_rng(5)
    direction = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    data = (rng.normal(size=(3, 4, 5)).astype(np.float32) if kind is Volume
            else rng.integers(0, 4, size=(3, 4, 5)))
    return kind(data, (1.5, 2.0, 0.75), np.array([3.0, -2.0, 7.5]), direction)


@pytest.mark.parametrize("kind, datatype", [(Volume, 16), (LabelVolume, 2)])
def test_written_header_is_the_field_by_field_header(tmp_path, kind, datatype):
    vol = _oblique(kind)
    path = tmp_path / "oblique.nii"
    write_nifti(vol, path)
    raw = path.read_bytes()
    fields = dict(dims=vol.dims, datatype=datatype, spacing=vol.spacing, sform=1,
                  srow=np.column_stack([vol.direction @ np.diag(vol.spacing), vol.origin]))
    assert raw[:348] == build_header(**fields)
    assert raw[348:352] == bytes(4)
    # the same file with every field and value byte-swapped reads back the same
    payload = np.frombuffer(raw, np.dtype("<f4" if kind is Volume else "u1"), offset=352)
    swapped = tmp_path / "swapped.nii"
    swapped.write_bytes(bytes(build_header(**fields, byte_order=">")) + bytes(4)
                        + payload.astype(payload.dtype.newbyteorder(">")).tobytes())
    back = read_nifti(path, labels=kind is LabelVolume)
    back_swapped = read_nifti(swapped, labels=kind is LabelVolume)
    assert back_swapped.spacing == back.spacing
    for field in ("origin", "direction", "data"):
        np.testing.assert_array_equal(getattr(back_swapped, field), getattr(back, field))
    np.testing.assert_allclose(back.direction, vol.direction, atol=1e-6)


def test_qform_gives_the_geometry_when_the_sform_is_unset(tmp_path):
    # 90 degrees about z: a = cos 45, (b, c, d) = (0, 0, sin 45)
    qform = dict(spacing=(2.0, 1.0, 3.0), qform=1, quatern=(0.0, 0.0, np.sqrt(0.5)),
                 qoffset=(10.0, -5.0, 2.0))
    path = tmp_path / "qform.nii"

    def read(**fields):
        path.write_bytes(bytes(build_header(**fields)) + bytes(4) + bytes(32))
        return read_nifti(path)

    vol = read(**qform)
    turn = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    np.testing.assert_allclose(vol.direction, turn, atol=1e-6)
    np.testing.assert_array_equal(vol.origin, (10.0, -5.0, 2.0))
    np.testing.assert_allclose(vol.world_from_voxel((1.0, 0.0, 1.0)), (10.0, -3.0, 5.0),
                               atol=1e-6)
    # qfac = pixdim[0] < 0 turns the third voxel axis round; 0 reads as 1
    np.testing.assert_allclose(read(**qform, qfac=-1.0).direction[:, 2], (0.0, 0.0, -1.0),
                               atol=1e-6)
    np.testing.assert_allclose(read(**qform, qfac=0.0).direction, turn, atol=1e-6)
    # an sform with a code above 0 wins
    srow = [[2.0, 0.0, 0.0, 4.0], [0.0, 1.0, 0.0, 5.0], [0.0, 0.0, 3.0, 6.0]]
    vol = read(**qform, sform=1, srow=srow)
    np.testing.assert_array_equal(vol.direction, np.eye(3))
    np.testing.assert_array_equal(vol.origin, (4.0, 5.0, 6.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_quaternion_is_a_format_error(tmp_path, bad):
    hdr = build_header(qform=1, quatern=(0.0, bad, 0.0))
    path = tmp_path / "quatern.nii"
    path.write_bytes(bytes(hdr) + bytes(4) + bytes(32))
    with pytest.raises(NiftiFormatError, match="quaternion"):
        read_nifti(path)


def test_big_endian_header_is_byte_swapped(tmp_path):
    values = np.arange(8, dtype=">f4")
    hdr = build_header(byte_order=">", spacing=(1.0, 1.0, 1.0))
    path = tmp_path / "be.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + values.tobytes())
    vol = read_nifti(path)
    np.testing.assert_array_equal(
        vol.data, values.astype(np.float32).reshape((2, 2, 2), order="F"))


def test_gzip_input_is_transparent(tmp_path):
    vol = _make_volume(seed=2)
    plain = tmp_path / "v.nii"
    write_nifti(vol, plain)
    gz = tmp_path / "v.nii.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    back = read_nifti(gz)
    np.testing.assert_array_equal(back.data, vol.data)


def _broken_gzip(packed: bytes, how: str) -> bytes:
    """A gzip stream cut short, with its deflate data overwritten, with a
    wrong CRC or with an unknown compression method."""
    if how == "truncated":
        return packed[:-100]
    broken = bytearray(packed)
    if how == "deflate":
        broken[20:40] = b"\xff" * 20
    elif how == "crc":
        broken[-8] ^= 1
    else:
        broken[2] = 7
    return bytes(broken)


@pytest.mark.parametrize("how, error", [
    ("truncated", TruncatedFileError),
    ("deflate", NiftiFormatError),
    ("crc", NiftiFormatError),
    ("method", NiftiFormatError),
])
def test_broken_gzip_input_raises_a_format_error(tmp_path, how, error):
    plain = tmp_path / "v.nii"
    write_nifti(_make_volume(seed=2, dims=(12, 12, 12)), plain)
    gz = tmp_path / "v.nii.gz"
    gz.write_bytes(_broken_gzip(gzip.compress(plain.read_bytes()), how))
    with pytest.raises(error) as caught:
        read_nifti(gz)
    # only the cut stream is a truncated file
    assert isinstance(caught.value, TruncatedFileError) == (how == "truncated")


def test_scl_slope_applied_to_int16(tmp_path):
    hdr = build_header(datatype=4)
    struct.pack_into("<2f", hdr, 112, 0.5, 10.0)  # scl_slope, scl_inter
    values = np.arange(8, dtype="<i2")
    path = tmp_path / "scaled.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + values.tobytes())
    vol = read_nifti(path)
    expected = (values.astype(np.float32) * 0.5 + 10.0).reshape((2, 2, 2), order="F")
    np.testing.assert_allclose(vol.data, expected, atol=1e-6)


@pytest.mark.parametrize("slope", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_a_non_finite_scl_slope_means_no_scaling(tmp_path, slope):
    # as nibabel's `Nifti1Header.get_slope_inter` reads it, whatever the intercept
    vol = _make_volume(seed=3)
    path = tmp_path / "slope.nii"
    write_nifti(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2f", raw, 112, slope, 5.0)  # scl_slope, scl_inter
    path.write_bytes(bytes(raw))
    assert np.array_equal(read_nifti(path).data, vol.data)


def test_a_finite_scl_slope_with_a_non_finite_intercept_is_refused(tmp_path):
    path = tmp_path / "inter.nii"
    write_nifti(_make_volume(seed=3), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2f", raw, 112, 2.0, float("nan"))  # scl_slope, scl_inter
    path.write_bytes(bytes(raw))
    with pytest.raises(NiftiFormatError, match="NaN or Inf"):
        read_nifti(path)


@pytest.mark.parametrize("table", [{1: "x"}, {"a": 1}, {1: 2.0}, {True: 1}, {1: None}],
                         ids=["string-value", "string-key", "float-value", "bool-key",
                              "none-value"])
def test_a_label_remap_of_anything_but_integers_is_rejected(tmp_path, table):
    path = tmp_path / "labels.nii"
    write_nifti(LabelVolume(np.ones((2, 2, 2), dtype=np.uint8)), path)
    with warnings.catch_warnings(), pytest.raises(InvalidInputError, match="label_remap"):
        warnings.simplefilter("error")
        read_nifti(path, labels=True, label_remap=table)


def test_label_remap_table(tmp_path):
    table = {200: 1, 500: 2, 600: 3}
    raw = np.array([0, 200, 500, 600, 200, 0, 600, 500], dtype="<i2")
    hdr = build_header(datatype=4)
    path = tmp_path / "challenge.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + raw.tobytes())
    lbl = read_nifti(path, labels=True, label_remap=table)
    expected = np.array([0, 1, 2, 3, 1, 0, 3, 2]).reshape((2, 2, 2), order="F")
    np.testing.assert_array_equal(lbl.data, expected)
    # a value the table does not name is validated, not taken as background
    raw[4] = 700
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + raw.tobytes())
    with pytest.raises(NiftiFormatError, match=r"undeclared class ids \[700"):
        read_nifti(path, labels=True, label_remap=table)
