"""Binary and text file formats for datasets, models, and rendered images.

Dataset files (``.umi``) hold a complex frame stack plus acquisition
metadata. Layout: 4-byte magic ``UMI1``, four little-endian uint32 fields
(version, nz, nx, nt), three little-endian float64 fields (frame_rate,
center_freq, prf), then the voxels as little-endian complex64, frame-major
with the axial index fastest within each frame. Every dimension is at least
1, every rate is positive and finite, and every voxel is finite, on writing
and on reading.

Model files (``.u2m``) hold the unconstrained parameters of an unfolded
network: magic ``U2M1``, uint32 version / layer count / subspace dimension,
float64 epsilon, then the rows of the network's (K, 1 + d) theta array, each
one float64 theta_lambda followed by d float64 theta_w entries, all finite.
Layout ``U2M2`` (version 2) adds, right after epsilon, a uint32 flag slot
that always holds 1 (the network always scales its input to peak 1) and a
uint64 n_space (0 when the row count is unknown). U2M1 files stand for no
n_space; networks without one are still written as U2M1.

Rendered images go out either as 16-bit binary PGM (log-compressed with a
configurable dynamic range) or as headerless CSV with full float64
precision; an empty CSV file is refused.
"""

import struct
import warnings

import numpy as np

from .casorati import FrameSequence
from .unfolded import UnfoldedNetwork

_DATASET_MAGIC = b"UMI1"
_DATASET_VERSION = 1
_MODEL_HEADERS = {b"U2M1": (1, 24), b"U2M2": (2, 36)}  # magic: (version, size)
_HEADER_SIZE = 44  # magic + 4 uint32 + 3 float64
_MAX_DIM = 2 ** 32 - 1
_RATES = ("frame_rate", "center_freq", "prf")


def _checked_rates(rates):
    """Return the three acquisition rates, each checked positive and finite."""
    for name, value in zip(_RATES, rates):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} is {value}, expected a positive "
                             f"finite value")
    return rates


def complex64_voxels(voxels):
    """The voxels as the complex64 a dataset file stores.

    Voxels that are not finite after that cast (NaN, inf, or beyond the
    complex64 range) are refused.
    """
    with np.errstate(over="ignore"):
        voxels = np.asarray(voxels).astype(np.complex64, copy=False)
    bad = int(np.count_nonzero(~np.isfinite(voxels)))
    if bad:
        raise ValueError(f"{bad} voxel values are not finite as complex64")
    return voxels


def write_dataset(seq, path):
    """Write a FrameSequence to a UMI1 file.

    Voxels are stored as complex64_voxels(seq.voxels), so reading back
    reproduces the 32-bit payload exactly but not float64 inputs.
    """
    nz, nx, nt = seq.voxels.shape
    for n in (nz, nx, nt):
        if not 0 < n <= _MAX_DIM:
            raise ValueError(f"dimension {n} does not fit the header")
    header = _DATASET_MAGIC
    header += struct.pack("<4I", _DATASET_VERSION, nz, nx, nt)
    header += struct.pack("<3d", *_checked_rates(
        [float(getattr(seq, name)) for name in _RATES]))
    voxels = complex64_voxels(seq.voxels)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(voxels.tobytes(order="F"))


def read_dataset(path):
    """Read a UMI1 file back into a FrameSequence.

    The voxels are a writable complex64 copy of the payload, the precision
    the file stores; the filters keep it (see irls.prepare_input).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER_SIZE:
        raise ValueError("truncated header: file shorter than 44 bytes")
    if raw[:4] != _DATASET_MAGIC:
        raise ValueError(f"bad magic {raw[:4]!r}, expected {_DATASET_MAGIC!r}")
    version, nz, nx, nt = struct.unpack_from("<4I", raw, 4)
    if version != _DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {version}")
    if 0 in (nz, nx, nt):
        raise ValueError(f"empty grid: nz={nz}, nx={nx}, nt={nt}")
    frame_rate, center_freq, prf = _checked_rates(
        struct.unpack_from("<3d", raw, 20))
    count = nz * nx * nt
    expected = _HEADER_SIZE + 8 * count
    if len(raw) < expected:
        raise ValueError(
            f"truncated payload: header claims {count} voxels "
            f"({expected} bytes) but file has {len(raw)}")
    if len(raw) > expected:
        raise ValueError(f"trailing bytes: expected {expected}, "
                         f"got {len(raw)}")
    flat = np.frombuffer(raw, dtype="<c8", count=count, offset=_HEADER_SIZE)
    bad = int(np.count_nonzero(~np.isfinite(flat)))
    if bad:
        raise ValueError(f"dataset {path} holds {bad} non-finite voxel values")
    voxels = flat.reshape((nz, nx, nt), order="F").astype(np.complex64)
    return FrameSequence(voxels=voxels, frame_rate=frame_rate,
                         center_freq=center_freq, prf=prf)


def _finite_layers(params):
    """Return the (k, 1 + d) layer parameter rows, each checked finite."""
    bad = np.flatnonzero(~np.isfinite(params).all(axis=1))
    if bad.size:
        raise ValueError(f"layer {bad[0]} has a non-finite theta_lambda "
                         f"or theta_w")
    return params


def write_model(net, path):
    """Write an unfolded network's parameters to a .u2m file.

    Networks without n_space are written as U2M1, all others as U2M2, which
    also stores it. Non-finite layer parameters are refused.
    """
    n_space = 0 if net.n_space is None else int(net.n_space)
    if not 0 <= n_space < 2 ** 64:
        raise ValueError(f"n_space {n_space} does not fit the header")
    magic = b"U2M1" if n_space == 0 else b"U2M2"
    version = _MODEL_HEADERS[magic][0]
    blob = magic + struct.pack("<3I", version, len(net.theta), net.d)
    blob += struct.pack("<d", float(net.epsilon))
    if version == 2:
        blob += struct.pack("<IQ", 1, n_space)
    blob += _finite_layers(net.theta).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def read_model(path):
    """Read a U2M1 or U2M2 file back into an UnfoldedNetwork."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24:
        raise ValueError("truncated header: file shorter than 24 bytes")
    if raw[:4] not in _MODEL_HEADERS:
        raise ValueError(f"bad magic {raw[:4]!r}, expected one of "
                         f"{sorted(_MODEL_HEADERS)!r}")
    want_version, header = _MODEL_HEADERS[raw[:4]]
    if len(raw) < header:
        raise ValueError(f"truncated header: file shorter than {header} bytes")
    version, k, d = struct.unpack_from("<3I", raw, 4)
    if version != want_version:
        raise ValueError(f"unsupported model version {version}")
    if k < 1 or d < 1:
        raise ValueError(f"layer count {k} and d={d} must both be at least 1")
    (epsilon,) = struct.unpack_from("<d", raw, 16)
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon is {epsilon}, expected a positive finite value")
    n_space = None
    if version == 2:
        flag, rows = struct.unpack_from("<IQ", raw, 24)
        if flag != 1:
            raise ValueError(f"normalize flag is {flag}, expected 1")
        if 0 < rows < d:
            raise ValueError(f"n_space {rows} is smaller than d={d}")
        n_space = rows or None
    expected = header + k * (1 + d) * 8
    if len(raw) < expected:
        raise ValueError(f"truncated payload: expected {expected} bytes, "
                         f"got {len(raw)}")
    if len(raw) != expected:
        raise ValueError(f"trailing bytes: expected {expected}, "
                         f"got {len(raw)}")
    theta = _finite_layers(np.frombuffer(
        raw, dtype="<f8", count=k * (1 + d), offset=header).reshape(k, 1 + d))
    return UnfoldedNetwork(theta=theta, epsilon=epsilon, n_space=n_space)


def write_pgm(image, path, dynamic_range_db=30.0, comment=None):
    """Write a nonnegative image as 16-bit log-compressed binary PGM.

    Values are mapped to dB relative to the image peak, clamped to
    [-dynamic_range_db, 0], and scaled linearly onto 0..65535. An optional
    comment string is embedded as a ``#`` header line.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise ValueError("image contains non-finite values")
    if np.any(image < 0):
        raise ValueError("PGM output requires nonnegative values")
    if not 0 < dynamic_range_db < np.inf:
        raise ValueError(f"dynamic_range_db must be positive and finite, got {dynamic_range_db}")
    peak = image.max()
    if peak == 0:
        levels = np.zeros(image.shape, dtype=">u2")
    else:
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(image / peak)
        db = np.clip(db, -dynamic_range_db, 0.0)
        levels = np.rint((db + dynamic_range_db) / dynamic_range_db
                         * 65535.0).astype(">u2")
    nz, nx = image.shape
    header = b"P5\n"
    if comment:
        header += b"# " + comment.encode("ascii") + b"\n"
    header += f"{nx} {nz}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(levels.tobytes())


def write_csv(image, path):
    """Write an image as headerless CSV, one row per line, full precision."""
    np.savetxt(path, np.atleast_2d(np.asarray(image, dtype=float)),
               fmt="%.17g", delimiter=",")


def read_csv(path):
    """Read a headerless CSV image written by write_csv; refuse an empty one."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        image = np.loadtxt(path, delimiter=",", ndmin=2)
    if image.size == 0:
        raise ValueError(f"{path} holds no data")
    return image
