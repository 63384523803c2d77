"""File formats: dataset (UMI1), model (U2M1, U2M2), PGM and CSV renders.

Golden files are assembled by hand with struct/tobytes and additionally
pinned as frozen hex strings, so a silent change in endianness, field
order, or compression math fails loudly.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from microflow import formats, irls, unfolded
from microflow.casorati import FrameSequence

GOLDEN_UMI1_HEX = (
    "554d4931010000000200000002000000020000000000000000408f40"
    "00000000389c5c41000000000088b340"
    "0000803f000000400000404000008040"
    "0000a0400000c0400000e04000000041"
    "000080bf0000003f000000000000803f"
    "00000040000000c0000040c0000080c0"
)

GOLDEN_U2M1_HEX = (
    "55324d310100000002000000020000003a8c30e28e79453e"
    "000000000000e03f000000000000f0bf0000000000000040"
    "000000000000d0bf0000000000000000000000000000f83f"
)

GOLDEN_PGM_PAYLOAD_HEX = (
    "ffffe64fcc9fb2ef993f7f8f65df4c2f000000000000fffff556d361c45aaaaa"
)


def golden_sequence():
    frame0 = np.array([[1 + 2j, 5 + 6j], [3 + 4j, 7 + 8j]])
    frame1 = np.array([[-1 + 0.5j, 2 - 2j], [0 + 1j, -3 - 4j]])
    voxels = np.stack([frame0, frame1], axis=2)
    return FrameSequence(voxels=voxels, frame_rate=1000.0,
                         center_freq=7.5e6, prf=5000.0)


class TestDataset:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "golden.umi"
        formats.write_dataset(golden_sequence(), path)
        assert path.read_bytes() == bytes.fromhex(GOLDEN_UMI1_HEX)

    def test_golden_header_fields(self, tmp_path):
        raw = bytes.fromhex(GOLDEN_UMI1_HEX)
        assert raw[:4] == b"UMI1"
        version, nz, nx, nt = struct.unpack_from("<4I", raw, 4)
        assert (version, nz, nx, nt) == (1, 2, 2, 2)
        fr, f0, prf = struct.unpack_from("<3d", raw, 20)
        assert (fr, f0, prf) == (1000.0, 7.5e6, 5000.0)
        assert len(raw) == 44 + 2 * 2 * 2 * 8

    def test_hand_assembled_file_parses(self, tmp_path):
        path = tmp_path / "hand.umi"
        path.write_bytes(bytes.fromhex(GOLDEN_UMI1_HEX))
        seq = formats.read_dataset(path)
        ref = golden_sequence()
        np.testing.assert_array_equal(
            seq.voxels.astype(np.complex64), ref.voxels.astype(np.complex64))
        assert seq.frame_rate == 1000.0
        assert seq.center_freq == 7.5e6
        assert seq.prf == 5000.0

    def test_round_trip_32bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        voxels = (rng.standard_normal((5, 4, 7))
                  + 1j * rng.standard_normal((5, 4, 7)))
        seq = FrameSequence(voxels=voxels, frame_rate=800.0,
                            center_freq=5e6, prf=4000.0)
        path = tmp_path / "rt.umi"
        formats.write_dataset(seq, path)
        back = formats.read_dataset(path)
        assert back.voxels.dtype == np.complex64 and back.voxels.flags.writeable
        np.testing.assert_array_equal(back.voxels, voxels.astype(np.complex64))
        assert back.voxels.shape == (5, 4, 7)

    def test_corrupt_magic(self, tmp_path):
        raw = bytearray(bytes.fromhex(GOLDEN_UMI1_HEX))
        raw[:4] = b"JUNK"
        path = tmp_path / "bad.umi"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            formats.read_dataset(path)

    def test_truncated_payload(self, tmp_path):
        raw = bytes.fromhex(GOLDEN_UMI1_HEX)[:-8]
        path = tmp_path / "short.umi"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="truncat"):
            formats.read_dataset(path)

    def test_dimension_overflow(self, tmp_path):
        header = b"UMI1" + struct.pack("<4I", 1, 2 ** 20, 2 ** 20, 2 ** 10) \
            + struct.pack("<3d", 1.0, 1.0, 1.0)
        path = tmp_path / "huge.umi"
        path.write_bytes(header)
        with pytest.raises(ValueError):
            formats.read_dataset(path)

    @pytest.mark.parametrize("field", [0, 1, 2])
    @pytest.mark.parametrize("value", [0.0, -1000.0, np.nan, np.inf])
    def test_bad_header_rate_rejected(self, tmp_path, field, value):
        raw = bytearray(bytes.fromhex(GOLDEN_UMI1_HEX))
        struct.pack_into("<d", raw, 20 + 8 * field, value)
        path = tmp_path / "rate.umi"
        path.write_bytes(bytes(raw))
        name = ("frame_rate", "center_freq", "prf")[field]
        with pytest.raises(ValueError, match=f"{name} is"):
            formats.read_dataset(path)

    @pytest.mark.parametrize("name", ["frame_rate", "center_freq", "prf"])
    def test_bad_rate_not_written(self, tmp_path, name):
        rates = {"frame_rate": 500.0, "center_freq": 6e6, "prf": 2500.0}
        rates[name] = np.nan
        path = tmp_path / "rate.umi"
        with pytest.raises(ValueError, match=f"{name} is nan"):
            formats.write_dataset(FrameSequence(
                voxels=np.ones((2, 2, 2), dtype=complex), **rates), path)
        assert not path.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39, -1e300j])
    def test_non_finite_payload_not_written(self, tmp_path, value):
        seq = golden_sequence()
        seq.voxels[1, 0, 1] = value
        path = tmp_path / "bad.umi"
        with pytest.raises(ValueError, match="1 voxel values are not finite"):
            formats.write_dataset(seq, path)
        assert not path.exists()

    @pytest.mark.parametrize("offset", [0, 4])
    def test_non_finite_voxel_rejected(self, tmp_path, offset):
        raw = bytearray(bytes.fromhex(GOLDEN_UMI1_HEX))
        struct.pack_into("<f", raw, 44 + 8 * 5 + offset, np.inf)
        path = tmp_path / "inf.umi"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="holds 1 non-finite voxel"):
            formats.read_dataset(path)

    @pytest.mark.parametrize("dims", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_empty_grid_rejected(self, tmp_path, dims):
        path = tmp_path / "empty.umi"
        path.write_bytes(b"UMI1" + struct.pack("<4I", 1, *dims)
                         + struct.pack("<3d", 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="empty grid"):
            formats.read_dataset(path)


class TestModel:
    def golden_net(self):
        return unfolded.UnfoldedNetwork(theta=[[0.5, -1.0, 2.0], [-0.25, 0.0, 1.5]],
                                        epsilon=1e-8)

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "golden.u2m"
        formats.write_model(self.golden_net(), path)
        assert path.read_bytes() == bytes.fromhex(GOLDEN_U2M1_HEX)

    def test_hand_assembled_model_parses(self, tmp_path):
        path = tmp_path / "hand.u2m"
        path.write_bytes(bytes.fromhex(GOLDEN_U2M1_HEX))
        net = formats.read_model(path)
        assert net.d == 2
        assert net.epsilon == 1e-8
        np.testing.assert_array_equal(net.theta, [[0.5, -1.0, 2.0], [-0.25, 0.0, 1.5]])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        net = unfolded.UnfoldedNetwork(theta=rng.standard_normal((4, 4)), epsilon=1e-6)
        path = tmp_path / "rt.u2m"
        formats.write_model(net, path)
        back = formats.read_model(path)
        np.testing.assert_array_equal(back.theta, net.theta)
        assert back.epsilon == net.epsilon

    def test_corrupt_magic(self, tmp_path):
        raw = bytearray(bytes.fromhex(GOLDEN_U2M1_HEX))
        raw[:4] = b"XXXX"
        path = tmp_path / "bad.u2m"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            formats.read_model(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.u2m"
        path.write_bytes(bytes.fromhex(GOLDEN_U2M1_HEX)[:-4])
        with pytest.raises(ValueError, match="truncat"):
            formats.read_model(path)

    def initialized_net(self):
        rng = np.random.default_rng(5)
        d_mat = rng.standard_normal((30, 12)) + 1j * rng.standard_normal((30, 12))
        cfg = irls.IrlsConfig(d=2, lambda_c=0.05, lambda_b=0.5)
        net = unfolded.init_network(d_mat, k=2, d=2, lambda_b_init=0.5, cfg=cfg)
        return net, 3.0 * d_mat

    @pytest.mark.parametrize("single", [False, True])
    def test_u2m2_round_trip_keeps_inference(self, tmp_path, single):
        net, d_mat = self.initialized_net()
        if single:
            d_mat = d_mat.astype(np.complex64)
        path = tmp_path / "net.u2m"
        formats.write_model(net, path)
        raw = path.read_bytes()
        assert raw[:4] == b"U2M2"
        assert struct.unpack_from("<3I", raw, 4) == (2, 2, 2)
        assert struct.unpack_from("<IQ", raw, 24) == (1, 30)
        back = formats.read_model(path)
        assert back.n_space == 30
        np.testing.assert_array_equal(back.theta, net.theta)
        want, got = unfolded.infer(net, d_mat), unfolded.infer(back, d_mat)
        assert np.array_equal(got.blood_b, want.blood_b)
        assert np.array_equal(got.basis_u, want.basis_u)
        assert np.array_equal(got.coeffs_v, want.coeffs_v)
        with pytest.raises(ValueError, match="rows"):
            unfolded.infer(back, d_mat[:29])
        rewritten = tmp_path / "again.u2m"
        formats.write_model(back, rewritten)
        assert rewritten.read_bytes() == raw

    def test_u2m2_without_rows_reads_back_none(self, tmp_path):
        net, _ = self.initialized_net()
        path = tmp_path / "net.u2m"
        formats.write_model(net, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 28, 0)
        path.write_bytes(bytes(raw))
        back = formats.read_model(path)
        assert back.n_space is None
        # rewritten, a network without a row count is a U2M1 file
        formats.write_model(back, path)
        u2m1 = path.read_bytes()
        assert u2m1[:8] == b"U2M1" + struct.pack("<I", 1)
        assert u2m1[8:] == bytes(raw[8:24] + raw[36:])

    @pytest.mark.parametrize("offset, fmt, value, match", [
        (24, "<I", 2, "normalize flag"), (24, "<I", 0, "normalize flag"),
        (28, "<Q", 1, "smaller than d"),
        (4, "<I", 7, "version"), (16, "<d", 0.0, "epsilon"),
        (16, "<d", float("nan"), "epsilon"), (8, "<I", 0, "layer count"),
        (12, "<I", 0, "at least 1")])
    def test_u2m2_malformed_header(self, tmp_path, offset, fmt, value, match):
        net, _ = self.initialized_net()
        path = tmp_path / "net.u2m"
        formats.write_model(net, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=match):
            formats.read_model(path)

    @pytest.mark.parametrize("offset, value", [(24, np.nan), (32, np.inf),
                                               (64, -np.inf)])
    def test_non_finite_parameter_rejected(self, tmp_path, offset, value):
        raw = bytearray(bytes.fromhex(GOLDEN_U2M1_HEX))
        struct.pack_into("<d", raw, offset, value)
        path = tmp_path / "bad.u2m"
        path.write_bytes(bytes(raw))
        layer = (offset - 24) // 24
        with pytest.raises(ValueError, match=f"layer {layer} has a non-finite"):
            formats.read_model(path)

    @pytest.mark.parametrize("where", ["theta_lambda", "theta_w"])
    def test_non_finite_parameter_not_written(self, tmp_path, where):
        net = self.golden_net()
        if where == "theta_lambda":
            net.theta[1, 0] = np.nan
        else:
            net.theta[1, 1] = np.inf
        path = tmp_path / "bad.u2m"
        with pytest.raises(ValueError, match="layer 1 has a non-finite"):
            formats.write_model(net, path)
        assert not path.exists()

    def test_u2m2_truncated_header(self, tmp_path):
        net, _ = self.initialized_net()
        path = tmp_path / "net.u2m"
        formats.write_model(net, path)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError, match="truncated header"):
            formats.read_model(path)


_TINY = 2.2250738585072014e-308  # smallest normal float64
_THETA_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e300, -1e300, -0.0, 5e-324, -5e-324, _TINY / 3, -_TINY / 7]))
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def networks(draw):
    k, d = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    return unfolded.UnfoldedNetwork(
        theta=draw(arrays(np.float64, (k, 1 + d), elements=_THETA_ENTRIES)),
        epsilon=draw(_POSITIVE),
        n_space=draw(st.one_of(st.none(), st.integers(d, 2 ** 64 - 1))))


@st.composite
def sequences(draw):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    voxels = draw(arrays(np.complex64, shape, elements=st.complex_numbers(
        allow_nan=False, allow_infinity=False, width=64)))
    return FrameSequence(voxels=voxels, frame_rate=draw(_POSITIVE),
                         center_freq=draw(_POSITIVE), prf=draw(_POSITIVE))


class TestRoundTripProperties:
    """Reading a written file gives back everything written, and rewriting it the same bytes."""

    @settings(max_examples=200, deadline=None)
    @given(net=networks())
    def test_u2m_round_trip(self, net):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.u2m"
            formats.write_model(net, path)
            raw = path.read_bytes()
            back = formats.read_model(path)
            formats.write_model(back, path)
            assert path.read_bytes() == raw
        assert np.array_equal(back.theta, net.theta)
        assert back.theta.tobytes() == net.theta.tobytes()  # keeps -0.0
        assert (back.d, back.epsilon, back.n_space) == (net.d, net.epsilon, net.n_space)

    @settings(max_examples=200, deadline=None)
    @given(seq=sequences())
    def test_umi_round_trip(self, seq):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.umi"
            formats.write_dataset(seq, path)
            raw = path.read_bytes()
            back = formats.read_dataset(path)
            formats.write_dataset(back, path)
            assert path.read_bytes() == raw
        assert back.voxels.shape == seq.voxels.shape
        assert np.array_equal(back.voxels, seq.voxels)
        assert ((back.frame_rate, back.center_freq, back.prf)
                == (seq.frame_rate, seq.center_freq, seq.prf))


class TestPgm:
    def golden_image(self):
        return np.array([
            [1.0, 0.5, 0.25, 0.125],
            [0.0625, 0.03125, 0.015625, 0.0078125],
            [1e-4, 1e-5, 0.0, 1.0],
            [0.75, 0.3, 0.2, 0.1],
        ])

    def test_golden_payload(self, tmp_path):
        path = tmp_path / "golden.pgm"
        formats.write_pgm(self.golden_image(), path, dynamic_range_db=30.0)
        raw = path.read_bytes()
        # header: P5, optional comment, dims, maxval; payload is the rest
        payload = raw.rsplit(b"65535\n", 1)[1]
        expected = np.array([
            [65535, 58959, 52383, 45807],
            [39231, 32655, 26079, 19503],
            [0, 0, 0, 65535],
            [62806, 54113, 50266, 43690],
        ], dtype=">u2")
        assert payload == expected.tobytes()
        assert payload == bytes.fromhex(GOLDEN_PGM_PAYLOAD_HEX)

    def test_header_structure(self, tmp_path):
        path = tmp_path / "hdr.pgm"
        formats.write_pgm(self.golden_image(), path, dynamic_range_db=30.0,
                          comment="cfg:deadbeef")
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n# cfg:deadbeef\n4 4\n65535\n")

    def test_constant_image(self, tmp_path):
        path = tmp_path / "const.pgm"
        formats.write_pgm(np.full((3, 5), 2.5), path)
        raw = path.read_bytes()
        payload = np.frombuffer(raw.rsplit(b"65535\n", 1)[1], dtype=">u2")
        assert payload.shape == (15,)
        assert np.all(payload == 65535)

    def test_negative_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_pgm(np.array([[1.0, -0.1]]), tmp_path / "neg.pgm")

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_pgm(np.array([[1.0, np.nan]]), tmp_path / "nan.pgm")

    @pytest.mark.parametrize("dynamic_range_db", [0.0, -30.0, np.nan, np.inf])
    def test_dynamic_range_must_be_positive_and_finite(self, tmp_path,
                                                        dynamic_range_db):
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="dynamic_range_db"):
            formats.write_pgm(self.golden_image(), path, dynamic_range_db)
        assert not path.exists()


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.standard_normal((6, 9)) * np.exp(rng.uniform(-30, 30, (6, 9)))
        path = tmp_path / "img.csv"
        formats.write_csv(img, path)
        back = formats.read_csv(path)
        np.testing.assert_array_equal(back, img)

    def test_headerless_row_major(self, tmp_path):
        img = np.array([[1.5, 2.0], [3.0, 4.0]])
        path = tmp_path / "tiny.csv"
        formats.write_csv(img, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert [float(v) for v in lines[0].split(",")] == [1.5, 2.0]
        assert [float(v) for v in lines[1].split(",")] == [3.0, 4.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\n\n", "# no rows\n"])
    def test_empty_file_rejected_without_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="holds no data"):
            formats.read_csv(path)
