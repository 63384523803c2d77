"""File formats: dataset (UMI1), model (U2M1, U2M2), PGM and CSV renders.

Golden files are assembled by hand with struct/tobytes and additionally
pinned as frozen hex strings, so a silent change in endianness, field
order, or compression math fails loudly.
"""

import struct

import numpy as np
import pytest

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
        np.testing.assert_array_equal(back.voxels.astype(np.complex64),
                                      voxels.astype(np.complex64))
        assert back.voxels.shape == (5, 4, 7)

    def test_plain_array_with_meta(self, tmp_path):
        voxels = np.ones((2, 3, 4), dtype=complex)
        path = tmp_path / "meta.umi"
        formats.write_dataset(voxels, path,
                              meta={"frame_rate": 500.0, "center_freq": 6e6,
                                    "prf": 2500.0})
        back = formats.read_dataset(path)
        assert back.frame_rate == 500.0 and back.prf == 2500.0

    def test_array_without_meta_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_dataset(np.ones((2, 2, 2), dtype=complex),
                                  tmp_path / "x.umi")

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


class TestModel:
    def golden_net(self):
        layers = [unfolded.LayerParams(0.5, np.array([-1.0, 2.0])),
                  unfolded.LayerParams(-0.25, np.array([0.0, 1.5]))]
        return unfolded.UnfoldedNetwork(layers=layers, d=2, epsilon=1e-8)

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "golden.u2m"
        formats.write_model(self.golden_net(), path)
        assert path.read_bytes() == bytes.fromhex(GOLDEN_U2M1_HEX)

    def test_hand_assembled_model_parses(self, tmp_path):
        path = tmp_path / "hand.u2m"
        path.write_bytes(bytes.fromhex(GOLDEN_U2M1_HEX))
        net = formats.read_model(path)
        assert len(net.layers) == 2 and net.d == 2
        assert net.epsilon == 1e-8
        assert net.layers[0].theta_lambda == 0.5
        np.testing.assert_array_equal(net.layers[0].theta_w, [-1.0, 2.0])
        assert net.layers[1].theta_lambda == -0.25
        np.testing.assert_array_equal(net.layers[1].theta_w, [0.0, 1.5])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        layers = [unfolded.LayerParams(float(rng.standard_normal()),
                                       rng.standard_normal(3))
                  for _ in range(4)]
        net = unfolded.UnfoldedNetwork(layers=layers, d=3, epsilon=1e-6)
        path = tmp_path / "rt.u2m"
        formats.write_model(net, path)
        back = formats.read_model(path)
        np.testing.assert_array_equal(unfolded.pack_parameters(back),
                                      unfolded.pack_parameters(net))
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

    def initialized_net(self, normalize):
        rng = np.random.default_rng(5)
        d_mat = rng.standard_normal((30, 12)) + 1j * rng.standard_normal((30, 12))
        cfg = irls.IrlsConfig(d=2, lambda_c=0.05, lambda_b=0.5, normalize=normalize)
        net = unfolded.init_network(d_mat, k=2, d=2, lambda_b_init=0.5, cfg=cfg)
        return net, 3.0 * d_mat

    @pytest.mark.parametrize("normalize", [False, True])
    def test_u2m2_round_trip_keeps_inference(self, tmp_path, normalize):
        net, d_mat = self.initialized_net(normalize)
        path = tmp_path / "net.u2m"
        formats.write_model(net, path)
        raw = path.read_bytes()
        assert raw[:4] == b"U2M2"
        assert struct.unpack_from("<3I", raw, 4) == (2, 2, 2)
        assert struct.unpack_from("<IQ", raw, 24) == (int(normalize), 30)
        back = formats.read_model(path)
        assert (back.normalize, back.n_space) == (normalize, 30)
        np.testing.assert_array_equal(unfolded.pack_parameters(back),
                                      unfolded.pack_parameters(net))
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
        net, _ = self.initialized_net(normalize=False)
        net.n_space = None
        path = tmp_path / "net.u2m"
        formats.write_model(net, path)
        back = formats.read_model(path)
        assert back.n_space is None and back.normalize is False

    @pytest.mark.parametrize("offset, fmt, value, match", [
        (24, "<I", 2, "normalize flag"), (28, "<Q", 1, "smaller than d"),
        (4, "<I", 7, "version"), (16, "<d", 0.0, "epsilon"),
        (16, "<d", float("nan"), "epsilon"), (8, "<I", 0, "layer count"),
        (12, "<I", 0, "at least 1")])
    def test_u2m2_malformed_header(self, tmp_path, offset, fmt, value, match):
        net, _ = self.initialized_net(normalize=False)
        path = tmp_path / "net.u2m"
        formats.write_model(net, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=match):
            formats.read_model(path)

    def test_u2m2_truncated_header(self, tmp_path):
        net, _ = self.initialized_net(normalize=False)
        path = tmp_path / "net.u2m"
        formats.write_model(net, path)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError, match="truncated header"):
            formats.read_model(path)


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
