import dataclasses
import math
import weakref

import numpy as np
import pytest

from dancebeat import tensor as tz
from dancebeat import rhythm
from dancebeat.config import RunConfig
from dancebeat.errors import ConfigError
from dancebeat.pose import PoseSequence, motion_diff, synth_dance
from dancebeat.tensor import Tape, Tensor, backward

from conftest import (conv1d_same, finite_difference, phase_histograms, reflect_indices, relerr,
                      tsum)


def tiny_params(rng, scales=2, bins=4, dim=3):
    return rhythm.RhythmParams.init(rng, scales, bins, dim, hidden_w=4, hidden_a=4)


class TestWaveletBank:
    def test_zero_mean_unit_norm(self):
        bank = rhythm.build_wavelet_bank(4, 4)
        for k in bank:
            assert abs(k.sum()) < 1e-9
            assert abs(np.linalg.norm(k) - 1) < 1e-9
            assert len(k) % 2 == 1

    def test_dyadic_periods(self):
        # kernel s has period 4 * 2**s and sigma half of it, truncated at +-ceil(3 sigma)
        bank = rhythm.build_wavelet_bank(4, 4)
        periods = [4 * 2 ** s for s in range(len(bank))]
        assert [len(k) for k in bank] == [2 * math.ceil(1.5 * lam) + 1 for lam in periods]

    def test_sub_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            rhythm.build_wavelet_bank(2, 1.5)

    def test_tuned_period_response(self):
        # response to the kernel's own period beats a 4x longer period by >= 3x
        bank = rhythm.build_wavelet_bank(2, 8)
        t = np.arange(256, dtype=np.float64)
        for s, k in enumerate(bank):
            lam = 8 * 2 ** s
            on = np.sin(2 * math.pi * t / lam)
            off = np.sin(2 * math.pi * t / (4 * lam))
            r_on = np.abs(conv1d_same(Tensor(on), k).data).max()
            r_off = np.abs(conv1d_same(Tensor(off), k).data).max()
            assert r_on >= 3 * r_off


class TestWaveletFeatures:
    """clip_features's wavelet responses of the motion magnitude."""

    def test_zero_motion(self):
        p = PoseSequence(data=np.ones((6, 2, 2)), fps=30)
        w = rhythm.clip_features(p, rhythm.build_wavelet_bank(2, 2), 4).wavelet
        assert np.array_equal(w, np.zeros_like(w))

    def test_impulse_reproduces_kernel(self):
        bank = rhythm.build_wavelet_bank(1, 4)
        L = len(bank[0])
        T = 4 * L
        # one unit step in x between frames 2L and 2L + 1: a unit magnitude impulse at 2L
        data = np.zeros((T + 1, 1, 2))
        data[2 * L + 1:, 0, 0] = 1.0
        w = rhythm.clip_features(PoseSequence(data=data, fps=30), bank, 4).wavelet
        lo = 2 * L - L // 2
        assert relerr(w[lo:lo + L, 0, 0], bank[0][::-1]) < 1e-12

    def test_joint_permutation_equivariance(self, rng):
        bank = rhythm.build_wavelet_bank(2, 2)
        p = PoseSequence(data=rng.uniform(0, 1, (8, 3, 2)), fps=30)
        perm = [2, 0, 1]
        q = PoseSequence(data=p.data[:, perm, :], fps=30)
        w_p = rhythm.clip_features(p, bank, 4).wavelet
        w_q = rhythm.clip_features(q, bank, 4).wavelet
        assert np.array_equal(w_q, w_p[:, perm, :])


class TestScaleComponents:
    """clip_features's filtered x and y displacements and their magnitude."""

    def test_pure_x_motion(self, rng):
        data = np.zeros((10, 1, 2))
        data[:, 0, 0] = np.linspace(0, 1, 10) ** 2
        bank = rhythm.build_wavelet_bank(2, 2)
        feats = rhythm.clip_features(PoseSequence(data=data, fps=30), bank, 4)
        assert np.abs(feats.my).max() < 1e-15
        assert relerr(feats.mag_s, np.abs(feats.mx)) < 1e-12

    def test_brute_force_match(self, rng):
        bank = rhythm.build_wavelet_bank(1, 2)
        k = bank[0]
        p = PoseSequence(data=rng.uniform(0, 1, (6, 1, 2)), fps=30)
        mx = rhythm.clip_features(p, bank, 4).mx
        sig = motion_diff(p).diffs[:, 0, 0]
        idx = reflect_indices(5, len(k) // 2)
        padded = sig[idx]
        brute = np.array([sum(padded[t + l] * k[l] for l in range(len(k))) for t in range(5)])
        assert relerr(mx[:, 0, 0], brute) < 1e-12


class TestJointWeights:
    def test_rows_sum_to_one(self, rng):
        bank = rhythm.build_wavelet_bank(2, 2)
        p = PoseSequence(data=rng.uniform(0, 1, (7, 4, 2)), fps=30)
        feats = rhythm.clip_features(p, bank, bins=4)
        w = rhythm.joint_weight_tensor(feats, tiny_params(rng)).data
        assert np.abs(w.sum(axis=1) - 1).max() < 1e-9
        assert (w >= 0).all()

    def test_identical_joints_uniform(self, rng):
        data = np.zeros((6, 3, 2))
        data[:, :, 0] = np.linspace(0, 1, 6)[:, None]  # same trajectory per joint
        bank = rhythm.build_wavelet_bank(2, 2)
        feats = rhythm.clip_features(PoseSequence(data=data, fps=30), bank, bins=4)
        w = rhythm.joint_weight_tensor(feats, tiny_params(rng)).data
        assert relerr(w, np.full_like(w, 1 / 3)) < 1e-9

    def test_hand_forward_pass(self):
        # 2 joints, S=1: hand-set net weights, verify one frame by hand
        params = rhythm.RhythmParams.init(np.random.default_rng(0), 1, 2, 2,
                                        hidden_w=1, hidden_a=1)
        params.w1.data = np.array([[1.0], [2.0]])  # input (mag, W) -> hidden
        params.b1.data = np.array([0.0])
        params.w2.data = np.array([[1.0]])
        mag = np.array([[0.5, 0.25]])
        wav = np.array([[[0.1], [0.2]]])
        feats = rhythm.ClipRhythmFeatures(
            joint_input=np.concatenate([mag[:, :, None], wav], axis=2), mag_s=None,
            column=None, bins=2, pose=None, bank=None)
        w = rhythm.joint_weight_tensor(feats, params).data
        # logits: relu(0.5 + 2*0.1) = 0.7 ; relu(0.25 + 2*0.2) = 0.65
        expect = np.exp([0.7, 0.65]) / np.exp([0.7, 0.65]).sum()
        assert relerr(w[0], expect) < 1e-12


class TestPhaseHistograms:
    def test_all_mass_in_zero_bin(self):
        mx = np.ones((3, 2, 1))
        my = np.zeros((3, 2, 1))
        mag = np.sqrt(mx ** 2 + my ** 2)
        w = np.full((3, 2), 0.5)
        h = phase_histograms(mx, my, mag, w, bins=8)
        zero_bin = int(np.floor((0 + math.pi) / (2 * math.pi / 8)))
        assert h[:, zero_bin, 0] == pytest.approx(1.0)
        assert np.delete(h, zero_bin, axis=1).sum() == 0

    def test_zero_magnitude(self):
        z = np.zeros((3, 2, 2))
        h = phase_histograms(z, z, z, np.full((3, 2), 0.5), bins=4)
        assert h.sum() == 0

    def test_hand_binning(self):
        # joints at angles 0 and pi/2, weights (0.25, 0.75), unit magnitudes, K=4
        mx = np.array([[[1.0], [0.0]]])
        my = np.array([[[0.0], [1.0]]])
        mag = np.ones((1, 2, 1))
        w = np.array([[0.25, 0.75]])
        h = phase_histograms(mx, my, mag, w, bins=4)
        # K=4 bins over [-pi, pi): angle 0 -> bin 2, angle pi/2 -> bin 3
        assert relerr(h[0, :, 0], [0.0, 0.0, 0.25, 0.75]) < 1e-12

    def test_mass_conservation(self, rng):
        bank = rhythm.build_wavelet_bank(2, 2)
        p = PoseSequence(data=rng.uniform(0, 1, (9, 3, 2)), fps=30)
        feats = rhythm.clip_features(p, bank, bins=4)
        params = tiny_params(rng)
        w = rhythm.joint_weight_tensor(feats, params).data
        h = phase_histograms(feats.mx, feats.my, feats.mag_s, w, bins=4)
        lhs = h.sum(axis=1)
        rhs = (w[:, :, None] * feats.mag_s).sum(axis=1)
        assert relerr(lhs, rhs) < 1e-9

    def test_pi_wraps_to_bin_zero(self):
        mx = np.array([[[-1.0]]])
        my = np.array([[[0.0]]])  # atan2 = pi exactly
        h = phase_histograms(mx, my, np.ones((1, 1, 1)), np.ones((1, 1)), bins=4)
        assert h[0, 0, 0] == pytest.approx(1.0)


class TestFuseAndExtract:
    def test_zero_motion_gate_half(self, rng):
        params = tiny_params(rng)
        p = PoseSequence(data=np.ones((6, 2, 2)), fps=30)
        bank = rhythm.build_wavelet_bank(2, 2)
        r, gate = rhythm.rhythm_core_tensor(rhythm.clip_features(p, bank, params.bins), params)
        assert np.abs(r.data).max() == 0
        assert relerr(gate.data, np.full_like(gate.data, 0.5)) < 1e-12

    def test_gate_in_open_interval(self, rng):
        p = PoseSequence(data=rng.uniform(0, 1, (8, 3, 2)), fps=30)
        bank = rhythm.build_wavelet_bank(2, 2)
        params = tiny_params(rng)
        _, gate = rhythm.rhythm_core_tensor(rhythm.clip_features(p, bank, params.bins), params)
        assert (gate.data > 0).all() and (gate.data < 1).all()

    def test_output_shape_and_padding(self, rng):
        p = PoseSequence(data=rng.uniform(0, 1, (10, 3, 2)), fps=30)
        bank = rhythm.build_wavelet_bank(2, 2)
        params = tiny_params(rng)
        r = rhythm.extract_rhythm(p, bank, params)
        assert r.data.shape == (10, 3)
        assert np.array_equal(r.data[-1], r.data[-2])
        assert np.isfinite(r.data).all()

    def test_hand_fuse_case(self):
        # 1 scale, K=2, D=2, 2-frame input, hand-set projection
        rng = np.random.default_rng(0)
        params = rhythm.RhythmParams.init(rng, 1, 2, 2, hidden_w=1, hidden_a=1)
        params.w1.data[:] = 0.0  # uniform weights over the single joint
        params.w2.data[:] = 0.0
        params.fuse_w.data = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        params.fuse_b.data = np.array([0.0, 0.0])
        params.a1.data[:] = 0.0  # gate = sigmoid(0) = 0.5
        params.a2.data[:] = 0.0
        mag = np.array([[1.0], [2.0]])
        wav = np.array([[[0.5]], [[0.25]]])
        mag_s = np.array([[[1.0]], [[2.0]]])
        # fusion columns (bin 0, bin 1, wavelet): frame 0 falls in bin 0, frame 1 in bin 1,
        # which is flat position 3 + 1 of the (2, 3) fusion input
        column = np.array([[[0]], [[4]]])
        feats = rhythm.ClipRhythmFeatures(
            joint_input=np.concatenate([mag[:, :, None], wav], axis=2), mag_s=mag_s,
            column=column, bins=2, pose=None, bank=None)
        out, gate = rhythm.rhythm_core_tensor(feats, params)
        # frame 0: h = [1, 0], ww = 0.5 -> core = [1+2*0.5, 0] = [2, 0]
        # frame 1: h = [0, 2], ww = 0.25 -> core = [0.5, 2]
        expect = 0.5 * np.array([[2.0, 0.0], [0.5, 2.0], [0.5, 2.0]])
        assert relerr(out.data, expect) < 1e-12

    def test_joint_permutation_invariance(self, rng):
        bank = rhythm.build_wavelet_bank(2, 2)
        params = tiny_params(rng)
        data = rng.uniform(0, 1, (8, 4, 2))
        perm = [3, 1, 0, 2]
        r1 = rhythm.extract_rhythm(PoseSequence(data=data, fps=30), bank, params)
        r2 = rhythm.extract_rhythm(PoseSequence(data=data[:, perm, :], fps=30), bank, params)
        assert relerr(r1.data, r2.data) < 1e-9

    def test_tempo_orders_dominant_scale(self):
        bank = rhythm.build_wavelet_bank(4, 4)
        fast, _ = synth_dance(120, 8, 30, joints=4, noise_std=0, seed=1)
        slow, _ = synth_dance(60, 8, 30, joints=4, noise_std=0, seed=1)
        s_fast = int(np.argmax(rhythm.scale_energy(fast, bank)))
        s_slow = int(np.argmax(rhythm.scale_energy(slow, bank)))
        assert s_fast != s_slow
        periods = [4 * 2 ** s for s in range(len(bank))]
        assert periods[s_fast] < periods[s_slow]

    def test_gradient_vs_fd(self, rng):
        bank = rhythm.build_wavelet_bank(2, 2)
        p = PoseSequence(data=rng.uniform(0, 1, (4, 2, 2)), fps=30)
        params = tiny_params(rng)
        feats = rhythm.clip_features(p, bank, bins=4)
        c = rng.standard_normal((4, 3))

        def loss_value():
            out, _ = rhythm.rhythm_core_tensor(feats, params)
            return tsum(tz.mul(out, c))

        leaves = [(name, getattr(params, name))
                  for name, _, _ in rhythm.RhythmParams.layout(2, 4, 3, 4, 4)]
        for name, leaf in leaves:
            leaf.grad = None
        with Tape():
            backward(loss_value())
        for name, leaf in leaves:
            fd = finite_difference(lambda: loss_value().item(), leaf.data)
            got = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            assert relerr(got, fd) < 1e-4, f"{name}: {relerr(got, fd)}"


class TestFeatureMemory:
    def test_long_clip_holds_no_bin_wide_array(self):
        # a 20 s clip at the default config: the magnitude plus five (T-1, J, S)
        # arrays, and nothing K times as wide
        cfg = RunConfig(duration_s=20.0)
        p, _ = synth_dance(120.0, cfg.duration_s, cfg.fps, cfg.joints, seed=1)
        bank = rhythm.build_wavelet_bank(cfg.scales, cfg.base_period)
        feats = rhythm.clip_features(p, bank, cfg.bins)
        held = {}
        for field in dataclasses.fields(feats):
            a = getattr(feats, field.name)
            while isinstance(a, np.ndarray) and isinstance(a.base, np.ndarray):
                a = a.base  # a view keeps its whole base alive
            if isinstance(a, np.ndarray):
                held[id(a)] = a.nbytes
        cells = (p.frames - 1) * cfg.joints
        assert sum(held.values()) <= cells * 8 + 5 * cells * cfg.scales * 8

    def test_holds_the_speed_wavelet_and_magnitudes_and_the_columns(self, rng):
        # per frame and joint: 1 + 2S floats (the speed, S wavelet responses, S
        # magnitudes) and S integer columns; magnitude and wavelet are views
        T, J, S = 12, 5, 3
        p = PoseSequence(data=rng.uniform(0, 1, (T, J, 2)), fps=30)
        feats = rhythm.clip_features(p, rhythm.build_wavelet_bank(S, 2.0), 4)
        held = [getattr(feats, f.name) for f in dataclasses.fields(feats)]
        held = [a for a in held if isinstance(a, np.ndarray)]
        assert all(a.base is None for a in held)
        assert sum(a.size for a in held if a.dtype.kind == "f") == (T - 1) * J * (1 + 2 * S)
        assert sum(a.size for a in held if a.dtype.kind == "i") == (T - 1) * J * S
        assert np.shares_memory(feats.magnitude, feats.joint_input)
        assert np.shares_memory(feats.wavelet, feats.joint_input)

    def test_filter_output_freed_on_return(self, rng, monkeypatch):
        filtered, conv_cols = [], rhythm._conv_cols

        def recording(signal, bank):
            out = conv_cols(signal, bank)
            filtered.append((out.shape, weakref.ref(out)))
            return out

        monkeypatch.setattr(rhythm, "_conv_cols", recording)
        p = PoseSequence(data=rng.uniform(0, 1, (12, 5, 2)), fps=30)
        feats = rhythm.clip_features(p, rhythm.build_wavelet_bank(3, 2.0), 4)
        [(shape, ref)] = filtered
        assert shape == (11, 15, 3) and ref() is None
        # mx and my refilter the pose and stay readable
        assert feats.mx.shape == feats.my.shape == (11, 5, 3)


class TestRhythmFile:
    def test_round_trip(self, tmp_path, rng):
        r = rhythm.RhythmEmbedding(data=rng.standard_normal((5, 3)), fps=30)
        path = tmp_path / "r.rhythm"
        rhythm.save_rhythm(r, path)
        q = rhythm.load_rhythm(path)
        assert np.array_equal(q.data, r.data)
        assert q.fps == 30
