"""The batched alignment, histogram, attention and wavelet paths agree with
their one-op-per-segment/bin/head/column forms in tests/conftest.py, the
one-pass softmax, layer_norm and mse with their multi-pass and multi-node
forms there, and the one-expression frame scans with their per-frame loops."""
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dancebeat import align, flowgen, metrics, pose, rhythm, tensor as tz
from dancebeat.config import RunConfig
from dancebeat.errors import ShapeError
from dancebeat.tensor import Tape, Tensor, backward

from conftest import (align_loop, attention_pool_loop, binary_rhythm_loop, conv_cols_loop,
                      finite_difference, fusion_features_loop, fusion_features_matmul,
                      latent_peaks_loop, layer_norm_oracle, local_minima_loop,
                      map_to_latent_loop, mean_pool_loop, mean_pool_weighted, mse_chain,
                      relerr, self_attention_loop, self_attention_scaled_scores, softmax_oracle,
                      tsum)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def value_and_grads(build, leaves, c):
    """build()'s value and the gradients of sum(build() * c) at `leaves`."""
    for leaf in leaves:
        leaf.grad = None
    with Tape():
        out = build()
        backward(tsum(tz.mul(out, c)))
    return out.data, [leaf.grad for leaf in leaves]


def tape_buffers(build) -> list[int]:
    """Sizes in bytes of the numpy buffers that build()'s tape keeps alive
    once build()'s result is dropped, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        with Tape():
            build()
            snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    numpy_only = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return [trace.size for trace in snapshot.filter_traces([numpy_only]).traces]


def assert_same(batched, loop, leaves, c, tol=1e-12):
    got, got_g = value_and_grads(batched, leaves, c)
    want, want_g = value_and_grads(loop, leaves, c)
    assert relerr(got, want) < tol
    for g, w in zip(got_g, want_g):
        assert relerr(g, w) < tol


@st.composite
def segmentations(draw):
    T = draw(st.integers(1, 40))
    return T, draw(st.integers(1, T)), draw(st.integers(1, 6))


class TestAlignment:
    @given(segmentations(), st.sampled_from([1.0, 1e3]), st.integers(0, 2 ** 32 - 1))
    @PROPERTY
    def test_masked_softmax_matches_segment_loop(self, shape, scale, seed):
        T, count, D = shape
        rng = np.random.default_rng(seed)
        r = Tensor(rng.standard_normal((T, D)), requires_grad=True)
        q = align.ContextQueries(Tensor(scale * rng.standard_normal((count, D)),
                                        requires_grad=True))
        assert_same(lambda: align.align_tensor(r, q), lambda: align_loop(r, q.data),
                    [r, q.data], rng.standard_normal((count, D)))

    @given(segmentations(), st.integers(0, 2 ** 32 - 1))
    @PROPERTY
    def test_mean_pool_matches_segment_loop(self, shape, seed):
        T, count, D = shape
        rng = np.random.default_rng(seed)
        r = Tensor(rng.standard_normal((T, D)), requires_grad=True)
        assert_same(lambda: flowgen.mean_pool_align(r, count), lambda: mean_pool_loop(r, count),
                    [r], rng.standard_normal((count, D)))

    @given(segmentations(), st.integers(0, 2 ** 32 - 1))
    @PROPERTY
    def test_mean_pool_is_zero_query_attention(self, shape, seed):
        # zero queries weigh each slot of a segment alike, as a 1/n weighted sum does
        T, count, D = shape
        rng = np.random.default_rng(seed)
        r = Tensor(rng.standard_normal((T, D)), requires_grad=True)
        c = rng.standard_normal((count, D))
        zero = align.ContextQueries(Tensor(np.zeros((count, D))))
        got, (got_g,) = value_and_grads(lambda: flowgen.mean_pool_align(r, count), [r], c)
        want, (want_g,) = value_and_grads(lambda: align.align_tensor(r, zero), [r], c)
        assert np.array_equal(got, want) and np.array_equal(got_g, want_g)
        assert_same(lambda: flowgen.mean_pool_align(r, count),
                    lambda: mean_pool_weighted(r, count), [r], c)

    @given(st.integers(1, 7), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    @PROPERTY
    def test_attention_pool_is_the_one_segment_case(self, n, D, seed):
        rng = np.random.default_rng(seed)
        seg = Tensor(rng.standard_normal((n, D)), requires_grad=True)
        q = Tensor(1e3 * rng.standard_normal(D), requires_grad=True)
        assert_same(lambda: align.attention_pool(seg, q), lambda: attention_pool_loop(seg, q),
                    [seg, q], rng.standard_normal((1, D)))

    @pytest.mark.parametrize("T", [1, 7, 150])
    def test_one_frame_per_query_is_identity(self, rng, T):
        r = Tensor(rng.standard_normal((T, 5)))
        q = align.ContextQueries.init(rng, T, 5)
        assert np.array_equal(align.align_tensor(r, q).data, r.data)
        assert np.array_equal(flowgen.mean_pool_align(r, T).data, r.data)

    def test_segment_slots_partition_the_frames(self):
        # spans [0, 3), [3, 6), [6, 10): a slot past a segment's end reads its last frame
        slots, inside = align.segment_slots(10, 3)
        assert slots.tolist() == [[0, 1, 2, 2], [3, 4, 5, 5], [6, 7, 8, 9]]
        assert inside.tolist() == [[True] * 3 + [False], [True] * 3 + [False], [True] * 4]

    def test_masked_softmax_gradients_vs_fd(self, rng):
        r = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        q = align.ContextQueries(Tensor(rng.standard_normal((3, 3)), requires_grad=True))
        c = rng.standard_normal((3, 3))
        _, grads = value_and_grads(lambda: align.align_tensor(r, q), [r, q.data], c)

        def loss():
            return float((align.align_tensor(r, q).data * c).sum())

        for leaf, g in zip([r, q.data], grads):
            assert relerr(g, finite_difference(loss, leaf.data)) < 1e-8


def one_block(seed: int, hidden: int, heads: int) -> flowgen.TransformerBlock:
    """The transformer block of a freshly drawn one-block model."""
    cfg = RunConfig(seed=seed, blocks=1, hidden=hidden, heads=heads, latent_dim=2,
                    rhythm_dim=2, cond_dim=2)
    return flowgen.init_model(cfg).vf.layers[0]


class TestAttentionHeads:
    @given(st.sampled_from([1, 2, 4]), st.integers(1, 4), st.integers(1, 12),
           st.integers(0, 2 ** 32 - 1))
    @PROPERTY
    def test_head_batch_matches_head_loop(self, heads, dh, n, seed):
        hidden = heads * dh
        blk = one_block(seed, hidden, heads)
        rng = np.random.default_rng(seed + 1)
        x = Tensor(3.0 * rng.standard_normal((n, hidden)), requires_grad=True)
        leaves = [x, blk.wq, blk.wk, blk.wv, blk.wo]
        assert_same(lambda: flowgen._self_attention(x, blk, heads),
                    lambda: self_attention_loop(x, blk, heads),
                    leaves, rng.standard_normal((n, hidden)))

    @pytest.mark.parametrize("dh", [16, 12])
    def test_scaling_queries_matches_scaling_scores(self, dh):
        # scaling q is exact when 1/sqrt(dh) is a power of two, as at dh = 16,
        # but tz.attention divides e v, not e, by the row sums, so either form
        # rounds differently from the oracle, by about 1e-15 relative
        heads, n = 4, 61
        blk = one_block(dh, heads * dh, heads)
        rng = np.random.default_rng(dh + 1)
        x = Tensor(3.0 * rng.standard_normal((n, heads * dh)), requires_grad=True)
        leaves = [x, blk.wq, blk.bq, blk.wk, blk.wv, blk.bv, blk.wo, blk.bo]
        c = rng.standard_normal((n, heads * dh))
        attention = lambda: flowgen._self_attention(x, blk, heads)
        oracle = lambda: self_attention_scaled_scores(x, blk, heads)
        got, want = value_and_grads(attention, leaves, c), value_and_grads(oracle, leaves, c)
        for g, w in zip([got[0], *got[1]], [want[0], *want[1]]):
            assert relerr(g, w) < 1e-14
        # of the (heads, n, n) arrays the tape keeps only the exponentiated
        # scores: no scaled scores, no probabilities
        assert tape_buffers(attention).count(heads * n * n * 8) == 1


class TestBatchedMatmul:
    @pytest.mark.parametrize("sa, sb", [((2, 3, 4), (2, 4, 5)), ((3, 4), (2, 4, 5)),
                                        ((2, 3, 4), (4, 5)), ((2, 1, 3, 4), (3, 4, 2))])
    def test_grad_vs_fd(self, rng, sa, sb):
        a = Tensor(rng.standard_normal(sa), requires_grad=True)
        b = Tensor(rng.standard_normal(sb), requires_grad=True)
        c = rng.standard_normal(np.broadcast_shapes(sa[:-2], sb[:-2]) + (sa[-2], sb[-1]))
        _, grads = value_and_grads(lambda: tz.matmul(a, b), [a, b], c)
        assert grads[0].shape == sa and grads[1].shape == sb
        for leaf, g in zip([a, b], grads):
            fd = finite_difference(lambda: float((np.matmul(a.data, b.data) * c).sum()),
                                   leaf.data)
            assert relerr(g, fd) < 1e-8

    def test_each_batch_is_its_matrix_product(self, rng):
        a, b = rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 4, 5))
        out = tz.matmul(Tensor(a), Tensor(b)).data
        assert all(np.array_equal(out[i], a[i] @ b[i]) for i in range(3))

    @pytest.mark.parametrize("sa, sb", [((2, 3, 4), (2, 3, 5)), ((2, 3, 4), (3, 4, 5)),
                                        ((3, 4), (4,)), ((4,), (4, 3)),
                                        ((2, 1, 3, 4), (3, 2, 4, 5))])
    def test_incompatible_shapes(self, sa, sb):
        with pytest.raises(ShapeError, match=re.escape(f"{sa} and {sb}")):
            tz.matmul(Tensor(np.ones(sa)), Tensor(np.ones(sb)))


@st.composite
def kernel_inputs(draw):
    """A random array, one whose rows along the last axis are constant, or
    one whose values share a large offset; and a weight of its shape."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal(shape)
    kind = draw(st.sampled_from(["random", "constant rows", "offset"]))
    if kind == "constant rows":
        x = np.repeat(x[..., :1], shape[-1], axis=-1)
    elif kind == "offset":
        x = x + draw(st.sampled_from([1e6, -1e9]))
    return x, rng.standard_normal(shape)


class TestOnePassKernels:
    """Forward values and input gradients are bit-identical to the oracles."""

    @staticmethod
    def assert_identical(kernel, oracle, leaves, c):
        got, got_g = value_and_grads(lambda: kernel(*leaves), leaves, c)
        want, want_g = value_and_grads(lambda: oracle(*leaves), leaves, c)
        assert np.array_equal(got, want)
        for g, w in zip(got_g, want_g):
            assert np.array_equal(g, w)

    @given(kernel_inputs(), st.integers(0, 2 ** 32 - 1))
    @PROPERTY
    def test_layer_norm_matches_mean_var_oracle(self, xc, seed):
        x, c = xc
        gain, bias = np.random.default_rng(seed).standard_normal((2, x.shape[-1]))
        leaves = [Tensor(v, requires_grad=True) for v in (x, gain, bias)]
        self.assert_identical(tz.layer_norm, layer_norm_oracle, leaves, c)

    @given(kernel_inputs(), st.integers(0, 2))
    @PROPERTY
    def test_softmax_matches_out_of_place_oracle(self, xc, axis):
        x, c = xc
        axis = min(axis, x.ndim - 1)
        self.assert_identical(lambda t: tz.softmax(t, axis=axis),
                              lambda t: softmax_oracle(t, axis=axis),
                              [Tensor(x, requires_grad=True)], c)

    @given(kernel_inputs())
    @PROPERTY
    def test_mse_matches_sub_mul_mean_chain(self, xc):
        x, target = xc
        self.assert_identical(lambda t: tz.mse(t, target), lambda t: mse_chain(t, target),
                              [Tensor(x, requires_grad=True)], 0.25)


@st.composite
def poses(draw):
    """Clips of T = 2..40 frames. T comes from the seeded generator: Hypothesis
    draws an integer range's ends and small values far more often than the rest."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    T, J = int(rng.integers(2, 41)), draw(st.integers(1, 5))
    return pose.PoseSequence(rng.uniform(0, 1, (T, J, 2)), fps=30.0)


# the two shortest clips, which poses() draws no more often than any other length
SHORTEST = tuple(pose.PoseSequence(np.random.default_rng(T).uniform(0, 1, (T, 3, 2)), fps=30.0)
                 for T in (2, 3))


@st.composite
def phase_grids(draw):
    """(mx, my) on a coarse grid: joints often share a phase bin, bins stay
    empty, (0, 0) has no magnitude and (-1, 0) has a phase of exactly pi."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    coarse = arrays(np.float64, shape, elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
    return draw(coarse), draw(coarse)


class TestRhythmColumns:
    @given(poses(), st.integers(1, 4), st.sampled_from([2.0, 2.5, 3.0, 4.0]))
    @example(SHORTEST[0], 4, 2.0)
    @example(SHORTEST[1], 4, 2.5)
    @PROPERTY
    def test_wavelet_columns_match_column_loop(self, p, scales, base_period):
        bank = rhythm.build_wavelet_bank(scales, base_period)
        m = pose.motion_diff(p)
        for signal in (m.magnitude, m.diffs[:, :, 0], m.diffs[:, :, 1]):
            got, want = rhythm._conv_cols(signal, bank), conv_cols_loop(signal, bank)
            # one sample pads to a constant window, which a zero-mean kernel
            # cancels to rounding noise: bound it by |x| * sum|k| instead
            scale = (None if len(signal) > 1
                     else np.abs(signal).max() * max(np.abs(k).sum() for k in bank))
            assert relerr(got, want, scale) < 1e-12

    @given(poses(), st.integers(1, 4))
    @example(SHORTEST[0], 4)
    @example(SHORTEST[1], 3)
    @PROPERTY
    def test_stack_filters_magnitude_x_and_y_each_as_alone(self, p, scales):
        bank = rhythm.build_wavelet_bank(scales, 2.0)
        m = pose.motion_diff(p)
        feats = rhythm.clip_features(p, bank, 4)
        assert np.array_equal(feats.wavelet, rhythm._conv_cols(m.magnitude, bank))
        assert np.array_equal(feats.mx, rhythm._conv_cols(m.diffs[:, :, 0], bank))
        assert np.array_equal(feats.my, rhythm._conv_cols(m.diffs[:, :, 1], bank))

    @given(poses(), st.integers(1, 3), st.integers(2, 8))
    @example(SHORTEST[0], 3, 8)
    @example(SHORTEST[1], 2, 5)
    @PROPERTY
    def test_fusion_contraction_matches_bin_loop(self, p, scales, bins):
        feats = rhythm.clip_features(p, rhythm.build_wavelet_bank(scales, 2.0), bins)
        rng = np.random.default_rng(p.frames)
        w = Tensor(rng.dirichlet(np.ones(feats.magnitude.shape[1]), feats.magnitude.shape[0]),
                   requires_grad=True)
        assert_same(lambda: rhythm.fusion_features(feats, w),
                    lambda: fusion_features_loop(feats, w, bins),
                    [w], rng.standard_normal((feats.magnitude.shape[0], (bins + 1) * scales)))

    @given(phase_grids(), st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
    @PROPERTY
    def test_fusion_scatter_matches_dense_matmul(self, grid, bins, seed):
        mx, my = grid
        Tm1, J, S = mx.shape
        rng = np.random.default_rng(seed)
        feats = rhythm.ClipRhythmFeatures(
            joint_input=np.concatenate([np.zeros((Tm1, J, 1)), rng.standard_normal((Tm1, J, S))],
                                       axis=2),
            mag_s=np.sqrt(mx ** 2 + my ** 2), column=rhythm.fusion_column(mx, my, bins),
            bins=bins, pose=None, bank=None)
        # the grid has no pose to refilter, so the oracle reads mx and my from it
        grid_feats = SimpleNamespace(mx=mx, my=my, mag_s=feats.mag_s, wavelet=feats.wavelet,
                                     bins=bins)
        w = Tensor(rng.dirichlet(np.ones(J), Tm1), requires_grad=True)
        assert_same(lambda: rhythm.fusion_features(feats, w),
                    lambda: fusion_features_matmul(grid_feats, w),
                    [w], rng.standard_normal((Tm1, (bins + 1) * S)))

    def test_phase_pi_takes_bin_zero_column(self):
        # K = 4, S = 2, two frames: scale 0 at phase pi wraps to bin 0, scale 1 at
        # phase 0 is bin 2, and each frame's row starts (K + 1) * S = 10 further on
        mx = np.array([[[-1.0, 1.0]], [[-1.0, 1.0]]])
        assert rhythm.fusion_column(mx, np.zeros_like(mx), 4).tolist() == [[[0, 5]], [[10, 15]]]


# few distinct values, so plateaus and ties are common; lengths from 0
signals = st.lists(st.integers(-2, 2), max_size=12).map(lambda v: np.array(v, dtype=np.float64))


@st.composite
def beat_grids(draw):
    T = draw(st.integers(1, 300))
    frames = sorted(draw(st.sets(st.integers(0, T - 1), max_size=30)))
    return pose.BeatGrid(beat_frames=frames, timeline_len=T, fps=30.0)


class TestPerFrameScans:
    """The one-expression scans return exactly what their per-frame loops
    in tests/conftest.py return, as lists of Python ints."""

    @staticmethod
    def assert_same_frames(got, want):
        assert got == want and all(type(i) is int for i in got)

    @given(signals)
    @PROPERTY
    def test_local_minima_match_loop(self, s):
        self.assert_same_frames(pose.local_minima(s), local_minima_loop(s))

    @given(signals.filter(len), st.sampled_from([0.0, 0.5, 1.0]))
    @PROPERTY
    def test_latent_peaks_match_loop(self, c, rel_threshold):
        # a latent has at least one frame: a beat grid's timeline is never empty
        det = metrics.detect_latent_beats(pose.MusicLatent(data=c[:, None]), rel_threshold)
        self.assert_same_frames(det.beat_frames, latent_peaks_loop(c, rel_threshold))

    @given(beat_grids(), st.integers(1, 120))
    @PROPERTY
    def test_map_to_latent_matches_loop(self, grid, latent_len):
        self.assert_same_frames(pose.map_to_latent(grid, latent_len),
                                map_to_latent_loop(grid, latent_len))

    @given(st.integers(2, 12), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    @PROPERTY
    def test_binary_rhythm_matches_loop(self, T, J, seed):
        # coarse coordinates, so equal speeds are common
        data = np.random.default_rng(seed).integers(0, 3, (T, J, 2)) / 2.0
        p = pose.PoseSequence(data=data, fps=30.0)
        assert np.array_equal(rhythm.baseline_binary_rhythm(p, 3), binary_rhythm_loop(p, 3))

