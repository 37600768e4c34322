import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dancebeat import align, tensor as tz
from dancebeat.errors import ConfigError
from dancebeat.rhythm import RhythmEmbedding
from dancebeat.tensor import Tape, Tensor, backward

from conftest import finite_difference, relerr, tsum


class TestSegmentSpans:
    def test_exact_division(self):
        spans = align.segment_spans(150, 50)
        assert len(spans) == 50
        assert all(b - a == 3 for a, b in spans)

    def test_balanced_remainder(self):
        # cuts at floor(i*10/3) = 0, 3, 6, 10: the longer segment comes where
        # the linear map's fractions add up to a frame, here last
        spans = align.segment_spans(10, 3)
        assert [b - a for a, b in spans] == [3, 3, 4]

    def test_singletons(self):
        assert align.segment_spans(5, 5) == [(i, i + 1) for i in range(5)]

    def test_too_many_segments(self):
        with pytest.raises(ConfigError):
            align.segment_spans(4, 5)

    @given(st.integers(1, 2000).flatmap(lambda T: st.tuples(st.just(T), st.integers(1, T))))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_partition_property(self, split):
        """The spans partition [0, T) into lengths that differ by at most one;
        segment i starts less than one frame behind i*T/T_m, and every frame f
        lies within one latent step of f*T_m/T, where `map_to_latent` puts it."""
        T, T_m = split
        spans = align.segment_spans(T, T_m)
        assert len(spans) == T_m and spans[0][0] == 0 and spans[-1][1] == T
        assert all(spans[i][1] == spans[i + 1][0] for i in range(T_m - 1))
        lengths = [b - a for a, b in spans]
        assert min(lengths) >= 1 and max(lengths) - min(lengths) <= 1
        for i, (a, b) in enumerate(spans):
            for f in range(a, b):  # |i - f*T_m/T| <= 1
                assert abs(i * T - f * T_m) <= T, (f, i, f * T_m / T)
            assert 0 <= i * T - a * T_m < T_m  # 0 <= i*T/T_m - a < 1


class TestAttentionPool:
    def test_identical_rows(self, rng):
        row = rng.standard_normal(4)
        seg = np.tile(row, (5, 1))
        out = align.attention_pool(seg, rng.standard_normal(4))
        assert relerr(out.data[0], row) < 1e-12

    def test_single_row(self, rng):
        seg = rng.standard_normal((1, 3))
        out = align.attention_pool(seg, rng.standard_normal(3))
        assert np.array_equal(out.data[0], seg[0])

    def test_hand_two_row_softmax(self):
        seg = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = np.array([10.0, 0.0])
        out = align.attention_pool(seg, q).data[0]
        s0, s1 = 10 / math.sqrt(2), 0.0
        w0 = math.exp(s0) / (math.exp(s0) + math.exp(s1))
        assert relerr(out, [w0, 1 - w0]) < 1e-12
        assert out[0] == pytest.approx(0.99917, abs=3e-5)

    def test_query_scale_saturation(self, rng):
        seg = rng.standard_normal((4, 3))
        q = rng.standard_normal(3)
        out = align.attention_pool(seg, 1e3 * q).data[0]
        best = seg[np.argmax(seg @ q)]
        assert relerr(out, best) < 1e-6


class TestAlign:
    def _queries(self, rng, count, dim):
        return align.ContextQueries.init(rng, count, dim)

    def test_constant_input(self, rng):
        row = rng.standard_normal(3)
        r = RhythmEmbedding(data=np.tile(row, (12, 1)), fps=30)
        out = align.align(r, self._queries(rng, 4, 3))
        assert relerr(out.data, np.tile(row, (4, 1))) < 1e-12

    def test_identity_regime(self, rng):
        data = rng.standard_normal((6, 3))
        r = RhythmEmbedding(data=data, fps=30)
        out = align.align(r, self._queries(rng, 6, 3))
        assert np.array_equal(out.data, data)

    def test_dim_mismatch(self, rng):
        r = RhythmEmbedding(data=np.zeros((6, 3)), fps=30)
        with pytest.raises(ConfigError):
            align.align(r, self._queries(rng, 2, 4))

    def test_convex_hull(self, rng):
        data = rng.standard_normal((17, 4))
        r = RhythmEmbedding(data=data, fps=30)
        out = align.align(r, self._queries(rng, 5, 4))
        for i, (a, b) in enumerate(align.segment_spans(17, 5)):
            lo, hi = data[a:b].min(axis=0), data[a:b].max(axis=0)
            assert (out.data[i] >= lo - 1e-12).all()
            assert (out.data[i] <= hi + 1e-12).all()

    def test_locality(self, rng):
        data = rng.standard_normal((12, 3))
        q = self._queries(rng, 4, 3)
        base = align.align(RhythmEmbedding(data=data, fps=30), q).data
        bumped = data.copy()
        bumped[3:6] += 1.0  # segment 1 only
        out = align.align(RhythmEmbedding(data=bumped, fps=30), q).data
        assert relerr(base[0], out[0]) < 1e-12
        assert relerr(base[2:], out[2:]) < 1e-12
        assert np.abs(base[1] - out[1]).max() > 1e-6

    def test_output_length_matches_queries(self, rng):
        q = self._queries(rng, 7, 3)
        for T in (7, 12, 30):
            r = RhythmEmbedding(data=rng.standard_normal((T, 3)), fps=30)
            assert align.align(r, q).data.shape == (7, 3)

    def test_query_gradient_vs_fd(self, rng):
        data = rng.standard_normal((6, 3))
        q = self._queries(rng, 2, 3)
        c = rng.standard_normal((2, 3))

        def loss():
            return tsum(tz.mul(align.align_tensor(Tensor(data), q), c))

        with Tape():
            backward(loss())
        fd = finite_difference(lambda: loss().item(), q.data.data)
        assert relerr(q.data.grad, fd) < 1e-4
