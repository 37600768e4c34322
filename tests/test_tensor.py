import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dancebeat import tensor as tz
from dancebeat.errors import ConfigError, ContractError, ShapeError
from dancebeat.tensor import Tape, Tensor, backward

from conftest import (conv1d_same, finite_difference, linear_oracle, reflect_indices, relerr,
                      sub, tmean, transpose, tsum)


def check_grad(build, leaves, eps=1e-5, tol=1e-6):
    """Compare tape gradients of scalar build() against central differences."""
    for leaf in leaves:
        leaf.grad = None
    with Tape():
        loss = build()
        backward(loss)
    for leaf in leaves:
        fd = finite_difference(lambda: build().item(), leaf.data, eps=eps)
        got = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        assert relerr(got, fd) < tol, f"grad mismatch: {relerr(got, fd)}"


class TestMatmul:
    def test_identity(self):
        b = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(tz.matmul(Tensor(np.eye(3)), Tensor(b)).data, b)

    def test_hand_case(self):
        out = tz.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            tz.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grad_vs_fd(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        check_grad(lambda: tsum(tz.matmul(a, b)), [a, b])
        # analytic check: d sum(AB)/dA = ones @ B^T
        a.grad = None
        with Tape():
            backward(tsum(tz.matmul(a, b)))
        assert relerr(a.grad, np.ones((3, 2)) @ b.data.T) < 1e-12


class TestConv1dSame:
    def test_identity_kernel(self):
        s = np.array([3.0, -1.0, 2.0, 5.0])
        assert np.array_equal(conv1d_same(Tensor(s), np.array([1.0])).data, s)

    def test_zero_signal(self):
        out = conv1d_same(Tensor(np.zeros(6)), np.array([0.2, 0.5, 0.3]))
        assert np.array_equal(out.data, np.zeros(6))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            conv1d_same(Tensor(np.zeros(5)), np.array([1.0, 1.0]))

    def test_impulse_reproduces_kernel(self, rng):
        # interior impulse: output window equals the reversed-correlation copy
        # of the kernel, checked against a brute-force direct-sum oracle
        T, L = 11, 5
        k = rng.standard_normal(L)
        s = np.zeros(T)
        s[5] = 1.0
        out = conv1d_same(Tensor(s), k).data

        pad = L // 2
        idx = reflect_indices(T, pad)
        padded = s[idx]
        brute = np.array([sum(padded[t + l] * k[l] for l in range(L)) for t in range(T)])
        assert relerr(out, brute) < 1e-15
        assert relerr(out[3:8], k[::-1]) < 1e-15

    @given(st.integers(min_value=1, max_value=12), st.sampled_from([1, 3, 5, 7]))
    @settings(max_examples=40, deadline=None)
    def test_length_preserved(self, T, L):
        out = conv1d_same(Tensor(np.ones(T)), np.ones(L) / L)
        assert out.data.shape == (T,)

    def test_grad_vs_fd(self, rng):
        s = Tensor(rng.standard_normal(9), requires_grad=True)
        k = rng.standard_normal(5)
        check_grad(lambda: tsum(tz.mul(conv1d_same(s, k),
                                          conv1d_same(s, k))), [s])

    def test_grad_with_repeated_reflection(self, rng):
        # kernel wider than the signal exercises multi-bounce padding
        s = Tensor(rng.standard_normal(3), requires_grad=True)
        k = rng.standard_normal(7)
        check_grad(lambda: tsum(tz.mul(conv1d_same(s, k),
                                          conv1d_same(s, k))), [s])


class TestSoftmax:
    def test_uniform(self):
        assert relerr(tz.softmax(Tensor([0.0, 0.0, 0.0])).data, np.full(3, 1 / 3)) < 1e-15

    def test_large_logits_stable(self):
        y = tz.softmax(Tensor([1000.0, 0.0])).data
        assert np.isfinite(y).all()
        assert y[0] == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, xs):
        y = tz.softmax(Tensor(xs)).data
        assert (y >= 0).all()
        if max(xs) - min(xs) < 700:  # beyond that, exp underflows to exact 0
            assert (y > 0).all()
        assert abs(y.sum() - 1.0) < 1e-9

    def test_grad_vs_fd(self, rng):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        c = rng.standard_normal((4, 5))
        check_grad(lambda: tsum(tz.mul(tz.softmax(x, axis=1), c)), [x])


def attention_reference(q, k, v, heads: int) -> np.ndarray:
    """Each head's softmax(q_h k_hᵀ / sqrt(dh)) v_h in numpy, heads side by side."""
    n, hidden = q.shape
    dh = hidden // heads
    outs = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        s = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        p = np.exp(s - s.max(axis=1, keepdims=True))
        outs.append(p / p.sum(axis=1, keepdims=True) @ v[:, sl])
    return np.concatenate(outs, axis=1)


class TestAttention:
    DH = 3  # 1/sqrt(3) is inexact, so scaling q rounds differently from scaling scores

    def qkv(self, rng, heads, n):
        return [Tensor(rng.standard_normal((n, heads * self.DH)), requires_grad=True)
                for _ in range(3)]

    def loss_grads(self, q, k, v, heads, c):
        with Tape():
            y = tz.attention(q, k, v, heads)
            backward(tsum(tz.mul(y, c)))
        return y.data, [t.grad for t in (q, k, v)]

    @pytest.mark.parametrize("n", [1, 2, 61])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_grad_vs_fd(self, rng, heads, n):
        q, k, v = self.qkv(rng, heads, n)
        c = rng.standard_normal((n, heads * self.DH))
        y = tz.attention(q, k, v, heads).data
        assert relerr(y, attention_reference(q.data, k.data, v.data, heads)) < 1e-14
        check_grad(lambda: tsum(tz.mul(tz.attention(q, k, v, heads), c)), [q, k, v])

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_one_token_gives_q_and_k_exactly_zero_gradient(self, rng, heads):
        # the lone score's softmax is 1 whatever q and k are
        q, k, v = self.qkv(rng, heads, 1)
        c = rng.standard_normal((1, heads * self.DH))
        y, (gq, gk, gv) = self.loss_grads(q, k, v, heads, c)
        assert np.array_equal(y, v.data) and np.array_equal(gv, c)
        assert not gq.any() and not gk.any()

    def test_saturated_rows_stay_finite(self, rng):
        heads, n = 4, 61
        q, k, v = self.qkv(rng, heads, n)
        q.data *= 1e3  # scores of order 1e3: each row's softmax is all but one-hot
        c = rng.standard_normal((n, heads * self.DH))
        y, grads = self.loss_grads(q, k, v, heads, c)
        assert relerr(y, attention_reference(q.data, k.data, v.data, heads)) < 1e-12
        assert all(np.isfinite(a).all() for a in (y, *grads))

    @pytest.mark.parametrize("grads", [(True, False, False), (False, True, False),
                                       (False, False, True), (True, True, False),
                                       (False, True, True), (False, False, False)])
    def test_only_the_inputs_that_want_a_gradient_get_one(self, grads):
        heads, n = 2, 7
        rng = np.random.default_rng(5)
        full = self.qkv(rng, heads, n)
        c = rng.standard_normal((n, heads * self.DH))
        _, want = self.loss_grads(*full, heads, c)
        some = [Tensor(t.data, requires_grad=r) for t, r in zip(full, grads)]
        _, got = self.loss_grads(*some, heads, c)
        for g, w, r in zip(got, want, grads):
            assert (g is None) if not r else g.tobytes() == w.tobytes()

    def test_backward_holds_at_most_two_score_arrays(self, rng):
        heads, n = 4, 96
        q, k, v = self.qkv(rng, heads, n)
        c = rng.standard_normal((n, heads * self.DH))
        scores = heads * n * n * 8
        tracemalloc.start()
        try:
            with Tape():
                loss = tsum(tz.mul(tz.attention(q, k, v, heads), c))
                tracemalloc.reset_peak()
                backward(loss)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the node's exponentiated scores and one working array; every other
        # buffer is (n, heads * dh), so a third (heads, n, n) array would pass 3x
        assert scores < peak < 3 * scores


class TestBatchedMaskedAttention:
    """Leading batch axes, nq != nk and a constant additive mask: the form
    alignment calls, each query attending over one segment's frames."""
    LEAD, NQ, NK, HEADS, DH = (2, 3), 2, 5, 2, 3

    def operands(self, rng):
        hidden = self.HEADS * self.DH
        q = Tensor(rng.standard_normal((*self.LEAD, self.NQ, hidden)), requires_grad=True)
        k, v = (Tensor(rng.standard_normal((*self.LEAD, self.NK, hidden)), requires_grad=True)
                for _ in range(2))
        keep = rng.uniform(size=(*self.LEAD, 1, 1, self.NK)) < 0.6
        keep[..., 0] = True  # every query sees one key at least
        return q, k, v, keep, np.where(keep, 0.0, -np.inf)

    def test_matches_each_batch_over_its_unmasked_keys(self, rng):
        q, k, v, keep, mask = self.operands(rng)
        y = tz.attention(q, k, v, self.HEADS, mask).data
        assert y.shape == q.shape
        for b in np.ndindex(*self.LEAD):
            cols = keep[b][0, 0]
            want = attention_reference(q.data[b], k.data[b][cols], v.data[b][cols], self.HEADS)
            assert relerr(y[b], want) < 1e-14

    def test_grad_vs_fd(self, rng):
        q, k, v, _, mask = self.operands(rng)
        c = rng.standard_normal(q.shape)
        check_grad(lambda: tsum(tz.mul(tz.attention(q, k, v, self.HEADS, mask), c)),
                   [q, k, v])

    def test_a_masked_key_gets_exactly_zero_weight_and_gradient(self, rng):
        # one head over the identity as values: the output is the weights
        nq, nk = 4, 6
        q = Tensor(rng.standard_normal((2, nq, nk)), requires_grad=True)
        k = Tensor(rng.standard_normal((2, nk, nk)), requires_grad=True)
        v = Tensor(np.broadcast_to(np.eye(nk), (2, nk, nk)), requires_grad=True)
        keep = np.array([[True, False, True, True, False, True],
                         [False, True, True, False, True, True]])
        with Tape():
            w = tz.attention(q, k, v, 1, np.where(keep, 0.0, -np.inf)[:, None, None, :])
            backward(tsum(tz.mul(w, rng.standard_normal(w.shape))))
        for b in range(2):
            assert not w.data[b][:, ~keep[b]].any() and (w.data[b][:, keep[b]] > 0).all()
            assert not k.grad[b][~keep[b]].any() and not v.grad[b][~keep[b]].any()
        assert relerr(w.data.sum(axis=-1), np.ones((2, nq))) < 1e-15


class TestWeightedScatter:
    def test_grad_vs_fd(self, rng):
        # 3 rows of width 6 + S: four joints' two scales often share a column
        n, J, S, width = 3, 4, 2, 6
        index = (np.arange(0, n * (width + S), width + S)[:, None, None]
                 + rng.integers(0, width, (n, J, S)))
        values, dense = rng.standard_normal((n, J, S)), rng.standard_normal((n, J, S))
        w = Tensor(rng.standard_normal((n, J)), requires_grad=True)
        c = rng.standard_normal((n, width + S))
        check_grad(lambda: tsum(tz.mul(tz.weighted_scatter(w, index, values, dense, width),
                                          c)), [w])


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            backward(tsum(tz.mul(x, x)))
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_unreachable_leaf_zero(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([3.0], requires_grad=True)
        with Tape():
            backward(tsum(tz.mul(x, x)))
        assert y.grad is None

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = tz.mul(x, x)
            with pytest.raises(ContractError):
                backward(y)

    def test_shared_subexpression_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape():
            backward(tsum(tz.add(x, x)))
        assert np.array_equal(x.grad, [2.0])

    def test_repeated_backward_accumulates(self):
        # each tape's backward adds into the leaves; a spent tape cannot run again
        x = Tensor([1.0], requires_grad=True)
        with Tape():
            loss = tsum(tz.mul(x, x))
            backward(loss)
            g1 = x.grad.copy()
            with pytest.raises(ContractError, match="already unwound this tape"):
                backward(loss)
        assert np.array_equal(x.grad, g1)
        with Tape():
            backward(tsum(tz.mul(x, x)))
        assert np.array_equal(x.grad, 2 * g1)

    def test_only_leaves_keep_a_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        with Tape() as tape:
            h = tz.relu(tz.linear(x, w, b))
            loss = tsum(tz.mul(h, tz.softmax(tz.linear(x, w), axis=1)))
            slots = [out for out, _ in tape._records]
            backward(loss)
        assert all(out.grad is None for out in slots)
        assert all(t.grad is not None for t in (x, w, b))

    def test_backward_spends_the_tape(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        with Tape() as tape:
            h = tz.relu(x)
            saved = weakref.ref(h.data)  # matmul's backward reads it
            loss = tsum(tz.matmul(h, w))
            del h
            assert len(tape) == 3 and saved() is not None
            backward(loss)
            assert len(tape) == 0 and saved() is None
        assert np.allclose(w.grad, np.maximum(x.data, 0).sum(axis=0)[:, None].repeat(2, 1))


class TestWhatTheTapeKeeps:
    @pytest.mark.parametrize("op", ["relu", "softmax"])
    def test_pre_activation_freed_once_the_forward_drops_it(self, rng, op):
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = rng.standard_normal((5, 4))
        with Tape():
            pre = tz.matmul(x, w)
            held = weakref.ref(pre.data)
            y = tz.relu(pre) if op == "relu" else tz.softmax(pre, axis=-1)
            del pre
            # relu's backward and softmax's each read the op's own output
            assert held() is None
            backward(tsum(tz.mul(y, c)))
        # the same formulas in numpy, to the byte
        p = x.data @ w.data
        if op == "relu":
            mask = p > 0
            want, gp = p * mask, c * mask
        else:
            want = np.exp(p - p.max(axis=-1, keepdims=True))
            want /= want.sum(axis=-1, keepdims=True)
            gp = want * (c - (c * want).sum(axis=-1, keepdims=True))
        assert y.data.tobytes() == want.tobytes()
        assert x.grad.tobytes() == (gp @ w.data.T).tobytes()
        assert w.grad.tobytes() == (x.data.T @ gp).tobytes()

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                              st.floats(allow_nan=False)), min_size=1, max_size=12),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_relu_gradient_is_the_input_mask(self, values, seed):
        # relu keeps no mask: its backward tests its output, which must pick the same positions
        a = np.array(values)
        c = np.random.default_rng(seed).standard_normal(a.shape)
        x = Tensor(a, requires_grad=True)
        with Tape(), np.errstate(invalid="ignore"):  # -inf * False is nan, and so is the loss
            y = tz.relu(x)
            backward(tsum(tz.mul(y, c)))
            want = a * (a > 0)
        assert y.data.tobytes() == want.tobytes()
        assert x.grad.tobytes() == (c * (a > 0)).tobytes()

    def test_writing_grad_on_one_unrecorded_output_never_shows_on_another(self, rng):
        x = Tensor(rng.standard_normal(3))
        a = tz.relu(x)
        with Tape():
            b = tz.mul(x, 2.0)  # recorded by no tape: no input wants a gradient
        a.grad = np.ones(3)
        assert b.grad is None and x.grad is None and tz.relu(x).grad is None
        assert not a.requires_grad and not b.requires_grad
        b.grad = np.zeros(3)
        assert np.array_equal(a.grad, np.ones(3))


class TestLinear:
    @pytest.mark.parametrize("x_shape, x_grad", [((5, 3), True), ((2, 5, 3), True),
                                                 ((5, 3), False)],
                             ids=["2-D", "batched", "constant-x"])
    def test_one_node_equal_to_matmul_then_add(self, rng, x_shape, x_grad):
        x = Tensor(rng.standard_normal(x_shape), requires_grad=x_grad)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        c = rng.standard_normal(x_shape[:-1] + (4,))
        runs = []
        for op in (tz.linear, linear_oracle):
            for t in (x, w, b):
                t.grad = None
            with Tape() as tape:
                y = op(x, w, b)
                nodes = len(tape)
                backward(tsum(tz.mul(y, c)))
            runs.append((nodes, [y.data, x.grad, w.grad, b.grad]))
        (nodes, got), (oracle_nodes, want) = runs
        assert (nodes, oracle_nodes) == (1, 2)
        assert (x.grad is None) != x_grad
        for g, o in zip(got, want):
            assert (g is None and o is None) or (g.shape == o.shape and g.tobytes() == o.tobytes())


class TestGradientSharing:
    def test_clipping_a_shared_gradient_scales_it_once(self):
        from conftest import gather_grads
        from dancebeat.flowgen import _clip_global_norm

        # add's backward hands p and q one array: both segments of the
        # gathered vector are scaled once, and the shared array not at all
        p = Tensor(np.ones(3), requires_grad=True)
        q = Tensor(np.zeros(3), requires_grad=True)
        with Tape():
            backward(tsum(tz.mul(tz.add(p, q), 4.0)))
        shared = p.grad
        assert np.shares_memory(q.grad, shared)
        g = gather_grads([p, q])
        assert p.grad is None and q.grad is None
        _clip_global_norm(g, 1.0)
        assert relerr(g, np.full(6, 4 / np.sqrt(96))) < 1e-15
        assert np.array_equal(shared, np.full(3, 4.0))

    def test_leaf_slot_sums_in_place_into_its_view(self, rng):
        # p's two uses and a second tape add into p's segment of vec, and the
        # bias's broadcast gradient is summed to its shape first
        vec = np.zeros(10)
        p = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        p.slot, b.slot = tz.LeafSlot(vec[1:7].reshape(2, 3)), tz.LeafSlot(vec[7:])
        c = rng.standard_normal((2, 3))
        for _ in range(2):
            with Tape():
                backward(tsum(tz.mul(tz.add(tz.add(p, p), b), c)))
        assert np.shares_memory(p.grad, vec) and np.shares_memory(b.grad, vec)
        assert np.array_equal(vec, np.concatenate([[0.0], 4 * c.ravel(), 2 * c.sum(axis=0)]))

    def test_intermediate_gradient_is_never_written_in_place(self, rng):
        # add(s, h) hands s and h one array; s passes it on to q, which adopts
        # it, and to h, which must sum its two contributions into a new array
        vec = np.zeros(3)
        p = Tensor(rng.standard_normal(3), requires_grad=True)
        p.slot = tz.LeafSlot(vec)
        q = Tensor(rng.standard_normal(3), requires_grad=True)
        c = rng.standard_normal(3)
        with Tape():
            h = tz.mul(p, 2.0)
            s = tz.add(h, q)
            backward(tsum(tz.mul(tz.add(s, h), c)))
        assert np.array_equal(q.grad, c)
        assert np.array_equal(vec, 4 * c)

    def test_constant_operands_get_no_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 4)))
        m = Tensor(rng.standard_normal((4, 2)))
        left = Tensor(rng.standard_normal((2, 3)))
        with Tape():
            backward(tsum(tz.matmul(left, tz.matmul(tz.mul(c, x), m))))
        assert x.grad is not None
        assert c.grad is None and m.grad is None and left.grad is None


class TestMiscOps:
    def test_elementwise_grads(self, rng):
        x = Tensor(rng.standard_normal((3, 4)) + 2.0, requires_grad=True)
        y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = rng.standard_normal((3, 4))
        check_grad(lambda: tsum(tz.mul(sub(tz.add(x, y), tz.mul(x, y)), c)), [x, y])
        check_grad(lambda: tsum(tz.mul(tz.sigmoid(x), c)), [x])
        check_grad(lambda: tsum(tz.mul(tz.relu(y), c)), [y], tol=1e-5)

    def test_broadcast_add_grad(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        c = rng.standard_normal((3, 4))
        check_grad(lambda: tsum(tz.mul(tz.add(x, b), c)), [x, b])

    def test_concat_slice_reshape_grads(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        c = rng.standard_normal((4, 3))

        def build():
            cat = tz.concat([x, y], axis=0)
            return tz.add(tsum(tz.mul(cat, c)), tsum(x[0:1, :]))

        check_grad(build, [x, y])

    def test_mean_layernorm_grads(self, rng):
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        g = Tensor(rng.standard_normal(6), requires_grad=True)
        b = Tensor(rng.standard_normal(6), requires_grad=True)
        c = rng.standard_normal((3, 6))
        check_grad(lambda: tsum(tz.mul(tz.layer_norm(x, g, b), c)), [x, g, b], tol=1e-5)
        check_grad(lambda: tsum(tz.mul(tmean(x, axis=1, keepdims=True), c[:, :1])), [x])

    def test_mse_grad(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        target = rng.standard_normal((3, 4))
        check_grad(lambda: tz.mse(x, target), [x])

    def test_transpose_grad(self, rng):
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        c = rng.standard_normal((5, 3))
        check_grad(lambda: tsum(tz.mul(transpose(x), c)), [x])

    def test_finite_forward(self, rng):
        x = Tensor(rng.standard_normal((4, 4)) * 100)
        for op in (tz.sigmoid, tz.relu, lambda t: tz.softmax(t, axis=1),
                   lambda t: tz.layer_norm(t, np.ones(4), np.zeros(4))):
            assert np.isfinite(op(x).data).all()


class TestRepeatedIndex:
    """A position an integer-array key selects more than once gets the sum of
    its gradients, negative indices counted after wrapping."""

    @pytest.mark.parametrize("key, want", [(np.array([0, 0, 2]), [2, 0, 1]),
                                           ([-1, 2], [0, 0, 2]),
                                           ([2, -1, 0, -3], [2, 0, 2])])
    def test_repeated_rows_add(self, key, want):
        x = Tensor(np.arange(3.0), requires_grad=True)
        with Tape():
            backward(tsum(x[key]))
        assert x.grad.tolist() == want

    def test_2d_key_adds_per_row(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        with Tape():
            backward(tsum(x[np.array([[0, 1], [1, 2]])]))
        assert x.grad.tolist() == [[1, 1], [2, 2], [1, 1]]

    def test_repeated_key_grad(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        key = np.array([[0, 2], [2, -1]])
        c = rng.standard_normal((2, 2, 4))
        check_grad(lambda: tsum(tz.mul(x[key], c)), [x])


def index_arrays(n: int, shapes=((1,), (4,), (2, 3))):
    """Integer arrays into an axis of length n, negative and repeated indices included."""
    return st.sampled_from(shapes).flatmap(
        lambda shape: arrays(np.intp, shape, elements=st.integers(-n, n - 1)))


def slices(n: int):
    bound = st.none() | st.integers(-n, n)
    return st.builds(slice, bound, bound, st.sampled_from([None, 1, 2, -1]))


@st.composite
def slice_keys(draw):
    """A 2-D shape and a key on it: integer arrays, slices, an Ellipsis, and tuples of them."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    key = draw(st.one_of(index_arrays(rows), slices(rows),
                         st.tuples(index_arrays(rows), slices(cols)),
                         st.tuples(slices(rows), index_arrays(cols)),
                         st.tuples(st.just(Ellipsis), index_arrays(cols)),
                         st.tuples(index_arrays(rows, ((2, 3),)), index_arrays(cols, ((2, 3),)))))
    return (rows, cols), key


class TestSliceGradient:
    @given(slice_keys(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_grad_is_the_add_at_scatter(self, shape_key, seed):
        shape, key = shape_key
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        c = rng.standard_normal(x.data[key].shape)
        with Tape():
            backward(tsum(tz.mul(x[key], c)))
        want = np.zeros(shape)
        np.add.at(want, key, c)
        assert np.array_equal(x.grad, want)


class TestTapeLifetime:
    def test_tape_freed_when_its_block_ends(self):
        import gc
        import weakref

        from dancebeat.config import RunConfig
        from dancebeat.flowgen import cfm_loss, init_model

        model = init_model(RunConfig(scales=2, base_period=2.0, bins=4, rhythm_dim=6,
                                     hidden_w=4, hidden_a=4, blocks=1, hidden=8, heads=2,
                                     latent_len=4, latent_dim=2, cond_dim=3))
        rng = np.random.default_rng(0)
        z1, z0 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        gc.disable()
        try:
            with Tape() as tape:
                loss = cfm_loss(model, z1, z0, 0.5, rng.standard_normal((4, 6)), None)
                backward(loss)
            ref = weakref.ref(tape)
            del tape, loss
            # no reference cycle: freed without the cyclic collector
            assert ref() is None
        finally:
            gc.enable()

    def test_backward_needs_the_active_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape():
            loss = tsum(tz.mul(x, x))
        with pytest.raises(ContractError):
            backward(loss)
