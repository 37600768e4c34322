import math
import tracemalloc

import numpy as np
import pytest

from dancebeat import flowgen, tensor as tz
from dancebeat.align import ContextQueries
from dancebeat.errors import ConfigError, NumericalError
from dancebeat.config import RunConfig
from dancebeat.flowgen import (TrainedModel,
                               cfg_velocity, cfm_loss, euler_sample, train,
                               velocity)
from dancebeat.pose import (ConditioningFeatures, MusicLatent, synth_conditioning,
                            synth_dance, synth_latent)
from dancebeat.rhythm import clip_features
from dancebeat.tensor import Tape, Tensor, backward

import conftest
from conftest import relerr


def tiny_tc(**kw):
    base = dict(batch_size=2, epochs=2, learning_rate=1e-3, cond_drop_prob=0.2,
                seed=0, scales=2, base_period=2.0, bins=4, rhythm_dim=6,
                hidden_w=4, hidden_a=4, blocks=1, hidden=8, heads=2,
                latent_dim=2, latent_len=4, cond_dim=3)
    base.update(kw)
    return RunConfig(**base)


def tiny_model(tc=None):
    return flowgen.init_model(tc or tiny_tc())


def tiny_dataset(n=3, latent_len=4, latent_dim=2, cond_dim=3, frames=8, joints=2):
    out = []
    for i in range(n):
        p, grid = synth_dance(120, frames / 30, 30, joints=joints, noise_std=0.01, seed=i)
        z = synth_latent(grid, latent_len, latent_dim, seed=i + 100)
        c = synth_conditioning(2, cond_dim, seed=i + 200)
        out.append((p, z, c))
    return out


class TestVelocity:
    def test_output_shape(self, rng):
        m = tiny_model()
        z = rng.standard_normal((4, 2))
        r = rng.standard_normal((4, 6))
        c = synth_conditioning(2, 3, seed=0)
        assert velocity(m.vf, z, 0.3, r, c).data.shape == (4, 2)
        assert velocity(m.vf, z, 0.3, None, None).data.shape == (4, 2)

    def test_null_conditioning_deterministic(self, rng):
        m = tiny_model()
        z = rng.standard_normal((4, 2))
        a = velocity(m.vf, z, 0.7, None, None).data
        b = velocity(m.vf, z, 0.7, None, None).data
        assert np.array_equal(a, b)

    def test_rhythm_length_mismatch(self, rng):
        m = tiny_model()
        with pytest.raises(ConfigError):
            velocity(m.vf, rng.standard_normal((4, 2)), 0.1,
                     rng.standard_normal((5, 6)), None)

    def test_rhythm_perturbation_changes_output(self, rng):
        m = tiny_model()
        z = rng.standard_normal((4, 2))
        r = rng.standard_normal((4, 6))
        base = velocity(m.vf, z, 0.5, r, None).data
        r2 = r.copy()
        r2[2] += 1.0
        assert np.abs(velocity(m.vf, z, 0.5, r2, None).data - base).max() > 1e-9


class TestCfmLoss:
    def test_stub_exact_field_zero_loss(self, rng):
        z1 = rng.standard_normal((4, 2))
        z0 = rng.standard_normal((4, 2))
        assert tz.mse(Tensor(z1 - z0), z1 - z0).item() == 0.0

    def test_stub_zero_field(self, rng):
        z1 = rng.standard_normal((4, 2))
        z0 = rng.standard_normal((4, 2))
        assert tz.mse(Tensor(np.zeros((4, 2))), z1 - z0).item() == pytest.approx(
            np.mean((z1 - z0) ** 2))

    def test_shape_mismatch(self, rng):
        m = tiny_model()
        with pytest.raises(ConfigError):
            cfm_loss(m, np.zeros((4, 2)), np.zeros((3, 2)), 0.5, None, None)

    def test_linear_path_midpoint(self, rng):
        # at t the model sees z_t = (1-t) z0 + t z1
        m = tiny_model()
        z1, z0 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        t = 0.25
        expect_zt = 0.75 * z0 + 0.25 * z1
        got = velocity(m.vf, expect_zt, t, None, None).data
        loss = cfm_loss(m, z1, z0, t, None, None)
        manual = np.mean((got - (z1 - z0)) ** 2)
        assert loss.item() == pytest.approx(manual)


class TestCfgVelocity:
    def test_anchors_and_arithmetic(self):
        v_u = np.array([[0.0]])
        v_c = np.array([[1.0]])
        assert cfg_velocity(v_c, v_u, 1.0)[0, 0] == 1.0
        assert cfg_velocity(v_c, v_u, 0.0)[0, 0] == 0.0
        assert cfg_velocity(v_c, v_u, 4.0)[0, 0] == 4.0

    def test_affine_in_scale(self, rng):
        v_u = rng.standard_normal((3, 2))
        v_c = rng.standard_normal((3, 2))
        a = cfg_velocity(v_c, v_u, 2.0)
        b = cfg_velocity(v_c, v_u, 3.0)
        c = cfg_velocity(v_c, v_u, 4.0)
        assert relerr(c - b, b - a) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            cfg_velocity(np.zeros((2, 2)), np.zeros((3, 2)), 1.0)


class TestEulerSample:
    def test_constant_field_exact(self):
        c = np.array([[0.5, -1.0]])
        out = euler_sample(lambda z, t: np.broadcast_to(c, z.shape), (1, 2), 7, 3)
        z0 = np.random.default_rng(3).standard_normal((1, 2))
        assert relerr(out.data, z0 + c) < 1e-12

    def test_decay_field_vs_closed_form(self):
        out = euler_sample(lambda z, t: -z, (3, 2), 32, 5)
        z0 = np.random.default_rng(5).standard_normal((3, 2))
        expect = z0 * (1 - 1 / 32) ** 32
        assert relerr(out.data, expect) < 1e-12
        assert np.abs(out.data - z0 * math.exp(-1)).max() < 0.006 * np.abs(z0).max()

    def test_error_halves_with_step_size(self):
        errs = {}
        for steps in (16, 32, 64):
            factor = (1 - 1 / steps) ** steps
            errs[steps] = abs(factor - math.exp(-1))
        assert 1.7 < errs[16] / errs[32] < 2.3
        assert 3.0 < errs[16] / errs[64] < 5.0

    def test_seeded_determinism(self):
        m = tiny_model()
        field = lambda z, t: velocity(m.vf, z, t).data
        a = euler_sample(field, (4, 2), 4, 11)
        b = euler_sample(field, (4, 2), 4, 11)
        assert np.array_equal(a.data, b.data)

    def test_sampling_does_not_mutate_params(self, rng):
        m = tiny_model()
        before = {n: t.data.copy() for n, t in m.all_tensors()}
        r = rng.standard_normal((4, 6))
        euler_sample(lambda z, t: cfg_velocity(velocity(m.vf, z, t, r).data,
                                               velocity(m.vf, z, t).data, 4.0), (4, 2), 3, 0)
        for n, t in m.all_tensors():
            assert np.array_equal(before[n], t.data), n

    def test_first_non_finite_step_is_named(self):
        calls = []

        def field(z, t):
            calls.append(t)
            return np.full(z.shape, np.inf if len(calls) == 3 else 1.0)

        with pytest.raises(NumericalError, match="Euler step 3 of 8"):
            euler_sample(field, (2, 2), 8, 0)
        assert len(calls) == 3


class TestGenerate:
    """generate equals the sampler with guidance built in (conftest.euler_sample)."""

    @pytest.mark.parametrize("with_cond,conditioned", [(True, True), (False, True),
                                                       (True, False)])
    def test_matches_guided_sampler_oracle(self, with_cond, conditioned):
        tc = tiny_tc(epochs=1)
        dataset = tiny_dataset(2)
        model = train(dataset, tc)
        pose, _, c = dataset[0]
        cond = c if with_cond else None
        got = flowgen.generate(model, pose, cond, 5, 3.0, 17, conditioned=conditioned)
        if conditioned:
            r = flowgen.rhythm_condition_tensor(flowgen.rhythm_input(pose, model), model)
            want = conftest.euler_sample(model.vf, Tensor(r.data), cond, tc.latent_len,
                                         5, 3.0, 17)
        else:
            want = conftest.euler_sample(model.vf, None, None, tc.latent_len, 5, 3.0, 17)
        assert got.data.tobytes() == want.data.tobytes()


class TestTrain:
    def test_empty_dataset(self):
        with pytest.raises(ConfigError):
            train([], tiny_tc())

    @pytest.mark.parametrize("kw", [dict(latent_len=5), dict(latent_dim=3), dict(cond_dim=2)])
    def test_dataset_must_match_config(self, kw):
        with pytest.raises(ConfigError, match="the config says"):
            train(tiny_dataset(2), tiny_tc(**kw))

    def test_loss_history_finite_and_improves(self):
        tc = tiny_tc(epochs=8, learning_rate=3e-3)
        model = train(tiny_dataset(4), tc)
        assert len(model.loss_history) == 8
        assert all(math.isfinite(v) for v in model.loss_history)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_deterministic(self):
        a = train(tiny_dataset(3), tiny_tc())
        b = train(tiny_dataset(3), tiny_tc())
        assert a.loss_history == b.loss_history
        for (n1, t1), (_n2, t2) in zip(a.all_tensors(), b.all_tensors()):
            assert np.array_equal(t1.data, t2.data), n1

    def test_no_drop_leaves_null_tokens_untouched(self):
        tc = tiny_tc(cond_drop_prob=0.0, epochs=2)
        model = train(tiny_dataset(3), tc)
        fresh = tiny_model(tiny_tc(cond_drop_prob=0.0, epochs=2))
        assert np.array_equal(model.vf.null_cond.data, fresh.vf.null_cond.data)
        assert np.array_equal(model.vf.null_rhythm.data, fresh.vf.null_rhythm.data)

    def test_gradient_reaches_all_groups(self):
        dataset = tiny_dataset(1)
        tc = tiny_tc(cond_drop_prob=0.0)
        model = flowgen.init_model(tc)
        feats = clip_features(dataset[0][0], model.bank, tc.bins)
        rng = np.random.default_rng(0)
        z1 = dataset[0][1].data
        z0 = rng.standard_normal(z1.shape)
        with Tape():
            rcond = flowgen.rhythm_condition_tensor(feats, model)
            loss = cfm_loss(model, z1, z0, 0.5, rcond, dataset[0][2])
            backward(loss)
        for group in ("rhythm.", "align.", "vf."):
            assert any(t.grad is not None and np.abs(t.grad).max() > 0
                       for n, t in model.all_tensors() if n.startswith(group))

    def test_every_tensor_gets_a_gradient(self):
        # a clip-step's conditioned loss plus its dropped-conditioning loss,
        # which is the only one that reaches the null tokens
        (pose, z1, cond), = tiny_dataset(1)
        model = flowgen.init_model(tiny_tc())
        feats = clip_features(pose, model.bank, model.config.bins)
        z0 = np.random.default_rng(0).standard_normal(z1.data.shape)
        with Tape():
            rcond = flowgen.rhythm_condition_tensor(feats, model)
            backward(cfm_loss(model, z1.data, z0, 0.5, rcond, cond))
        with Tape():
            backward(cfm_loss(model, z1.data, z0, 0.5, None, None))
        peak = {n: 0.0 if t.grad is None else float(np.abs(t.grad).max())
                for n, t in model.all_tensors()}
        top = max(peak.values())
        assert {n: g for n, g in peak.items() if not g > 1e-9 * top} == {}


class TestNonFiniteGradient:
    @pytest.mark.parametrize("grad_clip", [1.0, 0.0])
    def test_stops_before_adam_applies_it(self, monkeypatch, grad_clip):
        models, snapshots, clip = [], [], flowgen._clip_global_norm
        init = flowgen.init_model

        def keep_model(cfg):
            models.append(init(cfg))
            return models[-1]

        def poisoned(g, max_norm):  # the third batch's gradient vector holds a NaN
            snapshots.append(models[0].flat.copy())
            if len(snapshots) == 3:
                g[5] = np.nan
            return clip(g, max_norm)

        monkeypatch.setattr(flowgen, "init_model", keep_model)
        monkeypatch.setattr(flowgen, "_clip_global_norm", poisoned)
        with pytest.raises(NumericalError, match="non-finite gradient norm at epoch 1, batch 0"):
            train(tiny_dataset(4), tiny_tc(grad_clip=grad_clip))
        assert len(snapshots) == 3
        assert models[0].flat.tobytes() == snapshots[-1].tobytes()
        assert models[0].flat.tobytes() != snapshots[0].tobytes()


class TestOneGradientVector:
    @pytest.mark.parametrize("kw", [dict(batch_size=1), dict(batch_size=4),
                                    dict(batch_size=2, cond_drop_prob=0.5),
                                    dict(batch_size=2, rhythm_mode="none"),
                                    dict(batch_size=3)],
                             ids=["batch1", "batch4", "drop", "no_rhythm", "batch3"])
    def test_train_matches_the_gathered_gradient_loop(self, monkeypatch, kw):
        # the same vector reaches clipping each batch, and the same flat comes
        # out, as when each leaf's gradient was its own array, gathered per batch.
        # The oracle scales each clip's loss by 1/|batch| and train scales the summed
        # vector once: the same bytes when |batch| is a power of two, else to rounding
        tc, dataset = tiny_tc(epochs=3, **kw), tiny_dataset(4)
        want, want_vectors, drops = conftest.train_loop(dataset, tc)
        models, vectors, init, clip = [], [], flowgen.init_model, flowgen._clip_global_norm

        def keep_model(cfg):
            models.append(init(cfg))
            return models[-1]

        def record(g, max_norm):
            # every leaf's gradient is a view of this one vector, and its segment of it
            tensors = list(models[0].tensors.values())
            assert all(np.shares_memory(t.grad, g) for t in tensors)
            assert np.array_equal(np.concatenate([t.grad for t in tensors], axis=None), g)
            vectors.append(g.tobytes())
            return clip(g, max_norm)

        monkeypatch.setattr(flowgen, "init_model", keep_model)
        monkeypatch.setattr(flowgen, "_clip_global_norm", record)
        got = train(dataset, tc)
        if math.log2(tc.batch_size).is_integer():
            assert vectors == want_vectors
            assert got.flat.tobytes() == want.flat.tobytes()
            assert got.loss_history == want.loss_history
        else:
            assert len(vectors) == len(want_vectors)
            assert max(relerr(np.frombuffer(a), np.frombuffer(b))
                       for a, b in zip(vectors, want_vectors)) < 1e-12
            assert relerr(got.flat, want.flat) < 1e-12
            assert relerr(got.loss_history, want.loss_history) < 1e-12
        if kw.get("cond_drop_prob"):
            assert 0 < drops < 3 * 4
        if kw.get("rhythm_mode") == "none":  # two groups get no gradient and keep their draw
            fresh = init(tc)
            assert all(np.array_equal(t.data, fresh.tensors[n].data)
                       for n, t in got.all_tensors() if n.startswith(("rhythm.", "align.")))

    def test_trained_model_has_ordinary_slots(self, tmp_path):
        # t.grad = None and a later backward act on a trained model as on a loaded one
        from dancebeat.checkpoint import load_model, save_model

        (pose, z1, cond), = dataset = tiny_dataset(1)
        trained = train(dataset, tiny_tc(epochs=1, batch_size=1))
        save_model(trained, tmp_path / "ck")
        loaded = load_model(tmp_path / "ck")
        z0 = np.random.default_rng(0).standard_normal(z1.data.shape)
        grads = []
        for model in (trained, loaded):
            assert all(type(t.slot) is tz.GradSlot and t.grad is None
                       for _, t in model.all_tensors())
            feats = flowgen.rhythm_input(pose, model)
            for _ in range(2):
                for _, t in model.all_tensors():
                    t.grad = None
                with Tape():
                    rcond = flowgen.rhythm_condition_tensor(feats, model)
                    backward(cfm_loss(model, z1.data, z0, 0.5, rcond, cond))
            grads.append([None if t.grad is None else t.grad.tobytes()
                          for _, t in model.all_tensors()])
        assert grads[0] == grads[1]
        assert sum(g is not None for g in grads[0]) > len(grads[0]) // 2


class TestClipStepMemory:
    def test_backward_peak_near_what_forward_holds(self):
        # a long_clip clip-step: 20 s clips on a 200-step latent, 211 tokens
        import tracemalloc

        tc = RunConfig(duration_s=20.0, latent_len=200)
        model = flowgen.init_model(tc)
        pose, grid = synth_dance(120, tc.duration_s, tc.fps, joints=tc.joints,
                                 noise_std=0.01, seed=0)
        z1 = synth_latent(grid, tc.latent_len, tc.latent_dim, seed=1).data
        cond = synth_conditioning(tc.cond_len, tc.cond_dim, seed=2)
        z0 = np.random.default_rng(3).standard_normal(z1.shape)
        feats = flowgen.rhythm_input(pose, model)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                rcond = flowgen.rhythm_condition_tensor(feats, model)
                loss = cfm_loss(model, z1, z0, 0.4, rcond, cond)
                forward = tracemalloc.get_traced_memory()[0] - base
                slots = [out for out, _ in tape._records]
                tracemalloc.reset_peak()
                backward(loss)
                peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # what the forward holds and the backward peak, in bytes: the tape
        # keeps only the arrays a backward formula reads
        assert forward <= 11e6 and peak <= 15e6, (forward, peak)
        assert all(out.grad is None for out in slots)
        assert all(t.grad is not None for n, t in model.all_tensors() if n.startswith("rhythm."))

    def test_train_frees_each_step_before_the_next(self, tmp_path):
        # the default shape, 4 clips, two one-batch epochs: a step's tape is
        # gone before the next step's forward, and what the call leaves
        # allocated is the model: its flat, and no gradient vector beside it
        from dancebeat import cli

        assert cli.main(["synth", "--out", str(tmp_path / "d"), "--n-clips", "4"]) == 0
        dataset = cli._load_dataset(tmp_path / "d")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model = train(dataset, RunConfig(epochs=2))
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        # 8.74 MiB when the tape's closures and `g` lived on, 7.51 MiB without them
        assert peak < 8.1 * 2**20, peak / 2**20
        assert model.flat.nbytes < held < 1.5 * model.flat.nbytes, (held, model.flat.nbytes)


class TestParameterVector:
    @pytest.mark.parametrize("source", ["init_model", "load_model", "train"])
    def test_every_tensor_is_its_segment_of_flat(self, tmp_path, source):
        from dancebeat.checkpoint import load_model, save_model

        tc = tiny_tc(epochs=1)
        model = tiny_model(tc) if source != "train" else train(tiny_dataset(2), tc)
        if source == "load_model":
            save_model(model, tmp_path / "ck")
            model = load_model(tmp_path / "ck")
        tensors = [t for _, t in model.all_tensors()]
        assert all(np.shares_memory(t.data, model.flat) for t in tensors)
        model.flat[:] = np.arange(model.flat.size)  # every value says where it lives
        assert np.array_equal(np.concatenate([t.data for t in tensors], axis=None),
                              model.flat)

    def test_adam_matches_the_per_tensor_oracle(self):
        tc = tiny_tc()
        ref, model = tiny_model(tc), tiny_model(tc)
        ref_tensors = [t for _, t in ref.all_tensors()]
        tensors = [t for _, t in model.all_tensors()]
        oracle = conftest.adam_oracle(ref_tensors, 3e-3, tc.adam_beta1, tc.adam_beta2)
        opt = flowgen.Adam(model.flat, 3e-3, tc.adam_beta1, tc.adam_beta2)
        rng = np.random.default_rng(7)
        for step in range(5):
            for i, (a, b) in enumerate(zip(ref_tensors, tensors)):
                # some tensors get no gradient, a different set each step
                scale = 10.0 ** rng.integers(-6, 3)
                g = None if (i + step) % 3 == 0 else scale * rng.standard_normal(a.data.shape)
                a.grad = b.grad = g
            oracle.step()
            opt.step(conftest.gather_grads(tensors))
            want = np.concatenate([t.data for t in ref_tensors], axis=None)
            assert model.flat.tobytes() == want.tobytes(), step

    def test_adam_holds_only_m_and_v_between_steps(self):
        flat = tiny_model(tiny_tc(hidden=64)).flat  # large beside the optimizer's own objects
        tracemalloc.start()
        try:
            opt = flowgen.Adam(flat, 3e-3, 0.9, 0.999)
            for _ in range(3):
                opt.step(np.ones_like(flat))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # m and v, and no third parameter-sized vector beside them
        assert 2 * flat.nbytes <= held < 2.5 * flat.nbytes, (held, flat.nbytes)


class TestAblationModes:
    @pytest.mark.parametrize("mode", ["mean", "binary", "none"])
    def test_rhythm_modes_train(self, mode):
        tc = tiny_tc(rhythm_mode=mode, epochs=1)
        model = train(tiny_dataset(2), tc)
        assert math.isfinite(model.loss_history[0])

    def test_meanpool_align_trains(self):
        tc = tiny_tc(align_mode="meanpool", epochs=1)
        model = train(tiny_dataset(2), tc)
        assert math.isfinite(model.loss_history[0])
