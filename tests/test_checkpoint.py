import hashlib
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dancebeat.checkpoint import MAGIC, load_model, save_model
from dancebeat.config import RunConfig, load_config
from dancebeat.errors import ConfigError, NumericalError, ParseError
from dancebeat.flowgen import euler_sample, init_model, layout, parameter_count, velocity

from conftest import write_blob


def tiny_tc(**kw):
    base = dict(batch_size=2, epochs=2, learning_rate=1e-3, seed=3,
                scales=2, base_period=2.0, bins=4, rhythm_dim=6,
                hidden_w=4, hidden_a=4, blocks=1, hidden=8, heads=2,
                latent_dim=3, latent_len=5, cond_dim=4)
    base.update(kw)
    return RunConfig(**base)


class TestCheckpointRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = init_model(tiny_tc())
        save_model(model, tmp_path / "ck")
        loaded = load_model(tmp_path / "ck")
        for (name, a), (name2, b) in zip(model.all_tensors(), loaded.all_tensors()):
            assert name == name2
            assert a.data.tobytes() == b.data.tobytes(), name
        for ka, kb in zip(model.bank, loaded.bank):
            assert ka.tobytes() == kb.tobytes()
        assert loaded.config == model.config

    def test_same_samples_after_reload(self, tmp_path):
        model = init_model(tiny_tc())
        save_model(model, tmp_path / "ck")
        loaded = load_model(tmp_path / "ck")
        a = euler_sample(lambda z, t: velocity(model.vf, z, t).data, (5, 3), 4, 9)
        b = euler_sample(lambda z, t: velocity(loaded.vf, z, t).data, (5, 3), 4, 9)
        assert a.data.tobytes() == b.data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        model = init_model(tiny_tc())
        save_model(model, tmp_path / "a")
        save_model(model, tmp_path / "b")
        assert (tmp_path / "a.manifest").read_bytes() == (tmp_path / "b.manifest").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_magic(self, tmp_path):
        (tmp_path / "ck.manifest").write_text("not a checkpoint\n")
        (tmp_path / "ck.bin").write_bytes(b"")
        with pytest.raises(ParseError):
            load_model(tmp_path / "ck")

    def test_manifest_starts_with_magic(self, tmp_path):
        model = init_model(tiny_tc())
        save_model(model, tmp_path / "ck")
        first = (tmp_path / "ck.manifest").read_text().splitlines()[0]
        assert first == MAGIC


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.epochs == 100
        assert cfg.steps == 32

    def test_seed_override(self):
        assert replace(RunConfig(seed=5), seed=11).seed == 11

    def test_bad_tempo_range(self):
        with pytest.raises(ConfigError):
            RunConfig(tempo_min=100, tempo_max=60)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            RunConfig(hidden=512, heads=10)

    def test_to_text_round_trip(self, tmp_path):
        cfg = RunConfig(seed=7, epochs=12, rhythm_mode="mean")
        p = tmp_path / "run.cfg"
        p.write_text(cfg.to_text())
        assert load_config(p) == cfg

    def test_labeled_text(self):
        text = RunConfig().to_text(labeled=True)
        assert "# reference default" in text and "# desk default" in text

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("bogus = 1\n")
        with pytest.raises(ParseError, match="unknown config key"):
            load_config(p)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("# a comment\n\nseed = 3  # trailing\nnoise_std = 0.0\n")
        cfg = load_config(p)
        assert cfg.seed == 3 and cfg.noise_std == 0.0

    def test_bad_value(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("epochs = soon\n")
        with pytest.raises(ParseError, match="bad value"):
            load_config(p)


class TestCheckpointIntegrity:
    @pytest.fixture
    def ckpt(self, tmp_path):
        save_model(init_model(tiny_tc()), tmp_path / "ck")
        return tmp_path / "ck"

    def edit_manifest(self, ckpt, old, new):
        m = ckpt.with_suffix(".manifest")
        text = m.read_text()
        assert old in text
        m.write_text(text.replace(old, new, 1))

    def test_manifest_carries_every_config_field(self, ckpt):
        lines = ckpt.with_suffix(".manifest").read_text().splitlines()
        assert lines[2:2 + len(vars(RunConfig()))] == tiny_tc().to_text().splitlines()

    def test_values_are_parsed_not_evaluated(self, ckpt):
        self.edit_manifest(ckpt, "epochs = 2", "epochs = (1).__class__(7)")
        with pytest.raises(ParseError, match="bad value for epochs"):
            load_model(ckpt)

    def test_truncated_blob(self, ckpt):
        b = ckpt.with_suffix(".bin")
        b.write_bytes(b.read_bytes()[:1000])
        with pytest.raises(ParseError, match="SHA-256") as e:
            load_model(ckpt)
        assert str(e.value) == (f"{ckpt.with_suffix('.manifest')}: line 2: {b} (1000 bytes) does "
                                f"not match the manifest's recorded length and SHA-256")

    def test_flipped_blob_byte(self, ckpt):
        b = ckpt.with_suffix(".bin")
        raw = bytearray(b.read_bytes())
        raw[100] ^= 1
        b.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="SHA-256"):
            load_model(ckpt)

    def test_config_must_describe_the_blob(self, ckpt):
        # a model this size is never allocated: the blob is checked first
        self.edit_manifest(ckpt, "hidden = 8", "hidden = 200000")
        with pytest.raises(ParseError, match="describes") as e:
            load_model(ckpt)
        assert str(e.value) == (
            f"{ckpt.with_suffix('.manifest')}: line 2: the checkpoint config describes "
            f"{parameter_count(tiny_tc(hidden=200000))} values, the blob holds "
            f"{parameter_count(tiny_tc())}")

    def test_huge_block_count_refused_at_once(self, ckpt):
        # the count is closed-form, so no layout of 10**9 blocks is ever built
        self.edit_manifest(ckpt, "blocks = 1\n", f"blocks = {10 ** 9}\n")
        sizes = [(name, math.prod(shape)) for name, shape, _ in layout(tiny_tc())]
        per_block = sum(n for name, n in sizes if name.startswith("vf.block0."))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as e:
                load_model(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == (
            f"{ckpt.with_suffix('.manifest')}: line 2: the checkpoint config describes "
            f"{sum(n for _, n in sizes) + (10 ** 9 - 1) * per_block} values, the blob holds "
            f"{parameter_count(tiny_tc())}")
        assert peak < 1 << 20, peak

    def test_tensor_record_mismatch(self, ckpt):
        self.edit_manifest(ckpt, "tensor vf.time_b1 8 512", "tensor vf.time_b1 8 520")
        with pytest.raises(ParseError, match="vf.time_b1"):
            load_model(ckpt)

    def test_oversized_blob_is_never_read(self, ckpt):
        os.truncate(ckpt.with_suffix(".bin"), 64 << 20)  # sparse: no disk blocks written
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="SHA-256"):
                load_model(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weight_refused_on_load(self, ckpt, bad):
        # the blob's digest is true, so only the finiteness check stands in the way
        flat = np.frombuffer(ckpt.with_suffix(".bin").read_bytes(), "<f8").copy()
        offset = {name: sum(math.prod(s) for _, s, _ in layout(tiny_tc())[:i])
                  for i, (name, _, _) in enumerate(layout(tiny_tc()))}
        flat[offset["rhythm.a1"] + 5] = flat[offset["align.queries"]] = bad
        write_blob(ckpt, flat)
        with pytest.raises(ParseError) as e:
            load_model(ckpt)
        assert str(e.value) == f"{ckpt.with_suffix('.bin')}: tensor rhythm.a1 holds a non-finite value"

    def test_nonfinite_weight_refused_on_save(self, tmp_path):
        model = init_model(tiny_tc())
        model.tensors["vf.head_b"].data[1] = np.nan
        with pytest.raises(NumericalError) as e:
            save_model(model, tmp_path / "ck")
        assert str(e.value) == f"{tmp_path / 'ck'}: tensor vf.head_b holds a non-finite value, not written"
        assert list(tmp_path.iterdir()) == []

    def test_load_draws_nothing(self, ckpt, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("load_model drew from an RNG")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        model = load_model(ckpt)
        assert model.flat.tobytes() == ckpt.with_suffix(".bin").read_bytes()

    @pytest.mark.parametrize("kw", [{}, dict(blocks=3, hidden=12, heads=3, bins=5),
                                    dict(scales=3, latent_len=7, cond_dim=1, latent_dim=9)])
    def test_parameter_count_is_exact(self, kw):
        model = init_model(tiny_tc(**kw))
        assert parameter_count(model.config) == sum(t.data.size for _, t in model.all_tensors())
        assert ([(name, t.shape) for name, t in model.all_tensors()]
                == [(name, shape) for name, shape, _ in layout(model.config)])

    @pytest.mark.parametrize("blocks", [1, 2, 5])
    @pytest.mark.parametrize("kw", [{}, dict(hidden=12, heads=3, bins=5, rhythm_dim=7),
                                    dict(scales=3, latent_len=7, cond_dim=1, latent_dim=9),
                                    dict(hidden=64, heads=4, hidden_w=16, hidden_a=16)])
    def test_closed_form_count_equals_layout_size(self, blocks, kw):
        cfg = tiny_tc(blocks=blocks, **kw)
        assert parameter_count(cfg) == sum(math.prod(shape) for _, shape, _ in layout(cfg))

    def test_desk_model_size(self):
        assert parameter_count(RunConfig()) == 120_985
        assert len(init_model(RunConfig()).all_tensors()) == 56

    # SHA-256 of the initial parameter vector, recorded with numpy 2.4.6. The
    # draws run rhythm, then queries, then vf, whatever order `flat` keeps.
    @pytest.mark.parametrize("cfg, digest", [
        (RunConfig(), "f671ed95291d0131ff5af0ea4bbeb2ddbe98520f2c54a1a801dcb5f5df1eb0e3"),
        (tiny_tc(), "0319e82361d72bfcb32b84003920b83023c639d7d36b7aaf585e0a47045d65ee"),
    ], ids=["desk", "tiny"])
    def test_initial_parameters_are_pinned(self, cfg, digest):
        assert hashlib.sha256(init_model(cfg).flat.tobytes()).hexdigest() == digest
