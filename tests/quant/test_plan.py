"""QuantPlan: planner coverage, serialization, skip flags, handler registry."""

import dataclasses
import json

import numpy as np
import pytest

from repro import nn
from repro.models.bert import MiniBERT, MiniBERTConfig
from repro.quant import (
    Granularity,
    PTQConfig,
    QuantMultiHeadAttention,
    QuantPlan,
    attention_layers,
    build_plan,
    plan_from_model,
    quant_layers,
    quantize_model,
)
from repro.quant.plan import LayerQuantSpec, quant_spec_from_dict, quant_spec_to_dict
from repro.quant.quantizer import QuantSpec, ScaleFormat

TINY_BERT = MiniBERTConfig(
    name="minibert-plan-test",
    vocab_size=16,
    max_seq_len=12,
    d_model=32,
    num_layers=1,
    num_heads=2,
    d_ff=48,
    dropout=0.0,
)


def small_cnn(rng):
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(8, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 4, rng=rng),
    )


class TestBuildPlan:
    def test_covers_conv_and_linear(self, rng):
        plan = build_plan(small_cnn(rng), PTQConfig.vs_quant(4, 4))
        kinds = [s.kind for s in plan.active]
        assert kinds == ["conv2d", "conv2d", "linear"]
        names = [s.name for s in plan.active]
        assert names == ["layer0", "layer2", "layer5"]

    def test_geometry_recorded(self, rng):
        plan = build_plan(small_cnn(rng), PTQConfig.vs_quant(4, 4))
        conv = plan.get("layer0")
        assert conv.geometry["in_channels"] == 3
        assert conv.geometry["kernel_size"] == 3
        lin = plan.get("layer5")
        assert lin.geometry == {"in_features": 8, "out_features": 4}

    def test_skip_recorded_as_flagged_entry(self, rng):
        cfg = dataclasses.replace(PTQConfig.vs_quant(4, 4), skip=("layer0",))
        plan = build_plan(small_cnn(rng), cfg)
        entry = plan.get("layer0")
        assert entry is not None and entry.skipped
        assert "layer0" not in [s.name for s in plan.active]
        assert len(plan.active) == 2

    def test_embedding_and_attention_opt_in(self, rng):
        model = MiniBERT(TINY_BERT, seed=0)
        default = build_plan(model, PTQConfig.vs_quant(4, 8))
        assert all(s.kind == "linear" for s in default.active)
        full = build_plan(
            model, PTQConfig.vs_quant(4, 8, embeddings=True, attention=True)
        )
        kinds = {s.kind for s in full.active}
        assert kinds == {"linear", "embedding", "attention"}
        attn = next(s for s in full.active if s.kind == "attention")
        assert set(attn.operands) == {"q", "k", "probs", "v"}
        assert not attn.operands["probs"].signed  # softmax output is unsigned
        emb = next(s for s in full.active if s.kind == "embedding")
        assert emb.inputs is None  # indices are not quantized

    def test_weight_and_input_axes(self, rng):
        plan = build_plan(small_cnn(rng), PTQConfig.vs_quant(4, 4))
        conv = plan.get("layer0")
        assert conv.weight.vector_axis == 1 and conv.weight.channel_axes == (0,)
        assert conv.inputs.vector_axis == 1
        lin = plan.get("layer5")
        assert lin.inputs.vector_axis == -1


class TestSerialization:
    def test_quant_spec_round_trip(self):
        spec = QuantSpec(
            bits=4,
            signed=False,
            granularity=Granularity.PER_VECTOR,
            vector_size=32,
            vector_axis=-2,
            channel_axes=(0,),
            scale=ScaleFormat.parse("6"),
            calibration="max",
            dynamic=True,
        )
        assert quant_spec_from_dict(quant_spec_to_dict(spec)) == spec

    def test_plan_json_round_trip(self, rng):
        cfg = dataclasses.replace(
            PTQConfig.vs_quant(4, 8, weight_scale="4", act_scale="6"), skip=("layer2",)
        )
        plan = build_plan(small_cnn(rng), cfg)
        # through actual JSON, as the manifest does
        wire = json.loads(json.dumps(plan.to_list()))
        restored = QuantPlan.from_list(wire)
        assert len(restored) == len(plan)
        for orig, back in zip(plan, restored):
            assert orig == back

    def test_duplicate_entries_rejected(self):
        plan = QuantPlan([LayerQuantSpec(name="a", kind="linear")])
        with pytest.raises(ValueError, match="duplicate"):
            plan.add(LayerQuantSpec(name="a", kind="conv2d"))


class TestPlanFromModel:
    def test_reflects_calibrated_signedness(self, rng):
        model = small_cnn(rng)
        x = rng.standard_normal((4, 3, 8, 8))
        q = quantize_model(
            model, PTQConfig.vs_quant(8, 8, weight_scale="4", act_scale="6"),
            calib_batches=[(x,)],
        )
        live = plan_from_model(q)
        assert live.get("layer0").inputs.signed  # raw input has negatives
        assert not live.get("layer2").inputs.signed  # post-ReLU is unsigned

    def test_quantized_bert_has_wrappers_and_tables(self, rng):
        model = MiniBERT(TINY_BERT, seed=0)
        model.eval()
        tokens = rng.integers(0, TINY_BERT.vocab_size, (4, TINY_BERT.max_seq_len))
        mask = np.ones_like(tokens, dtype=bool)
        cfg = PTQConfig.vs_quant(
            4, 8, weight_scale="4", act_scale="6", embeddings=True, attention=True
        )
        q = quantize_model(
            model, cfg, calib_batches=[(tokens, mask)],
            forward=lambda m, b: m(b[0], mask=b[1]),
        )
        embeddings = [m for _, m in quant_layers(q) if m.kind == "embedding"]
        assert len(embeddings) == 2  # token + position tables
        wrappers = attention_layers(q)
        assert len(wrappers) == TINY_BERT.num_layers
        assert all(isinstance(m, QuantMultiHeadAttention) for _, m in wrappers)
        live = plan_from_model(q)
        assert {s.kind for s in live.active} == {"linear", "embedding", "attention"}

    def test_prebuilt_plan_respected(self, rng):
        model = small_cnn(rng)
        cfg = PTQConfig.vs_quant(8, 8, act_signed=True)
        plan = build_plan(model, cfg)
        trimmed = QuantPlan(s for s in plan if s.name != "layer0")
        q = quantize_model(model, cfg, plan=trimmed)
        assert [n for n, _ in quant_layers(q)] == ["layer2", "layer5"]
        assert isinstance(q.layer0, nn.Conv2d)

    def test_misnamed_plan_entry_raises(self, rng):
        """A typo in a hand-tuned plan must fail loudly, not leave the
        layer silently unquantized."""
        model = small_cnn(rng)
        cfg = PTQConfig.vs_quant(8, 8, act_signed=True)
        plan = build_plan(model, cfg)
        bad = QuantPlan(
            dataclasses.replace(s, name=s.name if s.name != "layer0" else "layer0_typo")
            for s in plan
        )
        with pytest.raises(ValueError, match="layer0_typo"):
            quantize_model(model, cfg, plan=bad)

    def test_skipped_entries_survive_into_live_plan(self, rng):
        model = small_cnn(rng)
        cfg = dataclasses.replace(
            PTQConfig.vs_quant(8, 8, weight_scale="4", act_scale="6"),
            skip=("layer0",),
        )
        x = rng.standard_normal((4, 3, 8, 8))
        q = quantize_model(model, cfg, calib_batches=[(x,)])
        live = plan_from_model(q)
        entry = live.get("layer0")
        assert entry is not None and entry.skipped
        assert "layer0" not in [s.name for s in live.active]
