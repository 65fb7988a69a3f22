"""Artifact format: lossless round-trips, checksums, topology rebuild."""

import json

import numpy as np
import pytest

from repro import nn
from repro.deploy import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ArtifactError,
    load_artifact,
    save_artifact,
)
from repro.deploy.artifact import MANIFEST_NAME, PAYLOAD_NAME
from repro.models.resnet import MiniResNet
from repro.quant import PTQConfig, VectorLayout, quantize_model
from repro.quant.integer_exec import quantize_tensor
from repro.quant.qlayers import quant_layers


@pytest.fixture
def tiny_resnet_artifact(rng, tmp_path):
    model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
    model.eval()
    calib = rng.standard_normal((4, 3, 16, 16))
    config = PTQConfig.vs_quant(4, 8, weight_scale="4", act_scale="6")
    qmodel = quantize_model(model, config, calib_batches=[(calib,)])
    out = tmp_path / "artifact"
    manifest = save_artifact(qmodel, out, quant_label=config.label, task="image")
    return qmodel, out, manifest


class TestSave:
    def test_manifest_structure(self, tiny_resnet_artifact):
        qmodel, out, manifest = tiny_resnet_artifact
        assert manifest["format"] == ARTIFACT_FORMAT
        assert manifest["format_version"] == ARTIFACT_VERSION
        assert manifest["model"]["builder"] is None  # written for older readers
        assert manifest["model"]["arch"] == {"num_classes": 4, "width": 1, "depth": 1}
        assert manifest["quant"]["label"] == "4/8/4/6"
        assert len(manifest["layers"]) == len(quant_layers(qmodel))
        # v2: the plan and the structural module tree ride in the manifest.
        assert len(manifest["plan"]) == len(quant_layers(qmodel))
        assert manifest["model"]["structure"]["class"].endswith("MiniResNet")
        assert (out / MANIFEST_NAME).exists() and (out / PAYLOAD_NAME).exists()
        assert manifest["payload"]["bytes"] == (out / PAYLOAD_NAME).stat().st_size

    def test_packed_weights_beat_fp32(self, tiny_resnet_artifact):
        _, _, manifest = tiny_resnet_artifact
        s = manifest["summary"]
        # ~4.25 + scale overhead effective bits vs 32: at least 6x smaller.
        assert s["packed_weight_bytes"] * 6 < s["fp32_weight_bytes"]

    def test_non_two_level_model_rejected(self, rng, tmp_path):
        model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
        model.eval()
        calib = rng.standard_normal((4, 3, 16, 16))
        qmodel = quantize_model(
            model, PTQConfig.per_channel(8, 8), calib_batches=[(calib,)]
        )
        with pytest.raises(ArtifactError, match="per-vector two-level"):
            save_artifact(qmodel, tmp_path / "bad")

    def test_unquantized_model_rejected(self, tmp_path):
        model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
        with pytest.raises(ArtifactError, match="no quantized layers"):
            save_artifact(model, tmp_path / "bad")

    def test_unregistered_topology_saves_structurally(self, rng, tmp_path):
        model = nn.Sequential(nn.Linear(32, 8, rng=rng))
        model.eval()
        config = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")
        qmodel = quantize_model(model, config, calib_batches=[(rng.standard_normal((4, 32)),)])
        # The structural manifest carries a non-zoo topology; no arch.
        manifest = save_artifact(qmodel, tmp_path / "structural")
        assert manifest["model"]["builder"] is None
        assert manifest["model"]["arch"] is None
        assert manifest["model"]["name"] == "Sequential"
        assert manifest["model"]["structure"]["class"].endswith("Sequential")


class TestLoadRoundTrip:
    def test_codes_and_scales_bitwise_lossless(self, tiny_resnet_artifact):
        qmodel, out, _ = tiny_resnet_artifact
        artifact = load_artifact(out)
        by_name = {layer.name: layer for layer in artifact.layers}
        for dotted, layer in quant_layers(qmodel):
            spec = layer.weight_quantizer.spec
            expected = quantize_tensor(
                np.asarray(layer.weight.data, dtype=np.float64),
                VectorLayout(spec.vector_axis, spec.vector_size),
                spec.fmt,
                spec.scale_fmt,
                channel_axes=spec.channel_axes,
            )
            got = by_name[dotted].weight
            np.testing.assert_array_equal(got.codes, expected.codes)
            np.testing.assert_array_equal(got.sq, expected.sq)
            # gamma is stored at native float64: exactly equal, not just close
            np.testing.assert_array_equal(got.gamma, expected.gamma)

    def test_float_params_lossless(self, tiny_resnet_artifact):
        qmodel, out, _ = tiny_resnet_artifact
        artifact = load_artifact(out)
        state = qmodel.state_dict()
        quantized = {name for name, _ in quant_layers(qmodel)}
        for key, value in artifact.floats.items():
            np.testing.assert_array_equal(value, state[key])
            plain = key.removeprefix("buffer.")
            assert not any(plain.startswith(f"{q}.") for q in quantized) or (
                not plain.endswith((".weight", ".bias"))
            )

    def test_act_spec_round_trips_signedness(self, tiny_resnet_artifact):
        qmodel, out, _ = tiny_resnet_artifact
        artifact = load_artifact(out)
        by_name = {layer.name: layer for layer in artifact.layers}
        for dotted, layer in quant_layers(qmodel):
            assert by_name[dotted].spec.inputs.signed == layer.input_quantizer.spec.signed


class TestManifestPlan:
    def test_skipped_layers_recorded_in_manifest_plan(self, rng, tmp_path):
        import dataclasses

        model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
        model.eval()
        cfg = dataclasses.replace(
            PTQConfig.vs_quant(4, 8, weight_scale="4", act_scale="6"),
            skip=("head",),
        )
        q = quantize_model(model, cfg, calib_batches=[(rng.standard_normal((4, 3, 16, 16)),)])
        manifest = save_artifact(q, tmp_path / "skip", task="image")
        entries = {e["name"]: e for e in manifest["plan"]}
        assert entries["head"]["skipped"]
        assert not any(e["name"] == "head" for e in manifest["layers"])

    def test_layer_missing_from_plan_rejected(self, tiny_resnet_artifact):
        """The layer table alone no longer describes a layer: a conv or
        linear entry without a plan entry fails instead of being guessed."""
        _, out, _ = tiny_resnet_artifact
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        for kind in ("conv2d", "linear"):
            name = next(e["name"] for e in manifest["layers"] if e["kind"] == kind)
            edited = dict(manifest, plan=[e for e in manifest["plan"] if e["name"] != name])
            (out / MANIFEST_NAME).write_text(json.dumps(edited))
            with pytest.raises(ArtifactError, match=f"{kind} layer '{name}' missing from the plan"):
                load_artifact(out)

    def test_inspect_artifact_skips_payload_unpacking(self, tiny_resnet_artifact):
        from repro.deploy import inspect_artifact

        _, out, saved = tiny_resnet_artifact
        manifest, plan = inspect_artifact(out)
        assert manifest["payload"]["sha256"] == saved["payload"]["sha256"]
        assert len(plan) == len(saved["plan"])
        # corruption still caught by the whole-blob hash
        blob = bytearray((out / PAYLOAD_NAME).read_bytes())
        blob[0] ^= 0xFF
        (out / PAYLOAD_NAME).write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            inspect_artifact(out)
        inspect_artifact(out, verify=False)  # explicit opt-out still reads


class TestIntegrity:
    def test_corrupt_payload_detected(self, tiny_resnet_artifact):
        _, out, _ = tiny_resnet_artifact
        blob = bytearray((out / PAYLOAD_NAME).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (out / PAYLOAD_NAME).write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            load_artifact(out)

    def test_truncated_payload_detected(self, tiny_resnet_artifact):
        _, out, _ = tiny_resnet_artifact
        blob = (out / PAYLOAD_NAME).read_bytes()
        (out / PAYLOAD_NAME).write_bytes(blob[:-10])
        with pytest.raises(ArtifactError):
            load_artifact(out)

    def test_version1_manifest_rejected_with_reexport_hint(self, tiny_resnet_artifact):
        _, out, _ = tiny_resnet_artifact
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["format_version"] = 1
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match=r"version 1 unsupported.*version 2.*re-export"):
            load_artifact(out)

    def test_unsupported_version_rejected(self, tiny_resnet_artifact):
        _, out, _ = tiny_resnet_artifact
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["format_version"] = 99
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="version"):
            load_artifact(out)

    def test_wrong_format_rejected(self, tiny_resnet_artifact):
        _, out, _ = tiny_resnet_artifact
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["format"] = "something/else"
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="format"):
            load_artifact(out)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            load_artifact(tmp_path / "nowhere")

    def test_malformed_manifest(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ArtifactError, match="malformed"):
            load_artifact(bad)
