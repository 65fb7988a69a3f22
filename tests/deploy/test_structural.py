"""Structural manifests: save -> load -> serve round trips.

Every model round-trips through the artifact format purely on the
structural module-tree spec embedded in ``manifest.json`` (format v2),
including zoo artifacts whose manifest still names a topology builder.
"""

import json

import numpy as np
import pytest

from repro import nn
from repro.deploy import (
    IntegerEngine,
    build_from_structure,
    module_structure,
    save_artifact,
)
from repro.deploy.artifact import MANIFEST_NAME
from repro.quant import PTQConfig, quantize_model
from repro.serve import serve_artifact
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad


class CustomNet(nn.Module):
    """A model outside the zoo (module top level: importable)."""

    def __init__(self, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.conv = nn.Conv2d(3, 16, 3, padding=1, rng=rng)
        self.bn = nn.BatchNorm2d(16)
        self.block = nn.Sequential(
            nn.Conv2d(16, 16, 3, padding=1, rng=rng), nn.ReLU()
        )
        self.pool = nn.GlobalAvgPool2d()
        self.head = nn.Linear(16, 5, rng=rng)

    def forward(self, x):
        out = ops.relu(self.bn(self.conv(x)))
        out = self.block(out)
        return self.head(self.pool(out))


@pytest.fixture
def custom_artifact(rng, tmp_path):
    model = CustomNet()
    model.eval()
    calib = rng.standard_normal((6, 3, 10, 10))
    config = PTQConfig.vs_quant(4, 8, weight_scale="4", act_scale="6")
    qmodel = quantize_model(model, config, calib_batches=[(calib,)])
    out = tmp_path / "custom"
    manifest = save_artifact(qmodel, out, task="image")
    return qmodel, out, manifest


class TestStructureSpec:
    def test_round_trips_a_float_tree(self, rng):
        model = CustomNet()
        model.eval()
        spec = module_structure(model)
        spec = json.loads(json.dumps(spec))  # must survive real JSON
        rebuilt = build_from_structure(spec)
        assert isinstance(rebuilt, CustomNet)
        # Same parameter/buffer names and shapes, zero-filled values.
        orig = {k: v.shape for k, v in model.state_dict().items()}
        back = {k: v.shape for k, v in rebuilt.state_dict().items()}
        assert orig == back
        # Filling the state dict reproduces the model exactly.
        rebuilt.load_state_dict(model.state_dict())
        rebuilt.eval()
        x = rng.standard_normal((2, 3, 10, 10))
        with no_grad():
            np.testing.assert_array_equal(
                rebuilt(Tensor(x)).data, model(Tensor(x)).data
            )

    def test_quantized_layers_recorded_as_float_skeletons(self, rng):
        model = CustomNet()
        model.eval()
        q = quantize_model(
            model,
            PTQConfig.vs_quant(4, 8, weight_scale="4", act_scale="6"),
            calib_batches=[(rng.standard_normal((2, 3, 10, 10)),)],
        )
        spec = module_structure(q)
        conv = spec["children"]["conv"]
        assert conv["quant"]["kind"] == "conv2d"
        rebuilt = build_from_structure(json.loads(json.dumps(spec)))
        assert type(rebuilt.conv) is nn.Conv2d  # float skeleton, not quant

    def test_unimportable_class_fails_clearly(self):
        with pytest.raises(Exception, match="import"):
            build_from_structure({"class": "no.such.module.Klass"})


class TestBuilderlessRoundTrip:
    def test_save_load_serve(self, rng, custom_artifact):
        qmodel, out, manifest = custom_artifact
        assert manifest["model"]["builder"] is None
        engine = IntegerEngine.load(out)
        x = rng.standard_normal((4, 3, 10, 10))
        with no_grad():
            y_fake = qmodel(Tensor(x)).data
        y_int = engine(x)
        scale = np.abs(y_fake).max() + 1e-12
        assert np.median(np.abs(y_int - y_fake) / scale) < 1e-9
        assert (y_int.argmax(-1) == y_fake.argmax(-1)).mean() >= 0.95

    def test_serve_artifact_end_to_end(self, rng, custom_artifact):
        _, out, _ = custom_artifact
        server = serve_artifact(out, max_batch_size=4, max_wait_ms=2, num_workers=1)
        payloads = [rng.standard_normal((3, 10, 10)) for _ in range(5)]
        with server:
            results = [server.submit(p).wait() for p in payloads]
        assert all(r.shape == (5,) for r in results)
        # Batch-invariant serving: direct engine forward agrees per sample.
        engine = IntegerEngine.load(out, per_sample_scale=True, precision="float32")
        direct = engine(np.stack(payloads).astype(np.float32))
        np.testing.assert_allclose(np.stack(results), direct, rtol=1e-5, atol=1e-6)

    def test_float32_precision(self, rng, custom_artifact):
        _, out, _ = custom_artifact
        x = rng.standard_normal((4, 3, 10, 10))
        y64 = IntegerEngine.load(out)(x)
        y32 = IntegerEngine.load(out, precision="float32")(x)
        assert np.median(np.abs(y32 - y64) / (np.abs(y64).max() + 1e-12)) < 1e-5


class TestMainModuleFallback:
    def test_script_defined_class_loads_in_other_process(self, rng, tmp_path):
        """A model class defined in a script (__main__) records its source
        file in the structural manifest; any other process rebuilds it by
        executing that file — the cross-process save->load->serve path."""
        import subprocess
        import sys as _sys
        import textwrap

        script = tmp_path / "make_artifact.py"
        script.write_text(textwrap.dedent("""
            import numpy as np
            from repro import nn
            from repro.deploy import save_artifact
            from repro.quant import PTQConfig, quantize_model

            class ScriptNet(nn.Module):
                def __init__(self, rng=None):
                    super().__init__()
                    rng = rng or np.random.default_rng(0)
                    self.fc1 = nn.Linear(32, 16, rng=rng)
                    self.act = nn.ReLU()
                    self.fc2 = nn.Linear(16, 4, rng=rng)

                def forward(self, x):
                    return self.fc2(self.act(self.fc1(x)))

            if __name__ == "__main__":
                import sys
                rng = np.random.default_rng(3)
                model = ScriptNet()
                model.eval()
                q = quantize_model(
                    model,
                    PTQConfig.vs_quant(4, 8, weight_scale="4", act_scale="6"),
                    calib_batches=[(rng.standard_normal((4, 32)),)],
                )
                save_artifact(q, sys.argv[1], task="image")
        """))
        out = tmp_path / "script-artifact"
        from pathlib import Path

        env_path = str(Path(__file__).resolve().parents[2] / "src")
        import os

        env = dict(os.environ, PYTHONPATH=env_path)
        subprocess.run(
            [_sys.executable, str(script), str(out)], check=True, env=env,
            capture_output=True,
        )
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        struct = manifest["model"]["structure"]
        assert struct["class"].startswith("__main__.")
        assert struct["class_source"] == str(script)
        # This process is not that __main__ — the source fallback kicks in.
        engine = IntegerEngine.load(out)
        y = engine(rng.standard_normal((3, 32)))
        assert y.shape == (3, 4)


class TestLegacyBuilderName:
    def test_zoo_artifact_naming_a_builder_loads_structurally(self, rng, tmp_path):
        """Zoo exports from before the builder registry was retired say
        ``"builder": "miniresnet"``; the name is ignored and the structural
        rebuild serves exactly what the ``builder: null`` manifest serves."""
        from repro.models.resnet import MiniResNet

        model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
        model.eval()
        q = quantize_model(
            model,
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            calib_batches=[(rng.standard_normal((4, 3, 16, 16)),)],
        )
        out = tmp_path / "zoo"
        save_artifact(q, out, task="image")
        x = rng.standard_normal((5, 3, 16, 16)).astype(np.float32)
        serving = dict(per_sample_scale=True, precision="float32")
        y_null = IntegerEngine.load(out, **serving)(x)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["model"]["builder"] is None
        manifest["model"]["builder"] = "miniresnet"
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        engine = IntegerEngine.load(out, **serving)
        assert isinstance(engine.model, MiniResNet)
        np.testing.assert_array_equal(engine(x), y_null)
