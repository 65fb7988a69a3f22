"""Structural deployment: save -> inspect -> serve a custom model.

The artifact manifest (format v2) embeds a structural module-tree spec,
so any model round-trips save -> load -> serve — the contract is only
that its classes are importable at load time. This script:

1. defines a custom CNN that is not in the model zoo,
2. PTQ-quantizes it under the paper's two-level W4/A8 S4/S6 format,
3. saves a deployment artifact,
4. reloads it with the integer engine and checks predictions against the
   fake-quant simulation,
5. serves a few requests through the dynamic-batching server via
   ``serve_artifact``.

Run:  PYTHONPATH=src python examples/structural_serving.py [artifact_dir]
"""

import sys
import tempfile

import numpy as np

from repro import nn
from repro.deploy import IntegerEngine, save_artifact
from repro.quant import PTQConfig, quantize_model
from repro.serve import serve_artifact
from repro.tensor.tensor import Tensor, no_grad


class CustomCNN(nn.Module):
    """Not in the model zoo: only the structural manifest can rebuild it."""

    def __init__(self, num_classes: int = 6, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stem = nn.Conv2d(3, 16, 3, padding=1, rng=rng)
        self.bn = nn.BatchNorm2d(16)
        self.body = nn.Sequential(
            nn.Conv2d(16, 32, 3, stride=2, padding=1, rng=rng),
            nn.ReLU(),
        )
        self.pool = nn.GlobalAvgPool2d()
        self.head = nn.Linear(32, num_classes, rng=rng)

    def forward(self, x):
        # Under the compiled backend the stem's conv kernel applies its
        # bias, this BatchNorm and the ReLU in one output pass.
        out = nn.conv_bn(self.stem, self.bn, x, relu=True)
        return self.head(self.pool(self.body(out)))


def main(out_dir: str) -> int:
    rng = np.random.default_rng(7)
    model = CustomCNN()
    model.eval()
    calib = rng.standard_normal((16, 3, 16, 16))

    config = PTQConfig.vs_quant(4, 8, weight_scale="4", act_scale="6")
    qmodel = quantize_model(model, config, calib_batches=[(calib,)])

    manifest = save_artifact(
        qmodel, out_dir, task="image", quant_label=config.label,
        input_shape=(3, 16, 16),
    )
    print(f"saved artifact to {out_dir}")
    print(f"  plan entries: {len(manifest['plan'])}, "
          f"packed weights: {manifest['summary']['packed_weight_bytes']} bytes")

    # Load + run purely from the structural manifest.
    engine = IntegerEngine.load(out_dir)
    x = rng.standard_normal((8, 3, 16, 16))
    with no_grad():
        y_fake = qmodel(Tensor(x)).data
    y_int = engine(x)
    agree = float((y_int.argmax(-1) == y_fake.argmax(-1)).mean())
    print(f"  integer engine vs fake-quant prediction agreement: {agree:.0%}")
    assert agree >= 0.95

    # Serve through the dynamic-batching server in one call.
    server = serve_artifact(out_dir, max_batch_size=4, max_wait_ms=2, num_workers=2)
    payloads = [rng.standard_normal((3, 16, 16)).astype(np.float32) for _ in range(12)]
    with server:
        results = [server.submit(p).wait() for p in payloads]
        stats = server.stats()
    print(f"  served {len(results)} requests: {stats.format()}")
    return 0


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="repro-structural-")
    sys.exit(main(target))
