"""``repro gateway --requests N --swap name=dir``: the scripted rollout drive."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.deploy import save_artifact
from repro.models.resnet import MiniResNet
from repro.quant import PTQConfig, quantize_model


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Two versions of one untrained MiniResNet: W4/A4 and W8/A8."""
    root = tmp_path_factory.mktemp("gateway-cli")
    model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
    model.eval()
    calib = np.random.default_rng(0).standard_normal((4, 3, 16, 16))
    out = {}
    for name, bits in (("v1", 4), ("v2", 8)):
        config = PTQConfig.vs_quant(bits, bits, weight_scale="4", act_scale="4")
        qmodel = quantize_model(model, config, calib_batches=[(calib,)])
        save_artifact(qmodel, root / name, task="image", input_shape=(3, 16, 16))
        out[name] = str(root / name)
    out["root"] = root
    return out


def _gateway(artifacts, *extra):
    return main([
        "gateway", "--model", f"m={artifacts['v1']}", "--swap", f"m={artifacts['v2']}",
        "--requests", "8", *extra,
    ])


def test_swap_rollout_serves_both_versions(artifacts, capsys):
    assert _gateway(artifacts) == 0
    out = capsys.readouterr().out
    rollout = next(line for line in out.splitlines() if line.startswith("rollout: m "))
    old, new = rollout.split()[2], rollout.split()[4]
    assert old != new
    served = next(line for line in out.splitlines() if "versions served:" in line)
    versions = json.loads(served.split("versions served:")[1].replace("'", '"'))
    assert versions[old] >= 1 and versions[new] >= 1
    assert "client: 0 429s retried, 0 retryable 503s" in out
    # The ok count is the lifetime one, which a hot swap does not reset.
    # It counts every reply the driver tallied plus the swap's one warm
    # parity probe, which the new pool serves before the flip.
    counts = next(line for line in out.splitlines() if line.startswith("m: "))
    ok = int(counts.split()[1])
    assert ok == sum(versions.values()) + 1
    assert " 0 errored, 0 rejected" in counts


def test_non_503_error_fails_the_command(artifacts, capsys):
    # The new version's replicas raise (HTTP 500) on every request after
    # the swap's one warm-up probe.
    plan = artifacts["root"] / "error-plan.json"
    plan.write_text(json.dumps({"seed": 1, "faults": [
        {"kind": "error", "replica": None, "after_requests": 1, "count": None},
    ]}))
    with pytest.raises(SystemExit, match="requests failed: .*HTTP 500"):
        _gateway(artifacts, "--fault-plan", str(plan))
    assert "retryable 503s" in capsys.readouterr().out
