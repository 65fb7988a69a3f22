"""Deployment path: whole-model artifacts executed by the integer engine.

Run:  python examples/integer_deployment.py

Demonstrates the pipeline a real accelerator deployment would consume:

1. PTQ-quantize a model into two-level VS-Quant form
2. save it as a versioned, checksummed artifact — manifest JSON plus
   bit-packed weights at exact widths (the paper's 4.25-effective-bit
   format); the manifest records the module tree, so nothing has to be
   registered to load it
3. load the artifact back (checksums verified, packing lossless),
   rebuild the model from its structural manifest, and execute it
   end-to-end with pure integer dot products (Eq. 5)
4. verify agreement with the fake-quant simulation
5. show the effect of the hardware's scale-product rounding knob
"""

import tempfile

import numpy as np

from repro import nn
from repro.deploy import IntegerEngine, load_artifact, save_artifact
from repro.quant import PTQConfig, quantize_model
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import seeded_rng


def main() -> None:
    rng = seeded_rng("integer-deploy-data")
    init = seeded_rng("integer-deploy-mlp")
    model = nn.Sequential(
        nn.Linear(256, 128, rng=init),
        nn.ReLU(),
        nn.Linear(128, 16, rng=init),
    )
    model.eval()
    x = rng.standard_normal((8, 256))

    print("1) quantize (two-level, V=16, N=M=4)")
    config = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")
    qmodel = quantize_model(model, config, calib_batches=[(x,)])

    with tempfile.TemporaryDirectory(prefix="repro-deploy-") as artifact_dir:
        print("2) save the artifact (manifest + bit-packed weights)")
        manifest = save_artifact(qmodel, artifact_dir, quant_label=config.label)
        summary = manifest["summary"]
        fp32_bytes = summary["fp32_weight_bytes"]
        print(f"   fp32 weights: {fp32_bytes} bytes")
        print(
            f"   packed:       {summary['packed_weight_bytes']} bytes "
            f"({fp32_bytes / summary['packed_weight_bytes']:.1f}x compression), "
            f"sha256 {manifest['payload']['sha256'][:16]}…"
        )

        print("3) load + execute end-to-end in integers")
        artifact = load_artifact(artifact_dir)  # checksums verified here
        engine = IntegerEngine.load(artifact_dir)
        y_int = engine(x)

        print("4) verify against the fake-quant simulation")
        with no_grad():
            y_ref = qmodel(Tensor(x)).data
        err = np.abs(y_int - y_ref).max() / np.abs(y_ref).max()
        print(
            f"   max rel |integer - fake-quant| = {err:.2e} "
            "(identical up to float summation order)"
        )
        assert err < 1e-9, "integer engine diverged from the fake-quant simulation"
        codes_bits = artifact.layers[0].weight.fmt.bits
        print(f"   layer 0 codes round-tripped at {codes_bits}-bit width losslessly")

        print("5) scale-product rounding (the Fig. 3 energy knob)")
        with no_grad():
            fp = model(Tensor(x)).data
        for bits in (None, 6, 4):
            eng = IntegerEngine.load(artifact_dir, scale_product_bits=bits)
            y = eng(x)
            noise = ((y - fp) ** 2).mean()
            sqnr = 10 * np.log10((fp**2).mean() / noise)
            name = "full" if bits is None else f"{bits}-bit"
            print(f"   scale product {name:>6}: SQNR vs fp32 = {sqnr:5.1f} dB")


if __name__ == "__main__":
    main()
