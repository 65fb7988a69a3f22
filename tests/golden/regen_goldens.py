"""Regenerate the golden prediction pins.

Run:  PYTHONPATH=src python tests/golden/regen_goldens.py

Overwrites every ``tests/golden/golden_*.npz`` with freshly computed
predictions (fakequant / integer / the default ``auto`` backend) and artifact
payload hashes. Only do this after an **intentional** numerical change,
and review the resulting binary diff in the PR like any other change —
the whole point of the pins is that unintentional drift fails loudly.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from golden_common import CASES, compute_case, golden_path


def main() -> None:
    for model_name, config_name in CASES:
        arrays = compute_case(model_name, config_name)
        path = golden_path(model_name, config_name)
        np.savez(path, **arrays)
        shapes = {k: v.shape for k, v in arrays.items() if k != "payload_sha256"}
        print(f"wrote {path.name}: {shapes}")


if __name__ == "__main__":
    main()
