"""Golden parity pins: quantized predictions match committed bytes.

Self-parity (integer == fakequant recomputed side by side) survives a
bug that shifts *both* paths; these tests compare against fixed golden
files committed to the repo, so any numerical drift — kernel refactors,
dtype policy changes, scale-folding rewrites — fails loudly and has to
be acknowledged by regenerating the pins
(``PYTHONPATH=src python tests/golden/regen_goldens.py``) in the same PR.
"""

import numpy as np
import pytest

from golden_common import CASES, MODES, compute_case, golden_path


@pytest.mark.parametrize("model_name,config_name", CASES)
def test_predictions_match_golden_bytes(model_name, config_name):
    path = golden_path(model_name, config_name)
    if not path.exists():
        pytest.fail(
            f"missing golden file {path.name}; generate it with "
            "`PYTHONPATH=src python tests/golden/regen_goldens.py` and commit it"
        )
    golden = np.load(path)
    recomputed = compute_case(model_name, config_name)

    for mode in MODES:
        np.testing.assert_array_equal(
            recomputed[mode],
            golden[mode],
            err_msg=(
                f"{model_name}/{config_name}/{mode} drifted from the committed "
                "golden bytes. If this change is intentional, regenerate via "
                "tests/golden/regen_goldens.py and commit the new pins."
            ),
        )
    np.testing.assert_array_equal(
        recomputed["payload_sha256"],
        golden["payload_sha256"],
        err_msg=f"{model_name}/{config_name}: artifact payload bytes drifted",
    )


@pytest.mark.parametrize("model_name,config_name", CASES)
def test_golden_modes_cover_contract(model_name, config_name):
    """The pinned modes must stay mutually consistent: ``integer`` equals
    the default ``auto`` backend bitwise, and both stay within
    quantization-noise distance of the fakequant simulation."""
    recomputed = compute_case(model_name, config_name)
    np.testing.assert_array_equal(
        recomputed["integer"], recomputed["integer_prefolded"]
    )
    assert recomputed["fakequant"].shape == recomputed["integer"].shape
    # documented contract: engine vs simulation differ only by float
    # summation order (plus rare tie flips) — not by whole logits.
    np.testing.assert_allclose(
        recomputed["integer"], recomputed["fakequant"], rtol=1e-6, atol=1e-6
    )
