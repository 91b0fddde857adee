"""Byte identity of every artifact `cli.run` writes, against recorded sha256s.

The hashes were recorded with the numpy and scipy versions and the machine
type in GOLDEN_ENV; elsewhere the last bits of the floating-point results may
legitimately differ, so the test skips.  A change meant to leave the numbers
alone must keep every hash; a change that moves them on purpose re-records
the table and says why.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy

from bgkspectral import cli

GOLDEN_ENV = {"numpy": "2.4.6", "scipy": "1.17.1", "machine": "x86_64"}

# Double well through every non-snapshot output, with the purge, so that Phi,
# Omega and the K_N lab reach an artifact.
KN_CONFIG = {
    "potential": [1.0, -2.0, 1.0],
    "K": 8, "N": 10, "dt": 0.05, "T": 1.0,
    "initial": [[0, 0, 1.0], [0, 2, 0.5], [2, 1, 1.0], [3, 4, -0.25]],
    "purge": True,
    "outputs": ["norms", "conserved", "recurrence", "kn"],
    "kn_n_values": [4, 8, 16],
}

CASES = {
    "harmonic_fig1": cli.PRESETS["harmonic_fig1"],
    "doublewell_fig3": cli.PRESETS["doublewell_fig3"],
    "doublewell_fig4": cli.PRESETS["doublewell_fig4"],
    "doublewell_kn": KN_CONFIG,
}

GOLDEN = {
    "doublewell_fig3": {
        "conserved.csv":
            "de65d1a87602e3c491366bf2772b2c633e8f21c3d2d955668ebb21f77feb3941",
        "norms.csv":
            "22b9576c8f43da5c6a4ec2d9654591a9589870cc9153ba2373312c444c0dc3eb",
    },
    "doublewell_fig4": {
        "conserved.csv":
            "da22631023b2437e59f2eac3a866bbf2d91e2aae532612c7f6eb760256a589a5",
        "norms.csv":
            "1ed5b517560a86885f34564fe3022c041f76927502bf2e69f8880eac8f37455c",
        "snapshot_0.csv":
            "efaae18c8de022a9bbd2a3b50384360d3f73b60e7ad0283d7453333722351877",
        "snapshot_10.csv":
            "9c06fd718f44f259035237375cf6358e6359df1d611b406f39586e5941f95550",
        "snapshot_12.csv":
            "c1f7754adccdc0ecb128f3ba398d8ade22363b9185c8faf30c501bcb33540bba",
        "snapshot_2.5.csv":
            "1a640cf7ed01c1d7ff34a9243295bc5bcb4b3f0bc495583cc0e9199533dac45d",
        "snapshot_5.csv":
            "e5c4075833b7f19a8b012e7ff0432b41a5f9fb31dee9d24672ba70b7b5416561",
        "snapshot_7.5.csv":
            "8cfa4ff7a3dce9570ec5f39e008e8ef3bf6ca1c806adad3e0362dca67b9d5012",
    },
    "doublewell_kn": {
        "conserved.csv":
            "97fb4b25838a8f2e0af06f26429bf4be0d3112affb11e9ab83fa090e22baab03",
        "kn_table.csv":
            "abbda4cf9720fd9276a9dc4aa38f91b41b7f4cbf87e2e65b73941462d904b1b4",
        "norms.csv":
            "c3a692db75fe7f205f95cac831b3dd9a13332eeda0f68aee4dc83cc7b82b0984",
        "recurrence.csv":
            "cfb275663d9f70d66f91396ceb0ea7f41a7318736914ecea335404c9bd020dac",
    },
    "harmonic_fig1": {
        "conserved.csv":
            "c325d01ae223558596a1e328a75ad43dca42918d70d4e6eb1a60e38189fc3dc6",
        "norms.csv":
            "343cf08d911fd42814eb629035eb84e41559d6b5ebbfa4c779fd6c98f3047737",
    },
}


def artifact_hashes(data, out_dir) -> dict[str, str]:
    cli.run(cli.RunConfig.from_dict(dict(data)), out_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def current_env() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden(case, tmp_path):
    if current_env() != GOLDEN_ENV:
        pytest.skip(f"hashes recorded with {GOLDEN_ENV}, running {current_env()}")
    assert artifact_hashes(CASES[case], tmp_path) == GOLDEN[case]
