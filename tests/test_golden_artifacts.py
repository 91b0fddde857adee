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
            "6d5761e92eb780e5665e14a20bf43c64bdd0d55685c3ed728ce2ed254f9d195b",
    },
    "doublewell_fig4": {
        "conserved.csv":
            "3a2793082b102e6d974a9a3f74817c0952e3d3fc153b72fe638b5ddf7224c928",
        "norms.csv":
            "7775f1e9be3a3a4cc1dd7036ea733236bf0c64cc57f7997ce21428693083f7a0",
        "snapshot_0.csv":
            "efaae18c8de022a9bbd2a3b50384360d3f73b60e7ad0283d7453333722351877",
        "snapshot_10.csv":
            "8f325c0c68eab8df448f0854477ea7b224e1eec009cbc42b03e0cbaa15b70899",
        "snapshot_12.csv":
            "1f5052e938ea9e3910b682060960a2b0aba21db0a03e971c5199bb06a01a677e",
        "snapshot_2.5.csv":
            "67fe5f6257f64b44b80940cdfe0a3c6fb020a67b445a2e780bbd3d037d3cbe3d",
        "snapshot_5.csv":
            "bdc545f5ca071f426c502f305785dce8dfe2c7332cdfe404da634d134b085568",
        "snapshot_7.5.csv":
            "1f6ed60c300736017cbb394698a02f528576e1cb8f792c7e4861ddd272896004",
    },
    "doublewell_kn": {
        "conserved.csv":
            "af75193f48a632d08741356e942c6142a31b52bf8ba439e51de05b8dead39e5b",
        "kn_table.csv":
            "6852056f4456a1bed095042aebf10b32ab0ad4b98a592c0b66a7045b3a9727d2",
        "norms.csv":
            "9ea1b21100be3c500f58a166a1bbc11cd5587dc21187d804061cfa4d76922767",
        "recurrence.csv":
            "35b52531aa609f7d8afca377d4059158ab6d9501ce3afc67f554c259f0d6ddad",
    },
    "harmonic_fig1": {
        "conserved.csv":
            "c325d01ae223558596a1e328a75ad43dca42918d70d4e6eb1a60e38189fc3dc6",
        "norms.csv":
            "c129a7b92bfc28310bda2adb13f7210fe432b008c13a218a0d688fe0d9768714",
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
