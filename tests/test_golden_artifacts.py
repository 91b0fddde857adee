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
            "66a6d51b7caf02a6d56806f4b12205599c32daf9ca4bffa4094304c1fa8ef907",
        "norms.csv":
            "53a8329754380201ba85d7274517e13fca80094255108a607c04981b33ddb58b",
        "snapshot_0.csv":
            "90f2f83821bf672d190d951b6db9a0600f9a4326069f58b59050a9b3b5bc6b15",
        "snapshot_10.csv":
            "c6ac42e1469d0bbba99965c7c3b4160c6692bd0d916fb59f6b41666a855f9530",
        "snapshot_12.csv":
            "3df0905b37edf8c09cfed8f3de2f3d60031965a0711e0f8e2024562adc3f2b6a",
        "snapshot_2.5.csv":
            "d44ce6a0f162073cc0a5a1bd78502ab3550a984453bf99d6345ce57d5d389410",
        "snapshot_5.csv":
            "aceaab6407e3d8c4d965f260557080ceca1abfd0c655e7154b59461322c2abcc",
        "snapshot_7.5.csv":
            "be46d7f1bedad591aa89a0127269b907260dc993f6a3ae64ffa5f5768c922e0e",
    },
    "doublewell_kn": {
        "conserved.csv":
            "97fb4b25838a8f2e0af06f26429bf4be0d3112affb11e9ab83fa090e22baab03",
        "kn_table.csv":
            "660c15bbac454008f5a8976d41bdcb6a4fed0c9c93f34171e527797a3492bacc",
        "norms.csv":
            "c3a692db75fe7f205f95cac831b3dd9a13332eeda0f68aee4dc83cc7b82b0984",
        "recurrence.csv":
            "20ca83f9d3d2dc937c4fb7793888062a392c20627680138ac7ab8e74da8ff086",
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
