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
            "49543df6d2481e9516c035b223442d153a1a017e824cd6a0f73dc3022b1d9c09",
        "norms.csv":
            "449a2beb40902802febd52186da91928af19fd182c32d70e974c55d9ff8112a4",
        "snapshot_0.csv":
            "0996659714a7c3d63ebb1784f81835a1383a5e7bd9a277ae159f8b49405b5dc5",
        "snapshot_10.csv":
            "760325ce87b171560d06ca0527fc5e0b424f9ab5080239d54f8fbed17114c9eb",
        "snapshot_12.csv":
            "0e3b199ed14e5c99a26e195d9adad331295a59d47b15319086bd6c90f4ff0909",
        "snapshot_2.5.csv":
            "0a7a1e18c01661e093ad1f664cfced0f4de254652ab57a76b039a91cc8945b38",
        "snapshot_5.csv":
            "b3ad4b0458e4aa733a9f689c60cfea735e51303c0e073693c6504b10a50ec60a",
        "snapshot_7.5.csv":
            "a9d7427aebd7ee305f7cd9d5a8af00a7448b8daf6c8606a0901f618217fc89e5",
    },
    "doublewell_kn": {
        "conserved.csv":
            "af75193f48a632d08741356e942c6142a31b52bf8ba439e51de05b8dead39e5b",
        "kn_table.csv":
            "a0e957390a8c9d5f41671b807f09270baa9cb456b759fd0639bc9e0a1fd104e6",
        "norms.csv":
            "9ea1b21100be3c500f58a166a1bbc11cd5587dc21187d804061cfa4d76922767",
        "recurrence.csv":
            "54f3b8aaa0721d23f15e37149033137c83671db2fce67a1f6722db25075f72f9",
    },
    "harmonic_fig1": {
        "conserved.csv":
            "c325d01ae223558596a1e328a75ad43dca42918d70d4e6eb1a60e38189fc3dc6",
        "norms.csv":
            "2e3a0f5a59ce94c5b04af31f7c8c9bebe19c7537e1e49679220246f87a4e71ca",
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
