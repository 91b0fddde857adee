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
            "870d285a98e1ca4722a84fcdc55017d67a879ee807299e30b98e5f0eb101c9fe",
    },
    "doublewell_fig4": {
        "conserved.csv":
            "e2d0982d0317aa2d7378b00523de77db2fdbf6937285e0fd9b3400d32d4b07f4",
        "norms.csv":
            "9b7138c6b5dc9279f98bbbb04dd8a6c70aeba51eaa08f745ca38e64546d7f683",
        "snapshot_0.csv":
            "efaae18c8de022a9bbd2a3b50384360d3f73b60e7ad0283d7453333722351877",
        "snapshot_10.csv":
            "9d6d50ebc7bb6d61e37393fe50d4e95a55127d29151442ea87f065e6fd04943f",
        "snapshot_12.csv":
            "e5cc114e8008c0d44196b4bd533a73705c9bdf46a94e3cfe567dc00f8ed8fd35",
        "snapshot_2.5.csv":
            "becf171b985e67805f55bf16698a950b79580d4a3bab196c596c90a3258ba6bf",
        "snapshot_5.csv":
            "ff71fe0f7f2eac6486c16e801594d86fd706d6918d596b4451813ef7d80e2546",
        "snapshot_7.5.csv":
            "003accf471d0cc88a7523e5786ae2675139625170dfe1b8fd065a046fe1ffdb6",
    },
    "doublewell_kn": {
        "conserved.csv":
            "b3fbdbf5e6b1eecfe17dd995c58977bb5ddb547e3ae55310543aff39341fd31e",
        "kn_table.csv":
            "6852056f4456a1bed095042aebf10b32ab0ad4b98a592c0b66a7045b3a9727d2",
        "norms.csv":
            "569498bc81df3698463f9a3e3bebb404c0c2e76445ed4638b3262349e25da029",
        "recurrence.csv":
            "35b52531aa609f7d8afca377d4059158ab6d9501ce3afc67f554c259f0d6ddad",
    },
    "harmonic_fig1": {
        "conserved.csv":
            "c325d01ae223558596a1e328a75ad43dca42918d70d4e6eb1a60e38189fc3dc6",
        "norms.csv":
            "5269c7aec67edc19a42986edb78d61dae5fde0ed8d5b1f6f45e11e0754791646",
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
