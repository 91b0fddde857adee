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
            "b2eaa07a063273f6f291f058641fac6dae5880713a6a45b195b0048c07d6be85",
    },
    "doublewell_fig4": {
        "conserved.csv":
            "a0e810d99e4a45eb9d6565ecb8af19d65fee45b4f01db1135978ae770c49ad35",
        "norms.csv":
            "f354608d0c4d00b9a03d4c31496ac8e99f43b9a1af59a1b88d893a7c72cf1838",
        "snapshot_0.csv":
            "0b9ad47154f79476fff5757cc64918117845e9dcfc8d0341e70ef4d2458c8498",
        "snapshot_10.csv":
            "7512b2a3651fe874c669bcaf86c09f7a304ebfc0b6acc610a772a68aeefef1fb",
        "snapshot_12.csv":
            "2397a03b8072d242ec322b1be6fdf8406b07406bba80b24c640cef9b17310c90",
        "snapshot_2.5.csv":
            "9bb098fc6c9bc07fdd354e380a0483b59f9f80f9a29d2aad06cab94cf0c998f3",
        "snapshot_5.csv":
            "b6b647fcd9f4a8b47c2f98ba50eee888c5413e171bb2910644941e87b07f5711",
        "snapshot_7.5.csv":
            "f0cbd456a8b1f6e4f9e6fbe150742088a8c63fb5edd3b2749f733c507c613c75",
    },
    "doublewell_kn": {
        "conserved.csv":
            "6c41020103ca2dd1b8be663a625ead457e96759748ea2e831a907260c6511d23",
        "kn_table.csv":
            "455920440c6a9bf5d9216842d2276ce90a4dc4cc4af4df62099a84dddd417b82",
        "norms.csv":
            "6d38c954839db6e812433725fba969c88fcdb0210d6384df845cc0c845d7cc40",
        "recurrence.csv":
            "31478502fa11a6d573d0492e2d10ebbc852c7fc27a56b82a64a481c808d6b354",
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
