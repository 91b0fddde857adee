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
            "f06f8c136fbc8c8e407d920de06a06e8ac951c68bfe9806a316641fc4503c6ef",
        "norms.csv":
            "4f51261676333ad7b4f6de7c922cf01e82c597c8c434a185c530703ad67bdc09",
        "snapshot_0.csv":
            "efaae18c8de022a9bbd2a3b50384360d3f73b60e7ad0283d7453333722351877",
        "snapshot_10.csv":
            "42cd16362dfaee1f9051411ed6e51f8b3cf5b81f77d398c4173b9514e5057a02",
        "snapshot_12.csv":
            "8231c720976a14a72f1cd5460b95cbca2c25d9e67d42ed63b2e15ad5e1f68dd2",
        "snapshot_2.5.csv":
            "7ebbc1b73d1b060a313e5c50582b698deb2621cec8acfc4b5ef0f8d09d57b87f",
        "snapshot_5.csv":
            "c0701996993964a36ad2e54f1e3c00af4501f2ec3ee6a177be750db923d3c16e",
        "snapshot_7.5.csv":
            "b7e7beed12d84cb2a3ddc1949a3b9ade75bf4c8dd8b9d9aaf70d6d905c7a4c1f",
    },
    "doublewell_kn": {
        "conserved.csv":
            "af75193f48a632d08741356e942c6142a31b52bf8ba439e51de05b8dead39e5b",
        "kn_table.csv":
            "abbda4cf9720fd9276a9dc4aa38f91b41b7f4cbf87e2e65b73941462d904b1b4",
        "norms.csv":
            "9ea1b21100be3c500f58a166a1bbc11cd5587dc21187d804061cfa4d76922767",
        "recurrence.csv":
            "cfb275663d9f70d66f91396ceb0ea7f41a7318736914ecea335404c9bd020dac",
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
