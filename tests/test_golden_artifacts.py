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
            "6409f0fbb4299dbb56469a6c74212e23e3b0663df292eb35abbcb14ff6da5947",
    },
    "doublewell_fig4": {
        "conserved.csv":
            "92e47c35138e20e23d2a51330919951dedef7e6e4e652b6a55e910b9c707a630",
        "norms.csv":
            "512c465f990dcfa566255fdab5e97267e9b72f76f48c1c1728cf1ff0e041b34c",
        "snapshot_0.csv":
            "efaae18c8de022a9bbd2a3b50384360d3f73b60e7ad0283d7453333722351877",
        "snapshot_10.csv":
            "58ecd0d1cbfa877e933142a03168e8fe13cf84aeaed8cf22e347229bb15bb4cd",
        "snapshot_12.csv":
            "f1cb3b674c7c2c6b8b66e333be417c04e427b9cf4321920ad1cca50ce0963257",
        "snapshot_2.5.csv":
            "6c79cce57459a8274841f6c7d5d7e65e0397afae7cea2685e44d6fda8669ceb6",
        "snapshot_5.csv":
            "96b4f57369858b109706674aac8412154cfd0696c19ac8dd320b9966aaa5388a",
        "snapshot_7.5.csv":
            "8ee373465261dcad6cecdafd5e800d8adc91b5c3d13beb33725932f6ab1a5b96",
    },
    "doublewell_kn": {
        "conserved.csv":
            "d9d39b1b5b32bc6819aed2e8888ffe47f91111706ae66d0f87a4c8756740eda8",
        "kn_table.csv":
            "e0d042c4572d80d1ca7adf8468bd9180dd2b85576705fe0e289c3cdef5c8df92",
        "norms.csv":
            "702b028815d237a6a729b1eee126eda66f79179a4f66b7022a53542e80a5da48",
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
