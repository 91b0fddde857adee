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
            "10fbe23acf178ce7f9a9199e1e62b5d125ddd12783c9445241a64395a533fde5",
    },
    "doublewell_fig4": {
        "conserved.csv":
            "e2e08d6a17ab8626f5e586c65c9337b955bf674f76fbed6df4b73a4f16483768",
        "norms.csv":
            "6591e2cb2dce0965bc65fd084bb529fb8925511f3acd6b242a60e435095fc0d6",
        "snapshot_0.csv":
            "d6fa60f1a3d6872ee0e42c31e3901103f988fca88b9dacbbe8a35bd14a59153b",
        "snapshot_10.csv":
            "651f0dd3b4bcada57a2197ddbcb618fd110aa34c37aec37996be20d852feaaa7",
        "snapshot_12.csv":
            "24b7f5f207a699c613085b0802fdc563cc8f29c7a9573573f3bea100809074b1",
        "snapshot_2.5.csv":
            "12a6e6601240eda3e4f0903bb4955aecac0142d96f31485497f2f828332bc840",
        "snapshot_5.csv":
            "e7d186b40bea3a54643abfbfa30447b2671dd1e51b1cdef87df6b091cab4884f",
        "snapshot_7.5.csv":
            "b3bd2284923f7568ffac5c1ab9e83a07b01531d2735c048fa33609c3ed72e674",
    },
    "doublewell_kn": {
        "conserved.csv":
            "e72b953b7b638284671afb8d363d3022e780bbeb8bb0ada18cec0677f423ab88",
        "kn_table.csv":
            "c27ea660d62665bc056f1ca37364a47ab6558fe7201bf2925be39ee8471c732e",
        "norms.csv":
            "46fdaa953158f4f6fc192b45ea143810e23fa0c9c5ace8c908788cd0075dd814",
        "recurrence.csv":
            "f12bf42c6db6b55fbc4a9017e39b0d095e4ac5ce1d2f72aafbf8bdb0b9e8800a",
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
