import json
import math

import pytest

from bgkspectral import cli
from bgkspectral.errors import ConfigError


def small_config(**overrides):
    data = {
        "potential": [0.5 * math.log(2 * math.pi), 0.5],
        "K": 6,
        "N": 4,
        "dt": 0.05,
        "T": 1.0,
        "initial": [[1, 2, 1.0], [2, 1, 1.0]],
        "n_max": 60,
    }
    data.update(overrides)
    return data


def test_dump_preset_round_trips(capsys):
    assert cli.main(["--dump-preset", "harmonic_fig1"]) == 0
    data = json.loads(capsys.readouterr().out)
    cfg = cli.RunConfig.from_dict(data)
    cfg.validate()
    assert cfg.K == 20 and cfg.N == 5


def test_unknown_preset_is_config_error():
    assert cli.main(["--dump-preset", "nope"]) == 2
    assert cli.main(["--preset", "nope"]) == 2


def test_missing_source_is_config_error():
    assert cli.main([]) == 2


def test_validation_catches_bad_fields(tmp_path):
    cases = [
        small_config(N=1),                      # below potential degree
        small_config(dt=0.3),                   # T/dt not integral
        small_config(outputs=["nope"]),
        small_config(initial=[[99, 0, 1.0]]),
        small_config(potential=[1.0, -1.0]),    # negative leading coefficient
        small_config(T=-1.0),
        small_config(fit_window=[2.0, 1.0]),
        small_config(snapshot_times=[99.0]),
        small_config(snapshot_times=[0.125]),   # not a multiple of dt
        # distinct steps, one file name snapshot_0.5.csv
        small_config(dt=1e-7, snapshot_times=[0.5, 0.5000001]),
        small_config(n_max=7),                  # below N + deg(phi) + 2 = 8
    ]
    for data in cases:
        with pytest.raises(ConfigError):
            cli.RunConfig.from_dict(data).validate()


def test_unknown_and_missing_fields():
    with pytest.raises(ConfigError, match="unknown"):
        cli.RunConfig.from_dict(small_config(bogus=1))
    with pytest.raises(ConfigError, match="missing"):
        cli.RunConfig.from_dict({"K": 2})


def test_invalid_config_leaves_no_artifacts(tmp_path):
    too_short_table = {"potential": [1, -2, 1], "K": 4, "N": 30, "T": 0.1,
                       "n_max": 20}
    for i, data in enumerate((small_config(N=1), too_short_table)):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / f"out{i}"
        assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()


def test_run_writes_artifacts_and_summary(tmp_path):
    summary = cli.run(cli.RunConfig.from_dict(small_config()), tmp_path)
    assert summary["steps"] == 20
    assert (tmp_path / "norms.csv").exists()
    assert (tmp_path / "conserved.csv").exists()
    lines = (tmp_path / "norms.csv").read_text().splitlines()
    assert lines[0] == "t,norm"
    assert len(lines) == 22
    assert float(lines[1].split(",")[1]) == pytest.approx(math.sqrt(2.0))


def test_runs_are_byte_identical(tmp_path):
    cfg = cli.RunConfig.from_dict(small_config())
    cli.run(cfg, tmp_path / "a")
    cli.run(cli.RunConfig.from_dict(small_config()), tmp_path / "b")
    for name in ("norms.csv", "conserved.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_float_format_has_full_precision(tmp_path):
    cli.run(cli.RunConfig.from_dict(small_config()), tmp_path)
    row = (tmp_path / "norms.csv").read_text().splitlines()[2]
    value = row.split(",")[1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_recurrence_and_kn_outputs(tmp_path):
    data = small_config(outputs=["recurrence", "kn"], kn_n_values=[4],
                        T=0.1, dt=0.05)
    cli.run(cli.RunConfig.from_dict(data), tmp_path)
    rec = (tmp_path / "recurrence.csv").read_text().splitlines()
    assert rec[0] == "n,a_n"
    assert len(rec) == 62
    kn = (tmp_path / "kn_table.csv").read_text().splitlines()
    assert kn[0] == "N,M_big,kn0,kn1,kn2,kn3,converged"
    fields = kn[1].split(",")
    assert fields[0] == "4" and fields[6] == "true"
    # harmonic closed form for the first column
    assert float(fields[2]) == pytest.approx(math.sqrt(4.0 / 5.0), abs=1e-10)


def test_snapshot_output(tmp_path):
    data = small_config(outputs=["snapshots"], snapshot_times=[0.0, 1.0],
                        snapshot_points=[5, 7], snapshot_range=[-2, 2, -2, 2])
    cli.run(cli.RunConfig.from_dict(data), tmp_path)
    for name in ("snapshot_0.csv", "snapshot_1.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "x,v,h"
        assert len(lines) == 1 + 5 * 7


def test_sweep_isolated_directories(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    out = tmp_path / "sweep"
    code = cli.main(["--config", str(cfg), "--out-dir", str(out),
                     "--sweep", "K=4,6"])
    assert code == 0
    assert (out / "K_4" / "norms.csv").exists()
    assert (out / "K_6" / "norms.csv").exists()


def test_sweep_validation():
    cfg = cli.RunConfig.from_dict(small_config())
    with pytest.raises(ConfigError):
        cli._parse_sweep("K", cfg)
    with pytest.raises(ConfigError):
        cli._parse_sweep("bogus=1,2", cfg)
    with pytest.raises(ConfigError):
        cli._parse_sweep("K=", cfg)
    assert cli._parse_sweep("dt=0.1,0.2", cfg) == [("dt", 0.1), ("dt", 0.2)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    # leading coefficient so large the weight integral underflows to zero
    cfg.write_text(json.dumps(small_config(potential=[0.0, 1e308], N=4)))
    assert cli.main(["--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3


def test_preset_initial_conditions_resolve(tmp_path):
    # fig4 initial data balances the energy functional exactly
    data = dict(cli.PRESETS["doublewell_fig4"])
    data.update({"T": 0.1, "dt": 0.05, "snapshot_times": [], "N": 10,
                 "outputs": ["conserved"], "n_max": 60})
    cli.run(cli.RunConfig.from_dict(data), tmp_path)
    lines = (tmp_path / "conserved.csv").read_text().splitlines()
    first = lines[1].split(",")
    assert abs(float(first[1])) <= 1e-14            # mass
    assert abs(float(first[2])) <= 1e-12            # energy_plus
    assert first[3] == ""                           # harmonic-only: n/a
