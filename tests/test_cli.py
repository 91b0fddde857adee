import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgkspectral import cli, csv_writer, diagnostics, errors, orthopoly, scheme
from bgkspectral.errors import (ConfigError, IntegrationFailureError,
                                PrecisionFailureError)
from bgkspectral.orthopoly import (build_recurrence, eval_poly_all, freud_residual,
                                   hermite_eval_all)
from bgkspectral.potential import RawPotential, normalize_potential
from conftest import checked_initial, state_with

# Run options no run set to another value: every snapshot samples
# cli.SNAPSHOT_GRID and every decay fit spans [0.2 T, T].
_REMOVED_FIELDS = ("fit_window", "snapshot_range", "snapshot_points")


def small_config(**overrides):
    data = {
        "potential": [0.5 * math.log(2 * math.pi), 0.5],
        "K": 6,
        "N": 4,
        "dt": 0.05,
        "T": 1.0,
        "initial": [[1, 2, 1.0], [2, 1, 1.0]],
    }
    data.update(overrides)
    return data


def test_readme_documents_every_config_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("### Configuration fields", 1)[1].split("\n\n")[1]
    # The paragraph also backticks values such as `[k, n, value]`.
    ticked = set(re.findall(r"`([^`]+)`", paragraph))
    assert set(cli.RunConfig.__dataclass_fields__) <= ticked
    assert not {"n_max", "quad_tol"} & ticked


def test_dump_preset_round_trips(tmp_path, capsys):
    # A preset is plain data: its dump, run through --config, writes the
    # same bytes as the preset itself.
    for name in cli.PRESETS:
        assert cli.main(["--dump-preset", name]) == 0
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(capsys.readouterr().out)
        dumped, preset = tmp_path / name / "config", tmp_path / name / "preset"
        assert cli.main(["--config", str(cfg), "--out-dir", str(dumped)]) == 0
        assert cli.main(["--preset", name, "--out-dir", str(preset)]) == 0
        capsys.readouterr()
        files = sorted(p.name for p in preset.iterdir())
        assert files == sorted(p.name for p in dumped.iterdir())
        assert "norms.csv" in files
        for f in files:
            assert (dumped / f).read_bytes() == (preset / f).read_bytes(), (name, f)


def test_removed_run_options_are_unknown_fields(tmp_path, capsys):
    # Even at the values every run used, a removed key is rejected like any
    # other unknown one, before anything runs; no preset dump holds one.
    for name in cli.PRESETS:
        assert cli.main(["--dump-preset", name]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert list(dumped) == list(cli.RunConfig.__dataclass_fields__)
        assert not set(_REMOVED_FIELDS) & set(dumped)
    for name, value in zip(_REMOVED_FIELDS, (None, [-4.0, 4.0, -4.0, 4.0],
                                             [201, 201])):
        cfg, out = tmp_path / f"{name}.json", tmp_path / name
        cfg.write_text(json.dumps(dict(cli.PRESETS["doublewell_fig4"],
                                       **{name: value})))
        assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == \
            f"config error: unknown config fields: ['{name}']\n"
    # The snapshots follow `snapshot_times` alone; "snapshots" names no output.
    cfg, out = tmp_path / "snapshots.json", tmp_path / "snapshots"
    cfg.write_text(json.dumps(dict(cli.PRESETS["doublewell_fig4"],
                                   outputs=["norms", "conserved", "snapshots"])))
    assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "config error: unknown outputs: ['snapshots']\n"


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
        small_config(snapshot_times=[99.0]),
        small_config(snapshot_times=[0.125]),   # not a multiple of dt
        # distinct steps, one file name snapshot_0.5.csv
        small_config(dt=1e-7, snapshot_times=[0.5, 0.5000001]),
        small_config(dt=math.nan),
        small_config(T=math.nan),
        small_config(dt=math.inf),
        small_config(potential=[math.nan, 0.5]),
        small_config(K=4.5),
        small_config(N=5.0),
        small_config(K=True),
        small_config(kn_n_values=[4.5]),
        small_config(initial=[[0, 1, math.nan]]),
        small_config(initial=[[1.7, 2, 1.0]]),
        small_config(initial=[["a", 2, 1.0]]),
        small_config(initial=[5]),
        small_config(initial=5),
        small_config(potential=2),
        small_config(snapshot_times=1.0),
        small_config(kn_n_values=8),
        small_config(outputs="norms"),          # not read letter by letter
        small_config(outputs=[["norms"]]),
        small_config(kn_n_values=[-3]),
        small_config(purge="no"),               # a truthy string
        small_config(purge=1),
        small_config(purge=None),
        small_config(T=1e300, dt=1e-300),       # T/dt past double range
        small_config(dt=5e-324, T=5e-324, snapshot_times=[1e-13]),  # t/dt too
    ]
    for data in cases:
        with pytest.raises(ConfigError):
            cli.RunConfig.from_dict(data).validate()


@pytest.mark.parametrize("overrides, message", [
    # K = 1 drops the energy mode k = 2, so the energy of this run would
    # drift by 0.0915.
    (dict(K=1, N=6, dt=0.01, T=1.0,
          initial=[[0, 1, 1.0], [0, 2, 0.5], [1, 1, 0.3]]), "K >= 2"),
    # A repeated (k, n) would overwrite the first value.
    (dict(initial=[[0, 1, 1.0], [0, 1, 2.0]]), r"\(0, 1\) given twice"),
    # The first entry that repeats an earlier one is named, not the
    # smallest repeated (k, n).
    (dict(initial=[[3, 0, 1.0], [1, 0, 1.0], [3, 0, 2.0], [1, 0, 2.0]]),
     r"\(3, 0\) given twice"),
], ids=["K_below_2", "repeated_initial", "first_repeated_initial"])
def test_rejected_config_exits_2_with_its_reason(tmp_path, capsys, overrides,
                                                 message):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(small_config(**overrides)))
    assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert re.search(message, capsys.readouterr().err)


class _Int(int):
    pass


# (label, cast, accepted) for the k, n, K and N slots; (label, value,
# accepted) for the value slot.  A rejected type makes the second and the
# third `initial` entries offend.
_COUNT_TYPES = [
    ("int", int, True), ("np.int64", np.int64, True), ("np.int32", np.int32, True),
    ("int_subclass", _Int, True), ("True", lambda v: True, False),
    ("np.True_", lambda v: np.True_, False), ("float", float, False),
    ("str", str, False), ("None", lambda v: None, False),
]
_VALUE_TYPES = [
    ("float", 0.5, True), ("int", 2, True), ("np.float32", np.float32(0.5), True),
    ("np.float64", np.float64(0.5), True), ("nan", math.nan, False),
    ("inf", math.inf, False), ("np.nan", np.float64(math.nan), False),
    ("np.inf", np.float64(math.inf), False), ("np.float32_inf", np.float32(math.inf), False),
    ("True", True, False), ("int_past_double", 10 ** 400, False),
]


def _validates(data) -> bool:
    try:
        cli.RunConfig.from_dict(data).validate()
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize("label, cast, accepted", _COUNT_TYPES,
                         ids=[c[0] for c in _COUNT_TYPES])
@pytest.mark.parametrize("slot", ["k", "n", "K", "N"])
def test_validate_accepts_exactly_the_integer_types(slot, label, cast,
                                                    accepted):
    if slot in ("K", "N"):
        data = small_config(**{slot: cast(small_config()[slot])})
        assert _validates(data) is accepted
        return
    bad = [cast(1), 1, 0.5] if slot == "k" else [2, cast(1), 0.5]
    data = small_config(initial=[[1, 2, 1.0], bad, [cast(0), cast(0), 0.5]])
    if accepted:
        assert _validates(data)
        return
    # The message names the first offending entry, not a later one.
    with pytest.raises(ConfigError, match=re.escape(f"initial entry {bad}:")):
        cli.RunConfig.from_dict(data).validate()


@pytest.mark.parametrize("label, value, accepted", _VALUE_TYPES,
                         ids=[c[0] for c in _VALUE_TYPES])
def test_validate_accepts_exactly_the_finite_value_types(label, value,
                                                         accepted):
    bad = [2, 1, value]
    data = small_config(initial=[[1, 2, 1.0], bad, [0, 0, value]])
    if accepted:
        assert _validates(data)
        return
    with pytest.raises(ConfigError, match=re.escape(f"initial entry {bad}:")):
        cli.RunConfig.from_dict(data).validate()


@pytest.mark.parametrize("entry", [[1, 2], [1, 2, 0.5, 0.5], 5],
                         ids=["length_2", "length_4", "not_iterable"])
def test_validate_rejects_an_entry_that_is_not_a_triple(entry):
    data = small_config(initial=[[1, 2, 1.0], entry, [0, 0]])
    with pytest.raises(ConfigError, match=re.escape(f"(k, n, value): {entry!r}")):
        cli.RunConfig.from_dict(data).validate()


def _faulty_entry(draw, k, n, K, N):
    """One malformed, mistyped or out-of-range variant of entry (k, n, 1.0)."""
    return draw(st.sampled_from([
        [k, n], [k, n, 1.0, 1.0], 5, None,
        [True, n, 1.0], [k, False, 1.0], [float(k), n, 1.0], [k, float(n), 1.0],
        [np.int64(k), n, 1.0], [k, np.int32(n), 1.0],
        [k, n, math.nan], [k, n, math.inf], [k, n, -math.inf], [k, n, 10 ** 400],
        [k, n, "1.0"], [K + 1, n, 1.0], [-1, n, 1.0], [k, N + 1, 1.0], [k, -1, 1.0],
    ]))


@st.composite
def _initial_with_faults(draw):
    K, N = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    cells = st.tuples(st.integers(0, K), st.integers(0, N))
    valid = draw(st.lists(cells, max_size=12, unique=True))
    initial = [[k, n, draw(st.floats(-10.0, 10.0))] for k, n in valid]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(initial)))
        if valid and draw(st.booleans()):
            fault = [*draw(st.sampled_from(valid)), 2.0]    # a repeat
        else:
            fault = _faulty_entry(draw, *draw(cells), K, N)
        initial.insert(at, fault)
    return K, N, initial


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_initial_with_faults())
def test_validate_reports_initial_faults_as_the_per_entry_oracle(drawn):
    # validate() checks `initial` in one pass and its repeats after it; the
    # oracle checks one entry at a time.  The first bad entry in list order
    # is named, and a repeat only when no entry is malformed or out of range.
    K, N, initial = drawn
    config = cli.RunConfig.from_dict(small_config(K=K, N=N, initial=initial))
    try:
        want = checked_initial(initial, K, N)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            config.validate()
        assert str(got.value) == str(exc)
        return
    keys, values = config.validate()
    state = scheme.initial_state(keys, values, K, N)
    assert np.array_equal(state.C, state_with(want, K, N).C)


_HUGE = 10 ** 400


@pytest.mark.parametrize("overrides", [
    dict(initial=[[1, 2, _HUGE]]), dict(dt=_HUGE), dict(T=_HUGE),
    dict(potential=[0.0, _HUGE]), dict(potential=[-_HUGE, 0.5]),
    dict(snapshot_times=[_HUGE]),
    # Sizes whose arrays numpy cannot index: the state, and a basis on the
    # 201 snapshot points, which the state of K = 2**56, N = 4 fits beside.
    dict(K=_HUGE), dict(N=_HUGE), dict(K=2 ** 61, N=4), dict(K=2 ** 56, N=4),
], ids=["initial", "dt", "T", "potential_lead", "potential_constant",
        "snapshot_times", "K", "N", "K_times_N_past_intp",
        "K_times_grid_past_intp"])
def test_numbers_past_double_range_or_numpy_sizes_exit_2(tmp_path, capsys,
                                                         overrides):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(small_config(**overrides)))
    assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("value, code, err", [
    (1e155, 2, "config error: initial values: their sum of squares passes "
               "double range, so the state's norm is not finite\n"),
    (1e150, 0, ""),
])
def test_initial_values_whose_norm_passes_double_range_exit_2(tmp_path, capsys,
                                                              value, code, err):
    # Each value is finite, but from about 1.3e154 two of them have a sum of
    # squares past double range; no step could then take the state's norm.
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({
        "potential": [1.0, -2.0, 1.0], "K": 4, "N": 4, "dt": 0.01, "T": 0.1,
        "initial": [[1, 1, value], [3, 2, value]]}))
    assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("value, code, err", [
    (1.3e154, 2, "config error: initial values: after the purge their sum of "
                 "squares passes double range, so the state's norm is not "
                 "finite\n"),
    (1e150, 0, ""),
])
def test_a_purge_that_takes_the_norm_past_double_range_exits_2(tmp_path, capsys,
                                                               value, code, err):
    # One value passes validate(), but the purge moves the phi-moment of
    # C[0, :] into C[2, 0], and from about 1.3e154 the purged sum of squares
    # passes double range (ROADMAP item 3).
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({
        "potential": [1.0, -2.0, 1.0], "K": 4, "N": 4, "dt": 0.01, "T": 0.1,
        "initial": [[0, 4, value]], "purge": True}))
    cli.RunConfig.from_dict(json.loads(cfg.read_text())).validate()
    assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == 0)


_LONG = 10 ** 5000     # past the 4300 digits Python prints an int with


@pytest.mark.parametrize("overrides, message", [
    (dict(K=_LONG), "K=<int of 5001 digits>, N=4 need an array"),
    (dict(K=-_LONG), "truncation K=-<int of 5001 digits> below 2"),
    (dict(N=_LONG), "K=6, N=<int of 5001 digits> need an array"),
    (dict(dt=_LONG), "dt: <int of 5001 digits> is not a finite number"),
    (dict(T=_LONG), "T: <int of 5001 digits> is not a finite number"),
    (dict(potential=[0.0, _LONG]), "potential: <int of 5001 digits> is not"),
    (dict(initial=[[1, 2, _LONG]]), "initial entry [1, 2, <int of 5001 digits>]"),
    (dict(initial=[[_LONG, 2, 1.0]]), "initial coefficient (<int of 5001"),
    (dict(kn_n_values=[4, -_LONG]), "kn_n_values: [4, -<int of 5001 digits>]"),
], ids=["K", "K_negative", "N", "dt", "T", "potential", "initial_value",
        "initial_k", "kn_n_values"])
def test_ints_too_long_to_print_are_config_errors_naming_the_field(overrides,
                                                                   message):
    # No JSON config can hold such an int; a Python caller can.
    with pytest.raises(ConfigError) as err:
        cli.RunConfig(**small_config(**overrides)).validate()
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("n", [10 ** 12, 10 ** 400, _LONG],
                         ids=["1e12", "1e400", "1e5000"])
def test_kn_sizes_past_the_node_budget_fail_typed_naming_it(tmp_path, capsys,
                                                             n):
    # The budget is checked before the tail cutoff, whose polynomial
    # arithmetic overflows on an n_max past double range.
    pot = normalize_potential(RawPotential((1.0, -2.0, 1.0)))
    with pytest.raises(IntegrationFailureError, match=r"budget of 2\^22"):
        build_recurrence(pot, n)
    data = small_config(potential=[1.0, -2.0, 1.0], K=4, N=4, dt=0.1, T=0.1,
                        initial=[], outputs=["kn"], kn_n_values=[n])
    cli.RunConfig(**data).validate()
    if n is _LONG:          # past what a JSON config can hold
        return
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(data))
    assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure (IntegrationFailureError): ")
    assert "past the budget of 2^22" in err


def test_config_file_json_cannot_parse_exits_2(tmp_path):
    # Past 4300 digits Python refuses to parse an int; bytes that are not
    # UTF-8 are no JSON text.
    for i, text in enumerate(['{"K": %s}' % ("1" * 5000), b"\xff\xfe{}"]):
        cfg = tmp_path / f"cfg{i}.json"
        (cfg.write_bytes if isinstance(text, bytes) else cfg.write_text)(text)
        assert cli.main(["--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


def test_sizes_numpy_can_index_are_valid_and_a_failed_allocation_exits_3(
        tmp_path, capsys, monkeypatch):
    # K = 10**12 needs a 36 TiB state: numpy can describe it, so the config
    # is valid and the run fails where it allocates.  The allocation is
    # stubbed; a real one can succeed lazily under memory overcommit.
    for sizes in (dict(K=10 ** 12), dict(N=10 ** 12)):
        cli.RunConfig.from_dict(small_config(**sizes)).validate()

    def no_memory(*args):
        raise MemoryError("cannot allocate the state")

    monkeypatch.setattr(cli.scheme, "initial_state", no_memory)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(small_config()))
    assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 3
    assert not out.exists()
    assert "numerical failure (MemoryError): cannot allocate" in capsys.readouterr().err


def _owner_error(potential, K, N):
    """The ValueError RawPotential or assemble_generator raises, or None."""
    try:
        degree = RawPotential(tuple(potential)).degree
        scheme.assemble_generator(np.zeros((degree, N + 1)), K)
    except ValueError as exc:
        return exc
    return None


# Boundary potentials, then K in {1, 2} and N in {deg - 1, deg} for degree
# 2, 4 and 6.
_DOMAIN_EDGES = [
    ([1.0], 6, 4), ([1.0, 0.0], 6, 4), ([1.0, -1.0], 6, 4),
    ([1.0, 1e-300], 6, 4), ([], 6, 4),
] + [(coeffs, K, N) for coeffs in ([0.0, 1.0], [1.0, -2.0, 1.0], [0.0, 1.0, 0.0, 0.5])
     for K in (1, 2) for N in (2 * len(coeffs) - 3, 2 * len(coeffs) - 2)]


@pytest.mark.parametrize("potential, K, N", _DOMAIN_EDGES,
                         ids=[f"phi={','.join(map(str, p))}-K{K}-N{N}"
                              for p, K, N in _DOMAIN_EDGES])
def test_validate_accepts_what_the_potential_and_the_scheme_accept(potential,
                                                                   K, N):
    # validate() states neither rule; it carries the owner's message.
    want = _owner_error(potential, K, N)
    data = small_config(potential=potential, K=K, N=N, initial=[])
    if want is None:
        assert _validates(data)
        return
    with pytest.raises(ConfigError) as err:
        cli.RunConfig.from_dict(data).validate()
    assert str(err.value) == str(want)


def test_list_field_of_wrong_type_exits_2(tmp_path):
    # `initial` takes [k, n, value] triples only, not a preset's name.
    for i, data in enumerate((small_config(initial=[5]), small_config(potential=2),
                              small_config(outputs="norms"),
                              small_config(initial="doublewell_fig4"))):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / f"out{i}"
        assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()


def test_unknown_and_missing_fields():
    # The recurrence length follows from N and the potential, and the
    # quadrature tolerance is fixed, so neither is a config field.
    for extra in ({"bogus": 1}, {"n_max": 60}, {"quad_tol": 1e-12}):
        with pytest.raises(ConfigError, match="unknown"):
            cli.RunConfig.from_dict(small_config(**extra))
    with pytest.raises(ConfigError, match="missing"):
        cli.RunConfig.from_dict({"K": 2})
    for data in ("abc", [1, 2]):
        with pytest.raises(ConfigError, match="not a JSON object"):
            cli.RunConfig.from_dict(data)


def test_invalid_config_leaves_no_artifacts(tmp_path):
    for i, data in enumerate((small_config(N=1), small_config(n_max=60),
                              small_config(quad_tol=1e-12),
                              small_config(kn_n_values=[-3], outputs=["kn"]),
                              small_config(purge="no"),
                              # Not a JSON object at all.
                              5, None, "abc", [1, 2])):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / f"out{i}"
        assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()


def test_failed_artifact_write_leaves_nothing_behind(tmp_path, capsys):
    # norms.csv is written before conserved.csv, whose name is taken by a
    # directory; the run exits 2 on one line and moves no file into place.
    out = tmp_path / "partial"
    (out / "conserved.csv").mkdir(parents=True)
    assert cli.main(["--preset", "doublewell_fig3", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write artifacts to {out}: ")
    assert err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == ["conserved.csv"]
    assert not any((out / "conserved.csv").iterdir())


def test_failed_artifact_write_removes_the_directory_it_created(tmp_path,
                                                                monkeypatch):
    # norms.csv is written and conserved.csv fails: the run leaves no file
    # and no directory.
    calls = []

    def fail_second(path, *args):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        write_csv(path, *args)

    write_csv = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", fail_second)
    out = tmp_path / "new"
    with pytest.raises(ConfigError, match="disk full"):
        cli.run(cli.RunConfig.from_dict(small_config()), out)
    assert len(calls) == 2 and not out.exists()


@pytest.fixture(scope="module")
def fig4_result():
    return cli.simulate(cli.RunConfig.from_dict(cli.PRESETS["doublewell_fig4"]))


@pytest.mark.parametrize("why", ["full_run", "two_snapshots", "one_cpu",
                                 "sweep_worker"])
def test_the_write_stays_in_one_process(tmp_path, monkeypatch, fig4_result, why):
    # Whatever the snapshot count, the usable CPUs and the process it runs
    # in, a run writes every file itself and asks for no process.
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(args)
        return popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    if why == "two_snapshots":
        fig4_result = dataclasses.replace(fig4_result,
                                          snapshots=fig4_result.snapshots[:2])
    elif why == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif why == "sweep_worker":
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    if why == "full_run":
        assert cli.main(["--preset", "doublewell_fig4", "--out-dir", str(tmp_path)]) == 0
    else:
        cli.write_artifacts(fig4_result, tmp_path)
    assert started == []
    assert multiprocessing.active_children() == []
    assert (tmp_path / "snapshot_0.csv").exists()


def test_a_failed_snapshot_write_leaves_nothing_behind(tmp_path, capsys):
    # A directory takes the staged name of the third snapshot file; every
    # staged name is removed, and the run exits 2 on one line.
    out = tmp_path / "o"
    (out / ".snapshot_5.csv.partial").mkdir(parents=True)
    assert cli.main(["--preset", "doublewell_fig4", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write artifacts to {out}: ")
    assert "Is a directory" in err and ".snapshot_5.csv.partial" in err
    assert err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == [".snapshot_5.csv.partial"]


def test_an_interrupted_snapshot_write_leaves_no_out_dir(tmp_path, monkeypatch,
                                                        fig4_result):
    # The interrupt comes from the second chunk of the fourth snapshot file,
    # after its first chunk is written.
    writing, chunks = [], []
    write_csv, format_cells = cli._write_csv, csv_writer.format_cells

    def tracked(path, *args):
        writing.append(path.name)
        write_csv(path, *args)

    def interrupted(values):
        if writing[-1] == ".snapshot_7.5.csv.partial":
            chunks.append(values.shape)
            if len(chunks) == 2:
                raise KeyboardInterrupt
        return format_cells(values)

    monkeypatch.setattr(cli, "_write_csv", tracked)
    monkeypatch.setattr(csv_writer, "format_cells", interrupted)
    out = tmp_path / "new"
    with pytest.raises(KeyboardInterrupt):
        cli.write_artifacts(fig4_result, out)
    assert len(chunks) == 2
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
    assert len(rec) == 1 + 4 + 2 + 3      # header, a_0..a_{N+deg+2}
    kn = (tmp_path / "kn_table.csv").read_text().splitlines()
    assert kn[0] == "N,M_big,kn0,kn1,kn2,kn3,converged"
    fields = kn[1].split(",")
    assert fields[0] == "4" and fields[6] == "true"
    # harmonic closed form for the first column
    assert float(fields[2]) == pytest.approx(math.sqrt(4.0 / 5.0), abs=1e-10)


def test_snapshot_output(tmp_path, monkeypatch):
    # Each snapshot time writes its file, whatever the outputs name.
    monkeypatch.setattr(cli, "SNAPSHOT_GRID", np.linspace(-2.0, 2.0, 5))
    data = small_config(outputs=[], snapshot_times=[0.0, 1.0])
    cli.run(cli.RunConfig.from_dict(data), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot_0.csv",
                                                           "snapshot_1.csv"]
    for name in ("snapshot_0.csv", "snapshot_1.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "x,v,h"
        assert len(lines) == 1 + 5 * 5


def test_sweep_isolated_directories(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    out = tmp_path / "sweep"
    code = cli.main(["--config", str(cfg), "--out-dir", str(out),
                     "--sweep", "K=4,6"])
    assert code == 0
    assert (out / "K_4" / "norms.csv").exists()
    assert (out / "K_6" / "norms.csv").exists()


def test_sweep_rejects_shared_directories(tmp_path):
    data = small_config(dt=2e-7)
    for T in (1.0, 1.0000002):              # both variants validate on their own
        cli.RunConfig.from_dict(dict(data, T=T)).validate()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    # both pairs print alike under {value:g}
    for sweep in ("T=1,1.0000002", "K=4,4"):
        out = tmp_path / "sweep"
        code = cli.main(["--config", str(cfg), "--out-dir", str(out),
                         "--sweep", sweep])
        assert code == 2
        assert not out.exists()


def test_sweep_validation(tmp_path):
    cfg = cli.RunConfig.from_dict(small_config())

    def swept(spec):
        variants, dirs = cli._parse_sweep(spec, cfg, tmp_path)
        name = spec.partition("=")[0]
        return [getattr(v, name) for v in variants], [d.name for d in dirs]

    with pytest.raises(ConfigError, match="expects"):
        swept("K")
    for name in ("bogus", "n_max", "quad_tol", *_REMOVED_FIELDS):
        with pytest.raises(ConfigError, match="unknown sweep field"):
            swept(f"{name}=1,2")
    with pytest.raises(ConfigError, match="empty sweep value list"):
        swept("K=")
    # each value is a JSON number or boolean, which names its directory
    for spec in ("K=four", "K=4,'6'", "T=null", "snapshot_times=[]"):
        with pytest.raises(ConfigError, match="cannot parse"):
            swept(spec)
    # every variant is checked by the --config rules
    for spec, match in (("K=4.5", "is not an integer"),
                        ("potential=1,2", "is not a list"),
                        ("purge=1", "is not a boolean"),
                        ("purge=0", "is not a boolean"),
                        ("K=4,-1", "K >= 2"),
                        ("K=1", "K >= 2")):
        with pytest.raises(ConfigError, match=match):
            swept(spec)
    # values keep the type JSON gives them, not the field's declared type
    for spec, want, dirs in (
            ("dt=0.1,0.2", [0.1, 0.2], ["dt_0.1", "dt_0.2"]),
            ("T=1,2.5", [1, 2.5], ["T_1", "T_2.5"]),
            ("K=4,6", [4, 6], ["K_4", "K_6"]),
            ("purge=true,false", [True, False], ["purge_1", "purge_0"])):
        values, names = swept(spec)
        assert values == want and names == dirs
        assert [type(v) for v in values] == [type(v) for v in want]


def test_sweep_runs_every_variant_in_its_own_directory_or_none(tmp_path):
    # One step of a small run per variant.  Values that fail validation or
    # print alike under {value:g} (T = 0.1 and 0.1 + 1e-11 are both one
    # step) exit 2 before anything runs; no variant overwrites another.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config(dt=0.1, T=0.1)))
    codes = []
    t_values = st.one_of(st.sampled_from([0.1, 0.2, 0.1 + 1e-11, 1, 1.0000002]),
                         st.floats(0.05, 0.35))

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(st.one_of(
        st.tuples(st.just("K"), st.lists(st.integers(0, 8), min_size=1, max_size=3)),
        st.tuples(st.just("T"), st.lists(t_values, min_size=1, max_size=3)),
        st.tuples(st.just("purge"), st.lists(st.booleans(), min_size=1, max_size=3))))
    def sweep(case):
        name, values = case
        out = tmp_path / f"out{len(codes)}"
        codes.append(cli.main(["--config", str(cfg), "--out-dir", str(out), "--sweep",
                               f"{name}=" + ",".join(json.dumps(v) for v in values)]))
        if codes[-1] == 0:
            dirs = {f"{name}_{v:g}" for v in values}
            assert len(dirs) == len(values)
            assert sorted(p.name for p in out.iterdir()) == sorted(dirs)
            assert all((out / d / "norms.csv").exists() for d in dirs)
        else:
            assert codes[-1] == 2 and not out.exists()

    sweep()
    assert 0 in codes and 2 in codes


def test_unwritable_out_dir_exits_2_naming_it(tmp_path, capsys):
    # Under a regular file no directory can be made, for a run or a sweep.
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    for sweep in ([], ["--sweep", "K=4,6"]):
        out = blocker / "out"
        assert cli.main(["--config", str(cfg), "--out-dir", str(out)] + sweep) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write artifacts to {out}")
        assert err.count("\n") == 1


def test_every_error_type_crosses_a_process_boundary():
    # A sweep variant's exception comes back from its worker pickled.
    types = [t for t in vars(errors).values()
             if isinstance(t, type) and issubclass(t, Exception)]
    assert len(types) == 5
    for t in types:
        back = pickle.loads(pickle.dumps(t("what failed")))
        assert type(back) is t and back.args == ("what failed",)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers must inherit the patched module")
def test_sweep_reports_a_variant_failure_by_its_type(tmp_path, capsys,
                                                     monkeypatch):
    def breakdown(pot, n_max):
        raise PrecisionFailureError("Stieltjes breakdown: vanishing norm at index 3")

    monkeypatch.setattr(cli, "build_recurrence", breakdown)
    cfg, out = tmp_path / "cfg.json", tmp_path / "sweep"
    cfg.write_text(json.dumps(small_config()))
    assert cli.main(["--config", str(cfg), "--out-dir", str(out),
                     "--sweep", "N=5,6"]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == ("numerical failure (PrecisionFailureError): "
                                       "Stieltjes breakdown: vanishing norm at index 3\n")


def test_more_than_one_source_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    out = tmp_path / "o"
    for argv in (["--dump-preset", "harmonic_fig1", "--preset", "harmonic_fig1"],
                 ["--dump-preset", "harmonic_fig1", "--config", str(cfg)],
                 ["--preset", "harmonic_fig1", "--config", str(cfg)]):
        assert cli.main(argv + ["--out-dir", str(out)]) == 2
        assert not out.exists()
    assert capsys.readouterr().out == ""


def test_snapshot_carries_its_configured_time(tmp_path, monkeypatch):
    # Three steps of 0.1 add up to 0.30000000000000004; the snapshot keeps
    # the configured 0.3, the time validate() checked its file name from.
    monkeypatch.setattr(cli, "SNAPSHOT_GRID", np.linspace(-4.0, 4.0, 2))
    data = small_config(dt=0.1, T=0.3, outputs=[], snapshot_times=[0.3])
    result = cli.simulate(cli.RunConfig.from_dict(data))
    assert result.times[-1] == 0.1 + 0.1 + 0.1 != 0.3
    (snap,) = result.snapshots
    assert snap.t == 0.3
    cli.write_artifacts(result, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["snapshot_0.3.csv"]


def test_overflowing_snapshot_range_exits_3_before_any_file(tmp_path, capsys,
                                                           monkeypatch):
    # At x = +-1e200 the P_n values overflow; numpy would write nan cells.
    monkeypatch.setattr(cli, "SNAPSHOT_GRID", np.linspace(-1e200, 1e200, 3))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        cli.PRESETS["doublewell_fig3"], outputs=["norms"], snapshot_times=[0.0])))
    out = tmp_path / "o"
    assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "OverflowError" in err and "on [-1e+200, 1e+200]^2" in err


def test_sweep_of_N_sizes_the_recurrence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config(outputs=["recurrence"])))
    out = tmp_path / "sweep"
    code = cli.main(["--config", str(cfg), "--out-dir", str(out),
                     "--sweep", "N=4,10"])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["N_10", "N_4"]
    for n in (4, 10):
        rec = (out / f"N_{n}" / "recurrence.csv").read_text()
        assert len(rec.splitlines()) == 1 + n + 2 + 3   # header, a_0..a_{N+deg+2}


def test_numerical_failure_exit_code(tmp_path, capsys):
    # 1e308 overflows phi' and phi; at 1e300 the weight is a spike about
    # 1e-150 wide, narrower than any rule within the node budget can place
    # a node in; at 1e13 it is about 3e-7 wide, and the trapezoidal rule
    # runs out of nodes before it converges.
    for lead in (1e308, 1e300, 1e13):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(potential=[0.0, lead], N=4)))
        assert cli.main(["--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "InvalidPotentialError" in err and f"(0.0, {lead})" in err


@pytest.mark.parametrize("overrides", [
    # exp(-phi) overflows inside the cutoff
    {"potential": [0.0, -2.0, 2.0, -2.0, 0.05], "N": 8, "initial": []},
    # the K_N sweep needs a recurrence to n = 710, past the Stieltjes floor
    {"N": 6, "initial": [], "outputs": ["kn"], "kn_n_values": [160]},
])
def test_unrepresentable_runs_exit_3(tmp_path, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config(**overrides)))
    assert cli.main(["--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
    assert not (tmp_path / "o").exists()


def test_kn_sweep_past_the_node_budget_exits_3_before_any_long_pass(
        tmp_path, capsys, monkeypatch):
    # kn_n_values [50000] needs a table to n = 200,074, whose first pass
    # alone would take 800,296 intervals, past the budget of 2^22 / 6.
    started = []

    def small_passes_only(pot, n_max, panels, cutoff):
        started.append(n_max)
        assert n_max < 1000, "a pass past the node budget started"
        return stieltjes_pass(pot, n_max, panels, cutoff)

    stieltjes_pass = orthopoly._stieltjes_pass
    monkeypatch.setattr(orthopoly, "_stieltjes_pass", small_passes_only)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config(N=6, initial=[], outputs=["kn"],
                                           kn_n_values=[50000])))
    assert cli.main(["--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
    assert "IntegrationFailureError" in capsys.readouterr().err
    assert started == [6 + 2 + 2]


def test_summary_records_the_recurrence_certificate():
    result = cli.simulate(cli.RunConfig.from_dict(small_config()))
    table = result.table
    assert result.summary["freud_residual"] == table.freud_residual \
        == freud_residual(table.a, table.weight)
    assert result.summary["freud_residual"] <= 1e-12
    # n_max = N + deg(phi) + 2 = 8 certifies on the first pass, on
    # max(256, 4 n_max) panels.
    assert result.summary["recurrence_panels"] == table.panels == 256


def test_summary_records_the_kn_sweep_certificate():
    # The K_N sweep builds its own table, to 4 (8 + 16) + 2 deg(phi) + 2 = 102
    # here, longer than the run's, and certifies it separately.
    result = cli.simulate(cli.RunConfig.from_dict(
        small_config(outputs=["kn"], kn_n_values=[4, 8])))
    residual = build_recurrence(result.table.weight, 102).freud_residual
    assert [r.freud_residual for r in result.kn] == [residual] * 2
    assert result.summary["kn_freud_residual"] == residual <= 1e-12
    # Harmonic Omega is diagonal, so the truncation bound vanishes.
    assert result.summary["kn_truncation_bound"] == 0.0
    doublewell = cli.simulate(cli.RunConfig.from_dict(small_config(
        potential=[1.0, -2.0, 1.0], outputs=["kn"], kn_n_values=[4, 8])))
    assert 0.0 < doublewell.summary["kn_truncation_bound"] == max(
        r.relative_bound for r in doublewell.kn) <= 0.01
    empty = cli.simulate(cli.RunConfig.from_dict(
        small_config(outputs=["kn"], kn_n_values=[])))
    assert empty.summary["kn_freud_residual"] is None
    assert empty.summary["kn_truncation_bound"] is None
    no_kn = cli.simulate(cli.RunConfig.from_dict(small_config()))
    assert "kn_freud_residual" not in no_kn.summary
    assert "kn_truncation_bound" not in no_kn.summary


def test_summary_records_the_solver_size():
    # Harmonic, K=6, N=4: 7 * 5 unknowns.  A holds its 4 subdiagonal entries,
    # so M has 2 * 6 * 4 couplings plus 4 * 5 damped diagonal entries.  The
    # 4 * 5 even-k unknowns reduce to a tridiagonal S: a factor of 20 + 19.
    result = cli.simulate(cli.RunConfig.from_dict(small_config()))
    summary = result.summary
    assert (summary["dim"], summary["generator_nnz"],
            summary["factor_nnz"]) == (35, 68, 39)
    assert all(type(summary[key]) is int
               for key in ("dim", "generator_nnz", "factor_nnz"))


def test_kn_output_for_degree_ten(tmp_path):
    data = {"potential": [0, 0, 0, 0, 0, 1], "K": 4, "N": 10, "T": 0.1,
            "outputs": ["kn"], "kn_n_values": [4]}
    cli.run(cli.RunConfig.from_dict(data), tmp_path)
    kn = (tmp_path / "kn_table.csv").read_text().splitlines()
    assert kn[1].split(",")[:2] == ["4", "96"]                # m_big = 4 (N + 20)


def test_preset_initial_conditions_resolve(tmp_path):
    # fig4 initial data balances the energy functional exactly
    data = dict(cli.PRESETS["doublewell_fig4"])
    data.update({"T": 0.1, "dt": 0.05, "snapshot_times": [], "N": 10,
                 "outputs": ["conserved"]})
    cli.run(cli.RunConfig.from_dict(data), tmp_path)
    lines = (tmp_path / "conserved.csv").read_text().splitlines()
    first = lines[1].split(",")
    assert abs(float(first[1])) <= 1e-14            # mass
    assert abs(float(first[2])) <= 1e-12            # energy_plus
    assert first[3] == ""                           # harmonic-only: n/a


def test_summary_drift_is_measured_from_t0():
    # harmonic from C[0,0] = 1: energy_minus reads 1.4189 throughout, but mass
    # and energy_plus do not move
    data = small_config(K=10, N=4, dt=0.1, T=2.0, initial=[[0, 0, 1.0]])
    result = cli.simulate(cli.RunConfig.from_dict(data))
    assert abs(result.conserved[0, 5]) > 1.0
    assert result.summary["max_conserved_drift"] <= 1e-12 * result.norms[0]


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1e300, 0.1, 4.0,
                                   math.nan, math.inf, -math.inf])
def test_percent_format_matches_format_spec(value):
    assert "%.17g" % value == f"{value:.17g}"


def _cells(*values):
    return ",".join(f"{v:.17g}" for v in values)


def _reference_csv(header, rows):
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


def test_writer_matches_per_cell_formatting(tmp_path, monkeypatch):
    xs = vs = np.linspace(-0.7, 2.1, 7)
    monkeypatch.setattr(cli, "SNAPSHOT_GRID", xs)
    snap = small_config(outputs=["conserved"], T=0.2,
                        snapshot_times=[0.0, 0.1])
    kn = {"potential": [1.0, -2.0, 1.0], "K": 4, "N": 6, "dt": 0.05, "T": 0.5,
          "initial": [[0, 1, 1.0], [2, 3, -0.5]],
          "outputs": ["norms", "conserved", "recurrence", "kn"], "kn_n_values": [4]}
    names = []
    for i, data in enumerate((snap, kn)):
        result = cli.simulate(cli.RunConfig.from_dict(data))
        cli.write_artifacts(result, tmp_path / str(i))
        cfg, t = result.config, result.times
        expected = {}
        if "norms" in cfg.outputs:
            expected["norms.csv"] = _reference_csv(
                "t,norm", ([_cells(a, b)] for a, b in zip(t, result.norms)))
        pad = [""] * (6 - result.conserved.shape[1])
        expected["conserved.csv"] = _reference_csv(
            "t,mass,energy_plus,rx,m0,mx,energy_minus",
            ([_cells(a, *row), *pad] for a, row in zip(t, result.conserved)))
        for st in result.snapshots:
            grid = diagnostics.snapshot(st, eval_poly_all(result.table, cfg.N, xs),
                                        hermite_eval_all(cfg.K, vs))
            expected[f"snapshot_{st.t:g}.csv"] = _reference_csv(
                "x,v,h", ([_cells(x, v, grid[a, b])]
                          for a, x in enumerate(xs) for b, v in enumerate(vs)))
        if "recurrence" in cfg.outputs:
            expected["recurrence.csv"] = _reference_csv(
                "n,a_n", ([str(n), _cells(a)] for n, a in enumerate(result.table.a)))
        if result.kn is not None:
            expected["kn_table.csv"] = _reference_csv(
                "N,M_big,kn0,kn1,kn2,kn3,converged",
                ([str(r.N), str(r.m_big), _cells(*r.kn), str(r.converged).lower()]
                 for r in result.kn))
        written = {p.name: p.read_text() for p in (tmp_path / str(i)).iterdir()}
        assert written == expected
        names.append(sorted(written))
    assert names == [["conserved.csv", "snapshot_0.1.csv", "snapshot_0.csv"],
                     ["conserved.csv", "kn_table.csv", "norms.csv", "recurrence.csv"]]
