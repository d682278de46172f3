import dataclasses

import pytest

from navbench.errors import ParseError
from navbench.local_planners import CONFIGS, load_planner_config


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cfg_roundtrip_keeps_field_types(name, tmp_path):
    cls = CONFIGS[name]
    default = cls()
    path = tmp_path / f"{name}.cfg"
    lines = ["# every field at its default"]
    lines += [f"{f.name} {getattr(default, f.name)!r}" for f in dataclasses.fields(cls)]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_planner_config(path, name)
    assert loaded == default
    for f in dataclasses.fields(cls):
        assert type(getattr(loaded, f.name)) is type(getattr(default, f.name)), f.name


@pytest.mark.parametrize("text, line", [
    ("n_poses 12\nmax_iterations 2.5\n", 2),     # int field given a float
    ("w_goal 1.0\n\nw_time fast\n", 3),          # not a number
    ("# comment\nno_such_key 1\n", 2),           # unknown key
    ("dt_init inf\n", 1),                        # not finite
    ("n_poses 12\nd_min nan\n", 2),
    ("w_obstacle inf\n", 1),
])
def test_bad_value_or_key_names_path_and_line(text, line, tmp_path):
    path = tmp_path / "teb.cfg"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_planner_config(path, "teb")
    assert err.value.line == line
    assert str(err.value).startswith(f"{path}:{line}:")


@pytest.mark.parametrize("text, line", [
    ("sim_horizon inf\n", 1),   # the trial died in dwa_plan with an OverflowError
    ("n_v 5\nw_heading nan\n", 2),
])
def test_non_finite_dwa_value_names_path_and_line(text, line, tmp_path):
    path = tmp_path / "dwa.cfg"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_planner_config(path, "dwa")
    assert err.value.line == line
    assert str(err.value).startswith(f"{path}:{line}:")


def test_repeated_key_names_the_repeat(tmp_path):
    path = tmp_path / "teb.cfg"
    path.write_text("n_poses 12\n# again\nn_poses 40\n")
    with pytest.raises(ParseError) as err:
        load_planner_config(path, "teb")
    assert err.value.line == 3
    assert str(err.value).startswith(f"{path}:3:")


def test_broken_invariant_names_the_file(tmp_path):
    path = tmp_path / "dwa.cfg"
    path.write_text("n_v 1\n")
    with pytest.raises(ParseError) as err:
        load_planner_config(path, "dwa")
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}:")
    assert "at least 3 samples" in str(err.value)
