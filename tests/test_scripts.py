"""Smoke tests of the experiment scripts at tiny sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,args,header,rows",
    [
        (
            "mc_convergence",
            ["--sizes", "100,300", "--seed", "3"],
            "n0,sup_rel_error,scaled_error,detection_statistic,verdict",
            2,
        ),
        ("lifetime_sweep", ["--steps", "3"], "w,tau_tilde_state,tau_tilde_or,tau_tilde_pa", 3),
    ],
)
def test_script_writes_its_table(tmp_path, capsys, name, args, header, rows):
    out = tmp_path / f"{name}.csv"
    assert _load(name).main([*args, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == rows + 1
    assert str(out) in capsys.readouterr().out
