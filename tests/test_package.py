"""Tests for the package's export list."""

import decaylab
from decaylab import analyzer, errors, kinetics, montecarlo, rates

MODULES = (analyzer, errors, kinetics, montecarlo, rates)


def test_exports_are_the_modules_all_lists():
    names = decaylab.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in MODULES))
    assert decaylab.__version__ == "0.1.0"
    for module in MODULES:
        for name in module.__all__:
            assert getattr(decaylab, name) is getattr(module, name)
