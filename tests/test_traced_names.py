"""The traced benchmark wraps program functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

REP = Path(__file__).resolve().parent.parent / "perfbench" / "rep.py"


def load_rep():
    spec = importlib.util.spec_from_file_location("perfbench_rep", REP)
    rep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rep)
    return rep


def test_every_traced_name_resolves():
    rep = load_rep()
    missing = []
    for name in rep.SPANS:
        home, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"linbins.{home}"), attr, None)):
            missing.append(name)
    assert not missing
    # The tracer also subclasses the pool class the counters start.
    assert isinstance(importlib.import_module("linbins.oracles").ProcessPoolExecutor, type)
