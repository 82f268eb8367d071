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


def test_lemma_checks_run_each_traced_check_once(tmp_path, monkeypatch):
    # The tracer wraps experiments.check_<name> after import, so
    # run_lemma_checks must look each one up when it runs.
    experiments = importlib.import_module("linbins.experiments")
    calls = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        return wrapper

    names = load_rep().CHECKS
    for name in names:
        attr = f"check_{name}"
        monkeypatch.setattr(experiments, attr, counting(name, getattr(experiments, attr)))
    assert all(c.passed for c in experiments.run_lemma_checks(13, 3, tmp_path / "l.report.csv"))
    assert calls == {name: 1 for name in names}
