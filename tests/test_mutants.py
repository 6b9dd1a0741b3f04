import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_each_mutants_old_text_occurs_exactly_once(mutant):
    # runs no mutant: it only keeps the table from going stale, since an
    # edit that moves a mutant's old text would leave it applying nowhere
    assert mutants.occurrences(mutant) == 1
    assert mutant.new != mutant.old and mutant.tests
    assert all((ROOT / module).is_file() for module in mutant.tests)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_a_mutant_whose_tests_stall_is_reported_as_a_timeout(monkeypatch, capsys):
    # runs no pytest: the run raises TimeoutExpired as subprocess.run does
    # once TIMEOUT_S has passed, and the table names the outcome and exits 1
    def stalled(args, **kwargs):
        assert kwargs["timeout"] == mutants.TIMEOUT_S
        raise mutants.subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", stalled)
    name = mutants.MUTANTS[0].name
    assert mutants.main(["--only", name]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{name} | timeout | no result after {mutants.TIMEOUT_S} s | ")
    assert lines[1].startswith("1 mutants, 0 killed, in ")
