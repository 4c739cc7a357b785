"""The list in ``tests/mutants.py`` stays applicable: a change that moves
mutated code fails here, not in the next mutant run."""

from mutants import MUTANTS, stale


def test_every_mutant_has_its_own_id_and_applies_at_exactly_one_place():
    assert stale(MUTANTS) == []
