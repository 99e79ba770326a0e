"""Fixtures shared by the test modules."""

import pytest

from weylpbw import AdmissibleLattice


@pytest.fixture
def lattice_builds(monkeypatch):
    """The highest weights of the lattices built from here on, in order."""
    builds = []
    build = AdmissibleLattice.build.__func__
    monkeypatch.setattr(AdmissibleLattice, "build", classmethod(
        lambda cls, *args: builds.append(args[1]) or build(cls, *args)))
    return builds
