"""Fixtures shared by the test modules."""

import math

import pytest


@pytest.fixture
def count_fsum(monkeypatch):
    """A function that replaces math.fsum, from its call on, by a wrapper
    that lists its calls' lengths, and returns that list."""

    def start() -> list:
        fsum, calls = math.fsum, []

        def counted(values):
            calls.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", counted)
        return calls

    return start
