"""The package's exception types."""

import pickle

import pytest

from niwclust import errors


def _samples():
    """One instance of every exception class that niwclust.errors defines."""
    for cls in vars(errors).values():
        if not (isinstance(cls, type) and cls.__module__ == errors.__name__):
            continue
        if cls is errors.ParseError:
            yield cls(3, 4, "x")
            yield cls(7, None, "field larger than field limit (131072)")
        else:
            yield cls("bad value")


@pytest.mark.parametrize("exc", list(_samples()), ids=lambda exc: type(exc).__name__)
def test_errors_survive_pickling(exc):
    # a pool worker's error reaches the caller through pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
