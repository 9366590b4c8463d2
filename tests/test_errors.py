"""Every typed error survives pickling, as it must to leave a sweep worker."""

import inspect
import pickle

import pytest

from risae import errors

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, BaseException) and cls.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    error = cls("attack.n_p", "must be >= 1") if cls is errors.ConfigInvalid else cls("bad input")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert getattr(copy, "field_path", None) == getattr(error, "field_path", None)
    if cls is errors.ConfigInvalid:
        assert str(copy) == "attack.n_p: must be >= 1"
