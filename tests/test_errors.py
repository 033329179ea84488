"""fogsim's own errors survive pickling, so a forked child can send one back as it is."""
import pickle

import pytest

from fogsim.errors import (
    ConfigError,
    CyclicDependency,
    DeadlockDetected,
    EncodingOverflow,
    NeedMoreBytes,
    ProtocolError,
)

ERRORS = [
    ConfigError("ga.pop_size", "too small"),
    ProtocolError("bad value for Data.size_bytes", 17),
    ProtocolError("no offset given"),
    NeedMoreBytes(4),
    DeadlockDetected("1 of 1 user(s) unfinished", "master: waiting_ready"),
    DeadlockDetected("no dump"),
    EncodingOverflow("body of 9 bytes exceeds 8"),
    CyclicDependency("a -> b -> a"),
]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("error", ERRORS, ids=lambda e: f"{type(e).__name__}:{e}")
def test_an_error_comes_back_with_its_type_text_and_fields(error, protocol):
    copy = pickle.loads(pickle.dumps(error, protocol))
    assert type(copy) is type(error)
    assert str(copy) == str(error) and copy.args == error.args
    for name in ("path", "offset", "needed", "dump"):
        assert getattr(copy, name, None) == getattr(error, name, None)
    assert vars(copy) == vars(error)
