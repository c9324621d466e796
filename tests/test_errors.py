"""The one rule for a refused allocation."""

import pytest

from longmem.errors import DomainError, allocating


@pytest.mark.parametrize("refusal", [MemoryError, ValueError("array is too big")])
def test_a_refused_allocation_names_its_size(refusal):
    with pytest.raises(DomainError) as raised:
        with allocating("length 3", 3 << 30, "the series", "use a shorter length"):
            raise refusal
    assert str(raised.value) == (
        "length 3 needs 3221225472 bytes (3 GiB) for the series, which could not be allocated; "
        "use a shorter length"
    )
    assert raised.value.__cause__ is None and raised.value.__suppress_context__


def test_purpose_and_advice_are_optional():
    message = r"^horizon 7 needs 64 bytes \(5.96e-08 GiB\), which could not be allocated$"
    with pytest.raises(DomainError, match=message):
        with allocating("horizon 7", 64):
            raise MemoryError


def test_callable_sizes_are_worked_out_on_refusal_alone():
    calls = []

    def size():
        calls.append("size")
        return 8

    with allocating(lambda: calls.append("what"), size):
        pass
    assert calls == []
    with pytest.raises(DomainError, match="^a model needs 8 bytes "):
        with allocating(lambda: "a model", size):
            raise MemoryError
    assert calls == ["size"]


def test_other_errors_pass_through():
    with pytest.raises(KeyError):
        with allocating("length 3", 24):
            raise KeyError("x")
    with pytest.raises(DomainError, match="^bad$"):
        with allocating("length 3", 24):
            raise DomainError("bad")
