"""Ring arithmetic and vector algebra for resolution coefficients."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from braidskein.skein import (
    A,
    A_INV,
    B,
    NEG_A_INV_B,
    DimensionError,
    LaurentAB,
    RingDomainError,
    SkeinVector,
    partition_str,
)

polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(0, 4)),
    st.integers(-5, 5),
    max_size=5,
).map(LaurentAB)


# -- ring ----------------------------------------------------------------------


def test_constants():
    assert A * A_INV == LaurentAB.one()
    assert NEG_A_INV_B == -(A_INV * B)


def test_negative_b_exponent_rejected():
    for terms in ({(0, 0): 1, (2, -3): 4}, [((0, 0), 1), ((2, -3), 4)]):
        with pytest.raises(RingDomainError, match=r"^negative exponent -3 on B$"):
            LaurentAB(terms)
    # a zero coefficient is dropped before its B exponent is read
    assert LaurentAB({(2, -3): 0}) == LaurentAB.zero()


def test_terms_as_pairs_check_the_b_exponent():
    # a coefficient in a (key, coeff) pair is not read as the B exponent
    assert LaurentAB([((0, 1), -1)]) == -B
    with pytest.raises(RingDomainError):
        LaurentAB([((0, -1), 1)])


@pytest.mark.parametrize("terms", [
    {(0.5, 0): 1}, {(0, 0): 0.5}, {(0, True): 1}, {(0, 0): True},
    {(0,): 1}, {(0, 0, 0): 1}, {0: 1}, {"0,0": 1},
])
def test_terms_off_the_ring_rejected(terms):
    # the docs promise checked input: an exponent key is a pair of ints, and
    # a coefficient an int, even where it is zero
    with pytest.raises(RingDomainError, match="is not a term of LaurentAB$"):
        LaurentAB(terms)


def test_vector_coefficients_must_be_laurent():
    # an int coefficient would break format() and the bridge later on
    for coeff in (7, 0, 1.0, {(0, 0): 1}):
        with pytest.raises(RingDomainError, match="is not a LaurentAB$"):
            SkeinVector(1, {(1,): coeff})


def test_zero_terms_dropped():
    assert LaurentAB({(1, 0): 0}) == LaurentAB.zero()
    assert not (A - A)


@given(polys, polys, polys)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + LaurentAB.zero() == x
    assert x * LaurentAB.one() == x
    assert x - x == LaurentAB.zero()


@given(polys)
def test_json_round_trip(x):
    assert LaurentAB.from_json_dict(x.to_json_dict()) == x


def test_format():
    assert LaurentAB.zero().format() == "0"
    assert LaurentAB.one().format() == "1"
    assert (A + B * B).format() == "A + B^2"
    assert (A * B).format() == "A*B"
    assert A_INV.format() == "A^-1"
    assert NEG_A_INV_B.format() == "-A^-1*B"
    assert (LaurentAB({(2, 0): 2}) - B).format() == "2*A^2 - B"
    assert (-LaurentAB({(0, 0): 3})).format() == "-3"
    assert (B - A).format() == "-A + B"


# -- vectors ---------------------------------------------------------------------


def test_partition_str():
    assert partition_str((2,)) == "(2)"
    assert partition_str((1, 1)) == "(1,1)"


def test_vector_rejects_bad_partition():
    with pytest.raises(DimensionError):
        SkeinVector(2, {(3,): A})
    # unsorted, a zero part, a wrong sum either way, a negative part; and
    # parts that are not ints: a float or bool part used to pass, print as
    # (2.0,1) and write a JSON key that from_json_dict cannot read, and a str
    # part or a bare int raised TypeError
    for parts in [(1, 2), (3, 0), (2, 2), (1,), (2, 2, -1),
                  (2.0, 1), (2, 1.0), (True, True, True), ("x",), 3]:
        message = "^" + re.escape(f"{parts} is not a partition of 3") + "$"
        with pytest.raises(DimensionError, match=message):
            SkeinVector(3, {(3,): A, parts: B})
        with pytest.raises(DimensionError, match=message):
            SkeinVector(3, [(parts, LaurentAB.zero())])  # a zero entry's key is checked too


def test_vector_rejects_a_strand_count_below_one():
    # the empty partition of 0 once passed, and the bridge turned it into
    # DELTA^-1 with a float coefficient; a bool is not a strand count either
    for n, entries in [(0, {(): LaurentAB.one()}), (0, {}), (-1, {}),
                       (True, {(1,): LaurentAB.one()}), (2.0, {(2,): A})]:
        message = "^" + re.escape(f"strand count {n!r} is not an int >= 1") + "$"
        with pytest.raises(DimensionError, match=message):
            SkeinVector(n, entries)
    with pytest.raises(DimensionError):
        SkeinVector.from_json_dict(0, {})
    assert SkeinVector(1, {(1,): LaurentAB.one()}).strand_count == 1


def test_vector_drops_zero_entries():
    v = SkeinVector(2, {(2,): A - A, (1, 1): B})
    assert list(v.entries()) == [(1, 1)]


def test_vector_entry_order_largest_first():
    v = SkeinVector(3, {(1, 1, 1): B, (3,): A, (2, 1): LaurentAB.one()})
    assert list(v.entries()) == [(3,), (2, 1), (1, 1, 1)]
    assert v.format() == "(3): A ; (2,1): 1 ; (1,1,1): B"


def test_vector_algebra():
    x = SkeinVector(2, {(2,): A, (1, 1): B})
    y = SkeinVector(2, {(2,): B})
    assert x + y == SkeinVector(2, {(2,): A + B, (1, 1): B})
    assert x.scale(B) == SkeinVector(2, {(2,): A * B, (1, 1): B * B})
    with pytest.raises(DimensionError):
        x + SkeinVector(3, {})


def test_vector_format_example():
    v = SkeinVector(2, {(2,): A + B * B, (1, 1): A * B})
    assert v.format() == "(2): A + B^2 ; (1,1): A*B"
    assert SkeinVector(2).format() == "0"


def test_vector_json_round_trip():
    v = SkeinVector(2, {(2,): A + B * B, (1, 1): NEG_A_INV_B})
    data = v.to_json_dict()
    assert data == {"2": {"1,0": 1, "0,2": 1}, "1,1": {"-1,1": -1}}
    assert SkeinVector.from_json_dict(2, data) == v
