import itertools

import pytest

from revpeg.quaternion import (
    I,
    J,
    K,
    MINUS_ONE,
    ONE,
    Quaternion,
    elements,
    q_mul,
    q_product,
)


def test_defining_relations():
    assert I * I == MINUS_ONE
    assert J * J == MINUS_ONE
    assert K * K == MINUS_ONE
    assert I * J * K == MINUS_ONE
    assert MINUS_ONE * MINUS_ONE == ONE


def test_products_of_units():
    assert q_mul(I, J) == K
    assert q_mul(J, K) == I
    assert q_mul(K, I) == J
    assert q_mul(J, I) == -K
    assert q_mul(K, J) == -I
    assert q_mul(I, K) == -J


def test_identity():
    for q in elements():
        assert ONE * q == q
        assert q * ONE == q


def test_closure_and_associativity_exhaustive():
    els = elements()
    assert len(set(els)) == 8
    for p, q in itertools.product(els, repeat=2):
        assert p * q in els
    for p, q, r in itertools.product(els, repeat=3):
        assert (p * q) * r == p * (q * r)


def test_inverses():
    for q in elements():
        assert q * q.inverse() == ONE
        assert q.inverse() * q == ONE


def test_anticommutation():
    for p, q in [(I, J), (J, K), (K, I)]:
        assert p * q == -(q * p)


def test_spot_chain_ikij():
    # ordered product i, k, i, j
    assert q_product([I, K, I, J]) == -I


def test_parse_and_str_roundtrip():
    for q in elements():
        assert Quaternion.parse(str(q)) == q
    assert Quaternion.parse("1") == ONE
    assert Quaternion.parse("-i") == -I
    with pytest.raises(ValueError):
        Quaternion.parse("q")
    for sign, axis in ((2, "i"), (1, "q")):
        with pytest.raises(ValueError, match="^no such quaternion: "):
            Quaternion(sign, axis)


def test_empty_product_is_identity():
    assert q_product([]) == ONE
