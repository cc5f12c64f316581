import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint

import pastures
from pastures import gf
from pastures.gf import (GF, MAX_Q, FieldConstructionFailed, FieldTooLarge,
                         NotPrimePower, field, prime_power)
from oracles import gf_inv, gf_minus_one, gf_neg, gf_sub

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


@pytest.mark.parametrize("q", SMALL_Q)
def test_basic_structure(q):
    F = field(q)
    assert F.q == q
    assert F.exp[0] == 1
    assert len(F.exp) == q - 1
    assert sorted(F.exp) == list(range(1, q))
    # dlog inverts exp
    for k, e in enumerate(F.exp):
        assert F.dlog[e] == k
    # generator has full order
    seen = {1}
    x = F.generator
    for _ in range(q - 2):
        assert x not in seen
        seen.add(x)
        x = F.mul(x, F.generator)
    assert x == 1


def reference_least_generator(F):
    """The cycle walk the order test replaced, kept as its oracle: the least
    a whose powers 1, a, a^2, ... reach q - 1 elements before returning to
    1, and those powers."""
    for a in range(1, F.q):
        powers, x = [1], a
        while x != 1 and len(powers) < F.q - 1:
            powers.append(x)
            x = F.mul(x, a)
        if x == 1 and len(powers) == F.q - 1:
            return a, powers
    return None


PRIME_POWERS_1024 = [q for q in range(2, 1025) if len(factorint(q)) == 1]


def test_tables_match_cycle_walk_up_to_1024():
    """The generator and ``exp``, ``dlog`` and ``zech`` tables of every
    GF(q), q <= 1024, against the cycle walk and field additions."""
    assert len(PRIME_POWERS_1024) == 198
    for q in PRIME_POWERS_1024:
        F = field(q)
        assert (F.generator, F.exp) == reference_least_generator(F), q
        assert F.dlog == {e: i for i, e in enumerate(F.exp)}, q
        assert F.zech == [F.dlog.get(F.add(1, e)) for e in F.exp], q


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
def test_field_axioms_exhaustive(q):
    F = field(q)
    els = range(q)
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, gf_neg(F, a)) == 0
        if a:
            assert F.mul(a, gf_inv(F, a)) == 1


@given(st.sampled_from([3, 5, 7, 11, 13, 31]), st.data())
@settings(max_examples=150, deadline=None)
def test_prime_fields_are_mod_p(q, data):
    F = field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert F.add(a, b) == (a + b) % q
    assert F.mul(a, b) == (a * b) % q
    assert gf_neg(F, a) == (-a) % q
    assert gf_sub(F, a, b) == (a - b) % q


def test_minus_one():
    assert gf_minus_one(field(7)) == 6
    assert gf_minus_one(field(2)) == 1
    assert gf_minus_one(field(4)) == 1          # char 2
    F9 = field(9)
    m = gf_minus_one(F9)
    assert F9.add(m, 1) == 0
    # in odd characteristic, -1 is the unique element of order 2
    assert F9.mul(m, m) == 1
    assert m != 1


def test_frobenius_is_additive():
    F = field(9)
    for a, b in itertools.product(range(F.q), repeat=2):
        fa = F.power(a, 3) if a else 0
        fb = F.power(b, 3) if b else 0
        s = F.add(a, b)
        fs = F.power(s, 3) if s else 0
        assert fs == F.add(fa, fb)


def test_not_prime_power():
    for n in (0, 1, 6, 12, 15, 100):
        with pytest.raises(NotPrimePower):
            field(n)


def test_field_is_cached():
    assert field(8) is field(8)


@given(st.integers(-5, 10**6))
@example(2)
@example(4)
@example(997 * 997)
@example(2**19)
@example(10**6)
@settings(max_examples=500, deadline=None)
def test_prime_power_matches_factorint(n):
    """Trial division agrees with sympy, used here only as an oracle."""
    if n < 2 or len(factorint(n)) != 1:
        with pytest.raises(NotPrimePower):
            prime_power(n)
    else:
        [(p, k)] = factorint(n).items()
        assert prime_power(n) == (p, k)


@pytest.mark.parametrize("bad", [4.0, 2.5, "4", None, (4,)])
def test_prime_power_rejects_non_integers(bad):
    with pytest.raises(NotPrimePower):
        prime_power(bad)


def test_import_does_not_load_sympy():
    src = pathlib.Path(pastures.__file__).resolve().parents[1]
    code = ("import sys, pastures, pastures.cli; "
            "sys.exit('sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "sympy was imported"


def test_construction_failure_is_a_typed_error(monkeypatch):
    # no element of full order: a typed error, not an assert, under -O too;
    # with 1 as the only prime divisor of q - 1 the order test asks for
    # a^(q-1) != 1, which no unit passes, in a prime and an extension field
    monkeypatch.setattr(gf, "_prime_divisors", lambda n: [1])
    for q in (5, 9):
        with pytest.raises(FieldConstructionFailed):
            GF(q)


@pytest.mark.parametrize("q", [65537, 2**17, 1000000007, 2**127 - 1])
def test_field_past_max_q_is_refused(q):
    # refused before any table is built, however large q is
    assert q > MAX_Q
    with pytest.raises(FieldTooLarge):
        field(q)
