import time

import pytest

from flagposet.errors import InvalidParameter
from flagposet.fields import GF, parse_field


def trial_division(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_small_moduli_match_trial_division():
    for n in range(-3, 3000):
        if trial_division(n):
            assert GF(n).p == n
        else:
            with pytest.raises(InvalidParameter):
                GF(n)


def test_mersenne_61_accepted_quickly():
    start = time.perf_counter()
    assert str(parse_field("gfp:2305843009213693951")) == \
        "GF(2305843009213693951)"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [
    561,  # Carmichael number
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to the primes up to 23
    318665857834031151167461,  # strong pseudoprime to the primes up to 37
])
def test_composites_rejected(n):
    with pytest.raises(InvalidParameter, match="not a prime"):
        GF(n)


def test_over_range_modulus_rejected():
    # the least strong pseudoprime to all thirteen bases up to 41
    with pytest.raises(InvalidParameter, match="too large"):
        GF(3317044064679887385961981)
    with pytest.raises(InvalidParameter, match="too large"):
        parse_field(f"gfp:{2 ** 127 - 1}")
