import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab.characters import ramanujan_sum
from cmlab.errors import CapacityError, DomainError
import oracles
from oracles import (
    characters_mod,
    euler_phi,
    exponential_from_characters,
    gauss_sum,
    mobius,
    ramanujan_sum_direct,
)


def e(x):
    return np.exp(2j * np.pi * x)


def coprime_indicator(q):
    return np.array([math.gcd(r, q) == 1 for r in range(q)], dtype=np.complex128)


class TestConstruction:
    def test_trivial_modulus(self):
        table = characters_mod(1)
        assert table.shape == (1, 1) and table.dtype == np.complex128
        for n in range(-3, 10):
            assert table[0, n % 1] == 1

    def test_mod_4(self):
        table = characters_mod(4)
        assert table.shape == (2, 4)
        assert np.array_equal(table[0], coprime_indicator(4))
        assert table[1, 3] == pytest.approx(-1)

    def test_mod_5_is_c4_table(self):
        # (Z/5)* is cyclic of order 4 with generator 2: rows must be the C4 table
        table = characters_mod(5)
        assert len(table) == 4
        rows = sorted(tuple(np.round(row[2**k % 5], 9) for k in range(4)) for row in table)
        i = 1j
        expected = sorted(
            tuple(np.round(w**k, 9) for k in range(4)) for w in (1, i, -1, -i)
        )
        assert rows == expected

    def test_count_and_single_principal(self):
        for q in (2, 3, 6, 8, 12, 16, 24, 30, 45, 64):
            table = characters_mod(q)
            assert table.shape == (euler_phi(q), q)
            # row 0 is the coprimality indicator, and it is the only such row
            principal = [np.array_equal(row, coprime_indicator(q)) for row in table]
            assert principal[0] and sum(principal) == 1

    def test_complete_multiplicativity(self, rng):
        for q in (7, 12, 16, 45):
            for row in characters_mod(q):
                for _ in range(20):
                    m, n = rng.integers(0, 4 * q, size=2)
                    assert row[m * n % q] == pytest.approx(row[m % q] * row[n % q], abs=1e-10)

    def test_vanishing_iff_not_coprime(self):
        for q in (6, 9, 20):
            for row in characters_mod(q):
                for n in range(q):
                    if math.gcd(n, q) > 1:
                        assert row[n] == 0
                    else:
                        assert abs(row[n]) == pytest.approx(1.0)

    def test_orthogonality_sample(self):
        for q in (3, 8, 15, 36, 50):
            table = characters_mod(q)
            phi = euler_phi(q)
            gram = table @ np.conj(table.T)
            assert np.allclose(gram, phi * np.eye(phi), atol=1e-8)

    def test_capacity(self, monkeypatch):
        with pytest.raises(CapacityError):
            characters_mod(10**5 + 1)
        # a modulus over the cap on its own is refused before it is factorized
        monkeypatch.setattr(oracles, "_unit_group", None)
        with pytest.raises(CapacityError):
            characters_mod(10**18)

    def test_byte_cap(self, monkeypatch):
        # 16 bytes per value: the 12 x 13 table mod 13 takes 2496 bytes
        monkeypatch.setattr(oracles, "CHARACTER_TABLE_CAP", 16 * 12 * 13 - 1)
        with pytest.raises(CapacityError):
            characters_mod(13)
        monkeypatch.setattr(oracles, "CHARACTER_TABLE_CAP", 16 * 12 * 13)
        assert characters_mod(13).shape == (12, 13)

    def test_enumeration_is_reproducible(self):
        a, b = characters_mod(36), characters_mod(36)
        assert a is not b and np.array_equal(a, b)
        # row j is the character with the j-th exponent tuple in lexicographic
        # order: it sends generator g_l of order s_l to e(a_l / s_l)
        for q in (36, 40, 63):
            gens = oracles._unit_group(q)
            orders = [s for _, s in gens]
            for j, row in enumerate(characters_mod(q)):
                for (g, s), a_l in zip(gens, np.unravel_index(j, orders)):
                    assert row[g] == pytest.approx(e(a_l / s), abs=1e-12)


class TestGaussSums:
    def test_principal_is_mobius(self):
        assert gauss_sum(characters_mod(6)[0]) == pytest.approx(mobius(6))
        assert gauss_sum(characters_mod(4)[0]) == pytest.approx(mobius(4))

    def test_principal_is_mobius_up_to_100(self):
        for q in range(1, 101):
            tau = gauss_sum(characters_mod(q)[0])
            assert round(tau.real) == mobius(q)
            assert tau == pytest.approx(mobius(q), abs=1e-9)

    def test_nonprincipal_mod_5_has_modulus_sqrt5(self):
        for row in characters_mod(5)[1:]:
            direct = sum(row[r] * e(r / 5) for r in range(1, 5))
            assert gauss_sum(row) == pytest.approx(direct, abs=1e-12)
            assert abs(gauss_sum(row)) == pytest.approx(math.sqrt(5), abs=1e-9)

    def test_magnitude_bound(self):
        for q in (8, 9, 12, 21, 40):
            for row in characters_mod(q):
                assert abs(gauss_sum(row)) <= math.sqrt(q) + 1e-9


class TestRamanujanSums:
    def test_trivial_modulus(self):
        assert all(ramanujan_sum(1, n) == 1 for n in range(0, 20))

    def test_divisible_case_is_phi(self):
        for q in (1, 2, 6, 12, 30):
            assert ramanujan_sum(q, 7 * q) == euler_phi(q)

    def test_c6_of_3(self):
        direct = e(3 / 6) + e(15 / 6)  # a in {1, 5}
        assert direct.imag == pytest.approx(0, abs=1e-12)
        assert ramanujan_sum(6, 3) == round(direct.real) == -2

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 120), st.integers(0, 240))
    def test_closed_form_equals_direct(self, q, n):
        direct = ramanujan_sum_direct(q, n)
        assert abs(direct.imag) < 1e-6
        assert abs(direct.real - ramanujan_sum(q, n)) < 1e-6

    def test_array_form_equals_scalar(self):
        qs, ns = np.arange(1, 61), np.arange(-130, 131)
        table = ramanujan_sum(qs[:, None], ns[None, :])
        assert table.shape == (60, 261)
        for i, q in enumerate(qs.tolist()):
            for j, n in enumerate(ns.tolist()):
                scalar = ramanujan_sum(q, n)
                assert type(scalar) is int
                qg = q // math.gcd(q, n)
                assert table[i, j] == scalar == mobius(qg) * (euler_phi(q) // euler_phi(qg))

    def test_domain(self):
        with pytest.raises(DomainError):
            ramanujan_sum(0, 5)
        with pytest.raises(DomainError):
            ramanujan_sum(np.array([3, 0]), 5)


class TestExponentialIdentity:
    def test_trivial_modulus(self):
        assert exponential_from_characters(3, 4, 1) == pytest.approx(1.0)

    def test_q5(self):
        assert exponential_from_characters(2, 3, 5) == pytest.approx(e(6 / 5), abs=1e-9)

    def test_q12(self):
        assert exponential_from_characters(5, 7, 12) == pytest.approx(e(35 / 12), abs=1e-9)

    def test_requires_coprimality(self):
        with pytest.raises(DomainError):
            exponential_from_characters(2, 3, 6)

    def test_aggregate_identity(self):
        # sum_chi tau(conj chi) chi(m) = phi(q) e(m/q) for gcd(m, q) = 1
        for q in (5, 9, 16, 30):
            table = characters_mod(q)
            taus = [gauss_sum(np.conj(row)) for row in table]
            for m in range(1, q):
                if math.gcd(m, q) != 1:
                    continue
                total = sum(t * row[m] for t, row in zip(taus, table))
                assert total == pytest.approx(euler_phi(q) * e(m / q), abs=1e-8)


class TestConjugation:
    def test_conj_values(self):
        for q in (7, 16, 15):
            table = characters_mod(q)
            for row in table:
                bar = np.conj(row)
                # the conjugate of a character is exactly one row of the table
                assert sum(np.allclose(bar, other, atol=1e-12) for other in table) == 1
