import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab.arith import euler_phi, mobius
from cmlab.characters import (
    DirichletCharacter,
    characters_mod,
    exponential_from_characters,
    gauss_sum,
    principal_character,
    ramanujan_sum,
    ramanujan_sum_direct,
)
from cmlab.errors import CapacityError, DomainError


def e(x):
    return np.exp(2j * np.pi * x)


class TestConstruction:
    def test_trivial_modulus(self):
        chars = characters_mod(1)
        assert len(chars) == 1
        chi = chars[0]
        assert chi.principal
        for n in range(-3, 10):
            assert chi(n) == 1

    def test_mod_4(self):
        chars = characters_mod(4)
        assert len(chars) == 2
        nonprincipal = [c for c in chars if not c.principal]
        assert len(nonprincipal) == 1
        assert nonprincipal[0](3) == pytest.approx(-1)

    def test_mod_5_is_c4_table(self):
        # (Z/5)* is cyclic of order 4 with generator 2: rows must be the C4 table
        chars = characters_mod(5)
        assert len(chars) == 4
        rows = sorted(tuple(np.round(c(2**k), 9) for k in range(4)) for c in chars)
        i = 1j
        expected = sorted(
            tuple(np.round(w**k, 9) for k in range(4)) for w in (1, i, -1, -i)
        )
        assert rows == expected

    def test_count_and_single_principal(self):
        for q in (2, 3, 6, 8, 12, 16, 24, 30, 45, 64):
            chars = characters_mod(q)
            assert len(chars) == euler_phi(q)
            assert sum(c.principal for c in chars) == 1

    def test_complete_multiplicativity(self, rng):
        for q in (7, 12, 16, 45):
            for chi in characters_mod(q):
                for _ in range(20):
                    m, n = rng.integers(0, 4 * q, size=2)
                    assert chi(m * n) == pytest.approx(chi(m) * chi(n), abs=1e-10)

    def test_vanishing_iff_not_coprime(self):
        for q in (6, 9, 20):
            for chi in characters_mod(q):
                for n in range(q):
                    if math.gcd(n, q) > 1:
                        assert chi(n) == 0
                    else:
                        assert abs(chi(n)) == pytest.approx(1.0)

    def test_orthogonality_sample(self):
        for q in (3, 8, 15, 36, 50):
            chars = characters_mod(q)
            phi = euler_phi(q)
            table = np.array([c.values for c in chars])
            gram = table @ np.conj(table.T)
            assert np.allclose(gram, phi * np.eye(phi), atol=1e-8)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            characters_mod(10**5 + 1)

    def test_enumeration_is_reproducible(self):
        a = [c.label for c in characters_mod(36)]
        b = [c.label for c in characters_mod(36)]
        assert a == b == sorted(a)


class TestGaussSums:
    def test_principal_is_mobius(self):
        assert gauss_sum(principal_character(6)) == pytest.approx(mobius(6))
        assert gauss_sum(principal_character(4)) == pytest.approx(mobius(4))

    def test_principal_is_mobius_up_to_100(self):
        for q in range(1, 101):
            tau = gauss_sum(principal_character(q))
            assert round(tau.real) == mobius(q)
            assert tau == pytest.approx(mobius(q), abs=1e-9)

    def test_nonprincipal_mod_5_has_modulus_sqrt5(self):
        for chi in characters_mod(5):
            if not chi.principal:
                direct = sum(chi(r) * e(r / 5) for r in range(1, 5))
                assert gauss_sum(chi) == pytest.approx(direct, abs=1e-12)
                assert abs(gauss_sum(chi)) == pytest.approx(math.sqrt(5), abs=1e-9)

    def test_magnitude_bound(self):
        for q in (8, 9, 12, 21, 40):
            for chi in characters_mod(q):
                assert abs(gauss_sum(chi)) <= math.sqrt(q) + 1e-9


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
            chars = characters_mod(q)
            taus = [gauss_sum(c.conj()) for c in chars]
            for m in range(1, q):
                if math.gcd(m, q) != 1:
                    continue
                total = sum(t * c(m) for t, c in zip(taus, chars))
                assert total == pytest.approx(euler_phi(q) * e(m / q), abs=1e-8)


class TestConjugation:
    def test_conj_values(self):
        for q in (7, 16, 15):
            chars = characters_mod(q)
            by_label = {chi.label: chi for chi in chars}
            for chi in chars:
                bar = chi.conj()
                for n in range(q):
                    assert bar(n) == pytest.approx(np.conj(chi(n)), abs=1e-12)
                assert bar.principal == chi.principal
                # the label is that of the enumerated conjugate character
                assert np.allclose(by_label[bar.label].values, bar.values, atol=1e-12)
