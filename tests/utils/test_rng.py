"""Tests for deterministic hierarchical RNG derivation."""

import numpy as np
import pytest

from repro.utils.rng import RngFactory, as_generator, derive_seed, spawn_generators


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_distinct_paths_differ(self):
        assert derive_seed(42, "a", 1) != derive_seed(42, "a", 2)
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_distinct_roots_differ(self):
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_path_is_not_concatenation_ambiguous(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_output_is_64_bit(self):
        seed = derive_seed(123, "component")
        assert 0 <= seed < 2**64

    def test_seed_bytes_are_pinned(self):
        # BLAKE2b-64 of "0/device/3": every golden trace hangs off this.
        assert derive_seed(0, "device", 3) == 14262230263797552997

    def test_no_names_is_valid(self):
        assert derive_seed(7) == derive_seed(7)


class TestAsGenerator:
    def test_accepts_int(self):
        gen = as_generator(3)
        assert isinstance(gen, np.random.Generator)

    def test_same_int_same_stream(self):
        assert as_generator(3).random() == as_generator(3).random()

    def test_passes_through_generator(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestRngFactory:
    def test_same_name_same_stream(self):
        factory = RngFactory(9)
        a = factory.generator("noise", 0).random()
        b = factory.generator("noise", 0).random()
        assert a == b

    def test_different_names_different_streams(self):
        factory = RngFactory(9)
        a = factory.generator("noise", 0).random()
        b = factory.generator("noise", 1).random()
        assert a != b

    def test_child_namespacing(self):
        factory = RngFactory(9)
        child = factory.child("device", 3)
        # A child's stream matches deriving the full path from the root.
        direct = RngFactory(factory.seed("device", 3)).generator("x")
        assert child.generator("x").random() == direct.random()

    def test_root_seed_property(self):
        assert RngFactory(17).root_seed == 17

    def test_repr_contains_seed(self):
        assert "17" in repr(RngFactory(17))

    def test_spawn_generators_independent(self):
        gens = spawn_generators(RngFactory(0), "dev", 5)
        values = [g.random() for g in gens]
        assert len(set(values)) == 5

    def test_adding_consumer_does_not_shift_existing_stream(self):
        # Streams are keyed by name: consuming "a" never changes "b".
        factory = RngFactory(4)
        before = factory.generator("b").random()
        factory.generator("a").random()
        after = factory.generator("b").random()
        assert before == after
