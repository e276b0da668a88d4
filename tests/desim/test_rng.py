"""Tests for deterministic named random streams."""

import numpy as np

from repro.desim.rng import RandomStreams, _name_words


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("arrivals").normal(size=5)
        b = RandomStreams(7).stream("arrivals").normal(size=5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(7).stream("arrivals").normal(size=5)
        b = RandomStreams(8).stream("arrivals").normal(size=5)
        assert not np.allclose(a, b)

    def test_different_names_are_independent(self):
        rs = RandomStreams(7)
        a = rs.stream("alpha").normal(size=5)
        b = rs.stream("beta").normal(size=5)
        assert not np.allclose(a, b)

    def test_stream_is_cached(self):
        rs = RandomStreams(7)
        assert rs.stream("x") is rs.stream("x")

    def test_order_independence(self):
        """Requesting streams in a different order must not change them."""
        rs1 = RandomStreams(3)
        rs1.stream("a")  # create 'a' first
        b1 = rs1.stream("b").normal(size=4)

        rs2 = RandomStreams(3)
        b2 = rs2.stream("b").normal(size=4)  # create 'b' first
        assert np.allclose(b1, b2)

    def test_draws_on_one_stream_do_not_affect_another(self):
        rs1 = RandomStreams(3)
        rs1.stream("noisy").normal(size=1000)  # burn entropy on one stream
        a1 = rs1.stream("clean").normal(size=4)

        rs2 = RandomStreams(3)
        a2 = rs2.stream("clean").normal(size=4)
        assert np.allclose(a1, a2)

    def test_names_lists_created_streams(self):
        rs = RandomStreams(1)
        rs.stream("b")
        rs.stream("a")
        assert list(rs.names()) == ["a", "b"]


class TestNameHashing:
    def test_stable_words(self):
        assert _name_words("arrivals") == _name_words("arrivals")

    def test_distinct_names_distinct_words(self):
        assert _name_words("a") != _name_words("b")

    def test_words_are_32bit_nonnegative(self):
        for word in _name_words("some-long-stream-name"):
            assert 0 <= word <= 0xFFFFFFFF
