import numpy as np
import pytest

from rdematel.errors import InvalidArgumentError
from rdematel.network import Edge, InfluenceNetwork, crispify_total, extract_network, threshold
from rdematel.pipeline import RoughMatrix

RNG = np.random.default_rng(99)


def loop_network(tstar, q, criteria):
    """The cell-by-cell form of extract_network, kept as its reference."""
    edges = []
    for i in range(tstar.shape[0]):
        for j in range(tstar.shape[0]):
            if i != j and tstar[i, j] >= q:
                edges.append(Edge(criteria[i], criteria[j], float(tstar[i, j])))
    return InfluenceNetwork(tuple(criteria), tuple(edges), float(q))


def rough(lower, upper):
    return RoughMatrix(np.asarray(lower, float), np.asarray(upper, float))


class TestCrispify:
    def test_midpoint(self):
        t = rough([[0, 0.0870], [0.05, 0]], [[0, 0.30], [0.15, 0]])
        out = crispify_total(t, "midpoint")
        assert out[0, 1] == pytest.approx(0.1935)

    def test_degenerate_agrees_across_modes(self):
        d = RNG.random((4, 4))
        t = rough(d, d)
        assert np.allclose(crispify_total(t, "midpoint"), d)
        assert np.allclose(crispify_total(t, "global-crisp"), d, atol=1e-12)

    def test_global_mode_respects_envelope(self):
        lo = RNG.random((5, 5)) * 0.5
        t = rough(lo, lo + RNG.random((5, 5)) * 0.5)
        out = crispify_total(t, "global-crisp")
        assert out.min() >= t.lower.min() - 1e-12
        assert out.max() <= t.upper.max() + 1e-12

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidArgumentError):
            crispify_total(rough(np.zeros((2, 2)), np.zeros((2, 2))), "mean")


class TestThreshold:
    def test_mean_sigma_hand_example(self):
        # off-diagonal entries {1,2,3,2,1,3}: mean 2, population sigma 0.8165
        q = threshold(np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 2.0], [1.0, 3.0, 0.0]]), value=1.0)
        assert q == pytest.approx(2.0 + 0.816497, abs=1e-5)

    def test_paper_reported_moments(self):
        # with the reported mean and sigma, q = 2.1475 + 0.2566
        mean, sigma, k = 2.1475, 0.2566, 1.0
        assert mean + k * sigma == pytest.approx(2.4041)

    def test_fixed_mode(self):
        assert threshold(np.zeros((3, 3)), mode="fixed", value=0.5) == 0.5

    def test_fixed_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            threshold(np.zeros((3, 3)), mode="fixed", value=-1.0)

    def test_translation_equivariance(self):
        t = RNG.random((5, 5))
        q = threshold(t, value=1.3)
        assert threshold(t + 2.5, value=1.3) == pytest.approx(q + 2.5, abs=1e-12)

    def test_diagonal_excluded_by_default(self):
        t = np.array([[100.0, 1.0], [1.0, 100.0]])
        assert threshold(t, value=0.0) == pytest.approx(1.0)

    def test_needs_two_criteria(self):
        with pytest.raises(InvalidArgumentError):
            threshold(np.array([[1.0]]))

    @pytest.mark.parametrize("mode", ["mean-sigma", "fixed"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, mode, value):
        with pytest.raises(InvalidArgumentError, match="finite"):
            threshold(np.ones((3, 3)), mode, value)

    @pytest.mark.parametrize("k, q", [(1e308, "inf"), (-1e308, "-inf")])
    def test_overflowing_q_rejected(self, k, q):
        # off-diagonal entries {10, 0}: sigma 5, so k * sigma overflows
        with pytest.raises(InvalidArgumentError, match=f"gives q = {q}; q must be a finite number"):
            threshold(np.array([[0.0, 10.0], [0.0, 0.0]]), value=k)


class TestExtractNetwork:
    def test_above_max_gives_isolated_nodes(self):
        t = RNG.random((4, 4))
        net = extract_network(t, t.max() + 1, ["a", "b", "c", "d"])
        assert net.edges == ()
        assert net.nodes == ("a", "b", "c", "d")

    def test_zero_threshold_gives_complete_digraph(self):
        t = RNG.random((4, 4)) + 0.01
        net = extract_network(t, 0.0, list("abcd"))
        assert len(net.edges) == 12  # n(n-1), no self-loops

    def test_monotone_in_threshold(self):
        t = RNG.random((6, 6))
        ids = [f"C{i}" for i in range(6)]
        lo = {(e.source, e.target) for e in extract_network(t, 0.3, ids).edges}
        hi = {(e.source, e.target) for e in extract_network(t, 0.6, ids).edges}
        assert hi <= lo

    def test_node_count_independent_of_threshold(self):
        t = RNG.random((5, 5))
        ids = [f"C{i}" for i in range(5)]
        for q in (0.0, 0.5, 2.0):
            assert len(extract_network(t, q, ids).nodes) == 5

    def test_self_loop_flag(self):
        t = np.array([[5.0, 0.0], [0.0, 5.0]])
        assert extract_network(t, 1.0, ["a", "b"]).edges == ()

    def test_matches_loop_form(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 8, 40):
            t = rng.random((n, n))
            t[rng.random((n, n)) < 0.2] = 0.5  # cells exactly at a threshold
            ids = [f"C{i}" for i in range(n)]
            for q in (0.0, 0.5, float(np.median(t)), 2.0):
                assert extract_network(t, q, ids) == loop_network(t, q, ids)
