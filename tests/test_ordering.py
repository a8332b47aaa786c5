import itertools
import re

import numpy as np
import pytest

from noisecycle import (RecycleGraph, RecyclingPlan, brute_force_plan,
                        build_gm_model, build_recycle_graph, capacity,
                        constrain_root_child, max_arborescence, plan_for)
from noisecycle.channel import ChannelModel

from conftest import fig2_model


def random_graph(rng, m, low=0.05, high=20.0):
    w = np.full((m + 1, m + 1), np.nan)
    for i in range(m + 1):
        for j in range(1, m + 1):
            if i != j:
                w[i, j] = rng.uniform(low, high)
    return RecycleGraph(w)


def all_arborescences(m):
    """Independent enumeration of valid parent vectors (test-local oracle)."""
    found = []
    for parent in itertools.product(*[[p for p in range(m + 1) if p != j]
                                      for j in range(1, m + 1)]):
        ok = True
        for ch in range(1, m + 1):
            node, hops = ch, 0
            while node != 0 and ok:
                node = parent[node - 1]
                hops += 1
                if hops > m:
                    ok = False
        if ok:
            found.append(parent)
    return found


class TestBuildGraph:
    def test_edges_listed_row_by_row(self, rng):
        # the solver's tie-breaking reads edges in this order
        graph = random_graph(rng, 4)
        graph.weights[2, 3] = graph.weights[4, 1] = np.nan
        by_loop = [(i, j, float(graph.weights[i, j])) for i in range(5) for j in range(1, 5)
                   if i != j and not np.isnan(graph.weights[i, j])]
        assert graph.edges() == by_loop and len(by_loop) == 14

    def test_zero_rho_cross_edges_equal_root_edges(self):
        graph = build_recycle_graph(build_gm_model(3, 0.0, 0.5, 2.0))
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert graph.weights[i, j] == graph.weights[0, j]

    def test_pairwise_effective_snrs(self):
        corr = np.array([[1.0, 0.6, 0.8], [0.6, 1.0, 0.4], [0.8, 0.4, 1.0]])
        model = ChannelModel(m=3, sigma2=np.ones(3), power=np.ones(3), corr=corr)
        graph = build_recycle_graph(model)
        assert graph.weights[1, 2] == pytest.approx(1.5625)
        assert graph.weights[1, 3] == pytest.approx(2.7778, abs=1e-4)
        assert graph.weights[2, 3] == pytest.approx(1.1905, abs=1e-4)

    def test_unit_correlation_rejected(self):
        model = ChannelModel(m=2, sigma2=np.ones(2), power=np.ones(2),
                             corr=np.ones((2, 2)))
        with pytest.raises(ValueError):
            build_recycle_graph(model)

    def test_zero_node_has_no_incoming(self):
        graph = build_recycle_graph(build_gm_model(2, 0.5, 1.0))
        assert np.isnan(graph.weights[:, 0]).all()


class TestMaxArborescence:
    def test_single_channel(self):
        graph = build_recycle_graph(build_gm_model(1, 0.0, 0.5, 2.0))
        plan = max_arborescence(graph)
        assert plan.parent == (0,)
        assert plan.total_snr == pytest.approx(4.0)

    def test_zero_rho_prefers_root_edges(self):
        plan = max_arborescence(build_recycle_graph(build_gm_model(4, 0.0, 1.0)))
        assert plan.parent == (0, 0, 0, 0)
        assert plan.total_snr == pytest.approx(4.0)

    def test_asymmetric_instance_total(self):
        corr = np.array([[1.0, 0.6, 0.8], [0.6, 1.0, 0.4], [0.8, 0.4, 1.0]])
        model = ChannelModel(m=3, sigma2=np.ones(3), power=np.ones(3), corr=corr)
        plan = max_arborescence(build_recycle_graph(model))
        bf = brute_force_plan(build_recycle_graph(model))
        assert plan.total_snr == bf.total_snr
        assert plan.total_snr == pytest.approx(1 + 2.7778 + 1.5625, abs=1e-4)

    def test_matches_brute_force_on_random_graphs(self, rng):
        for _ in range(150):
            m = int(rng.integers(2, 6))
            graph = random_graph(rng, m)
            a = max_arborescence(graph)
            b = brute_force_plan(graph)
            assert a.total_snr == b.total_snr
            assert a.parent == b.parent

    def test_total_matches_brute_force_under_ties(self, rng):
        for _ in range(150):
            m = int(rng.integers(2, 6))
            w = np.full((m + 1, m + 1), np.nan)
            for i in range(m + 1):
                for j in range(1, m + 1):
                    if i != j:
                        w[i, j] = float(rng.integers(1, 4))
            graph = RecycleGraph(w)
            assert max_arborescence(graph).total_snr == \
                brute_force_plan(graph).total_snr

    def test_total_at_least_independent_sum(self, rng):
        for _ in range(30):
            m = int(rng.integers(2, 6))
            model = build_gm_model(m, float(rng.uniform(-0.9, 0.9)), 1.0)
            graph = build_recycle_graph(model)
            plan = max_arborescence(graph)
            assert plan.total_snr >= np.nansum(graph.weights[0]) - 1e-12

    def test_plan_invariant_under_weight_scaling(self, rng):
        graph = random_graph(rng, 4)
        scaled = RecycleGraph(graph.weights * 7.25)
        assert max_arborescence(graph).parent == max_arborescence(scaled).parent


class TestStaticPlanPin:
    """The solver's tie rule fixes the plan of every static workload, and
    through it their CSV bytes.  On symmetric Gauss-Markov models every
    chain-shaped plan ties in exact arithmetic; the rule picks the chain
    from channel 1, whose total is s (1 + (m - 1) / (1 - rho^2))."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 16, 40])
    @pytest.mark.parametrize("rho", [0.3, -0.3, 0.6, -0.8, 0.9])
    def test_symmetric_gauss_markov_takes_the_chain(self, m, rho):
        for sigma2 in (1.0, 10 ** -0.5, 0.2, 3.0):
            plan = max_arborescence(build_recycle_graph(build_gm_model(m, rho, sigma2)))
            assert plan.parent == tuple(range(m))
            assert plan.order == tuple(range(1, m + 1))
            want = (1 / sigma2) * (1 + (m - 1) / (1 - rho ** 2))
            assert plan.total_snr == pytest.approx(want, rel=1e-12, abs=0)


class TestUnreachableChannels:
    def test_rejected_when_the_graph_is_built(self):
        w = np.full((4, 4), np.nan)
        w[0, 1] = 1.0
        w[2, 3] = w[3, 2] = 2.0
        with pytest.raises(ValueError,
                           match=r"channels \[2, 3\] cannot be reached from the zero node"):
            RecycleGraph(w)

    def test_forced_lead_that_cannot_reach_every_channel(self):
        w = np.full((4, 4), np.nan)
        w[0, 1:] = 1.0
        w[1, 2] = w[2, 1] = 2.0  # channel 3 hangs off the zero node alone
        graph = RecycleGraph(w)
        assert max_arborescence(graph).parent == (0, 1, 0)
        with pytest.raises(ValueError,
                           match=r"channels \[3\] cannot be reached from the zero node"):
            constrain_root_child(graph, 1)


class TestNoChannels:
    @pytest.mark.parametrize("node_count", [0, 1])
    def test_rejected_when_the_graph_is_built(self, node_count):
        with pytest.raises(ValueError,
                           match=rf"at least 2 x 2.*got shape \({node_count}, {node_count}\)"):
            RecycleGraph(np.full((node_count,) * 2, np.nan))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 3, 3)])
    def test_weights_that_are_not_a_square_matrix(self, shape):
        with pytest.raises(ValueError, match=rf"square.*got shape {re.escape(str(shape))}"):
            RecycleGraph(np.full(shape, np.nan))

    def test_node_count_read_from_the_shape(self):
        w = np.full((4, 4), np.nan)
        w[0, 1:] = 1.0
        graph = RecycleGraph(w)
        assert (graph.node_count, graph.m) == (4, 3)


class TestBruteForce:
    def test_m2_has_exactly_three_arborescences(self):
        assert sorted(all_arborescences(2)) == [(0, 0), (0, 1), (2, 0)]

    def test_enumeration_count_matches_oracle(self, rng):
        # brute force optimum must be achieved within the oracle's candidate set
        graph = random_graph(rng, 3)
        plan = brute_force_plan(graph)
        assert plan.parent in all_arborescences(3)

    def test_size_limit(self, rng):
        with pytest.raises(ValueError):
            brute_force_plan(random_graph(rng, 7))


class TestFig2Instance:
    def test_unique_plan_and_total(self):
        graph = build_recycle_graph(fig2_model())
        plan = max_arborescence(graph)
        assert plan.parent == (2, 0, 2)
        assert plan.order == (2, 1, 3)
        assert plan.total_snr == pytest.approx(10.0, abs=1e-9)
        assert brute_force_plan(graph).parent == plan.parent

    def test_channel_two_is_only_root_child(self):
        plan = max_arborescence(build_recycle_graph(fig2_model()))
        assert plan.children_of(0) == [2]

    def test_achievable_capacities(self):
        from noisecycle import achievable_rates
        model = fig2_model()
        plan = max_arborescence(build_recycle_graph(model))
        rates = achievable_rates(model, plan).per_channel_rates
        assert rates[1] == pytest.approx(capacity(1.0), abs=1e-9)
        assert rates[0] == pytest.approx(capacity(4.0), abs=1e-9)
        assert rates[2] == pytest.approx(capacity(5.0), abs=1e-9)


class TestBfsOrder:
    def test_fig2_order(self):
        plan = max_arborescence(build_recycle_graph(fig2_model()))
        assert plan.order == (2, 1, 3)

    def test_chain_order(self):
        plan = RecyclingPlan(parent=(0, 1, 2), total_snr=3.0)
        assert plan.order == (1, 2, 3)

    def test_star_rooted_at_three(self):
        plan = RecyclingPlan(parent=(3, 3, 0), total_snr=3.0)
        assert plan.order == (3, 1, 2)

    def test_level_by_level(self):
        # zero-node children ascending, then each level in parent order
        plan = RecyclingPlan(parent=(4, 0, 2, 0, 1), total_snr=0.0)
        assert plan.order == (2, 4, 3, 1, 5)

    def test_every_channel_after_its_parent(self, rng):
        for _ in range(50):
            graph = random_graph(rng, 5)
            plan = max_arborescence(graph)
            order = plan.order
            assert sorted(order) == [1, 2, 3, 4, 5]
            pos = {ch: i for i, ch in enumerate(order)}
            for ch in order:
                parent = plan.parent_of(ch)
                if parent != 0:
                    assert pos[parent] < pos[ch]


class TestConstrainedRoot:
    def test_forced_lead_is_only_root_child(self, rng):
        graph = random_graph(rng, 4)
        for lead in (1, 2, 3, 4):
            plan = max_arborescence(constrain_root_child(graph, lead))
            assert plan.children_of(0) == [lead]

    def test_constrained_total_never_exceeds_free_total(self, rng):
        graph = random_graph(rng, 4)
        free = max_arborescence(graph).total_snr
        for lead in (1, 2, 3, 4):
            assert max_arborescence(constrain_root_child(graph, lead)).total_snr \
                <= free + 1e-12


class TestPlanValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            RecyclingPlan(parent=(2, 1, 0), total_snr=1.0)

    def test_out_of_range_parent_rejected(self):
        for parent in ((0, 3), (0, -1), (2, 2)):
            with pytest.raises(ValueError):
                RecyclingPlan(parent=parent, total_snr=1.0)

    def test_order_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            RecyclingPlan(parent=(0, 1), order=(1, 2), total_snr=1.0)


class TestPlanFor:
    def test_default_is_max_arborescence(self):
        model = fig2_model()
        assert plan_for(model) == max_arborescence(build_recycle_graph(model))

    def test_forced_lead(self):
        model = fig2_model()
        want = max_arborescence(constrain_root_child(build_recycle_graph(model), 3))
        got = plan_for(model, forced_lead=3)
        assert got == want
        assert got.children_of(0) == [3]

    def test_pinned_parents_scored_on_the_graph(self):
        model = fig2_model()
        w = build_recycle_graph(model).weights
        plan = plan_for(model, parents=(3, 3, 0))
        assert plan.parent == (3, 3, 0)
        assert plan.order == (3, 1, 2)
        assert plan.total_snr == float(w[3, 1] + w[3, 2] + w[0, 3])

    def test_forced_lead_with_pinned_parents_rejected(self):
        # pinned parents fix the lead themselves, so a forced_lead beside
        # them would be read by nothing (or contradict them)
        with pytest.raises(ValueError, match="forced_lead and parents cannot both be given"):
            plan_for(fig2_model(), forced_lead=1, parents=(0, 0, 0))

    def test_pinned_parents_length_checked(self):
        with pytest.raises(ValueError):
            plan_for(fig2_model(), parents=(0, 1))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_gauss_markov_forced_lead_plans_are_outward_chains(self, m):
        # where correlation decays with index distance, the tree a dynamic
        # lead's block follows recycles each channel's inward neighbour
        rng = np.random.default_rng(m)
        for rho in (0.2, 0.6, 0.9):
            gm = build_gm_model(m, rho, 1.0)
            unequal = ChannelModel(m=m, sigma2=10 ** rng.uniform(-0.3, 0.3, m),
                                   power=np.ones(m), corr=gm.corr)
            for model in (gm, unequal):
                for lead in range(1, m + 1):
                    chain = tuple(0 if j == lead else j - 1 if j > lead else j + 1
                                  for j in range(1, m + 1))
                    assert plan_for(model, forced_lead=lead).parent == chain, (rho, lead)
