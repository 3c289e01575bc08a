"""Tests for wreath product arithmetic, Cayley graphs, and embeddings."""

import itertools
import random
from functools import lru_cache

import pytest

from coarselab.errors import CapExceededError, InvalidInputError
from coarselab.expander_zoo import FiniteGroupTable
from coarselab.wreath import (
    DELTA_LABEL,
    RelativeSubset,
    WreathElement,
    WreathGroup,
    wreath_cayley,
    x_subset,
)
from groups import cyclic_group, symmetric_group, wreath_mul
from oracles import degrees, edge_list, naive_wreath_cayley, wreath_inv
from paper_checks import subwreath_embed, verify_subgraph_embedding


def w22():
    """Z/2 lamps over Q = Z/2 acted on by B = Z/2 through the identity."""
    z2 = cyclic_group(2)
    return WreathGroup(Q=z2, B=cyclic_group(2), proj=(0, 1))


def w33():
    z3 = cyclic_group(3)
    return WreathGroup(Q=z3, B=cyclic_group(3), proj=(0, 1, 2))


def random_element(W, rng):
    config = frozenset(q for q in range(W.Q.order) if rng.random() < 0.5)
    return WreathElement(config, rng.randrange(W.B.order))


# -- construction -----------------------------------------------------------


def test_group_orders():
    assert w22().order == 8
    assert w33().order == 24


def test_generators_symmetric():
    W = w33()
    gens = W.generators
    assert gens[0] == W.delta()
    assert len(gens) == 3
    for g in gens:
        assert wreath_inv(W, g) in gens


def test_proj_must_be_homomorphism():
    with pytest.raises(InvalidInputError, match=r"proj is not a homomorphism at \(1, 2\)"):
        WreathGroup(Q=cyclic_group(2), B=cyclic_group(4), proj=(0, 1, 0, 0))


def test_proj_must_be_surjective():
    with pytest.raises(InvalidInputError, match="surjective"):
        WreathGroup(Q=cyclic_group(2), B=cyclic_group(4), proj=(0, 0, 0, 0))


def test_proj_wrong_length():
    with pytest.raises(InvalidInputError, match="every element"):
        WreathGroup(Q=cyclic_group(2), B=cyclic_group(2), proj=(0,))


def test_proj_value_out_of_range():
    with pytest.raises(InvalidInputError, match="outside Q"):
        WreathGroup(Q=cyclic_group(2), B=cyclic_group(2), proj=(0, 7))


def test_quotient_map_accepted():
    # Z/10 ->> Z/5 by reduction mod 5
    W = WreathGroup(
        Q=cyclic_group(5), B=cyclic_group(10), proj=tuple(i % 5 for i in range(10))
    )
    assert W.order == (1 << 5) * 10


# -- multiplication and inversion -------------------------------------------


def test_mul_example():
    W = w22()
    x = WreathElement(frozenset({0}), 1)
    y = WreathElement(frozenset({0}), 0)
    # the lamp of y is shifted to 1 by proj(1) before the xor
    assert wreath_mul(W, x, y) == WreathElement(frozenset({0, 1}), 1)


def test_identity_law_random():
    W = w33()
    rng = random.Random(7)
    e = W.identity()
    for _ in range(100):
        x = random_element(W, rng)
        assert wreath_mul(W, x, e) == x
        assert wreath_mul(W, e, x) == x


def test_delta_is_involution():
    for W in (w22(), w33()):
        d = W.delta()
        assert wreath_mul(W, d, d) == W.identity()


def test_inverse_of_pure_group_part():
    W = w33()
    for b in range(3):
        x = WreathElement(frozenset(), b)
        assert wreath_inv(W, x) == WreathElement(frozenset(), W.B.inverse(b))


def test_inverse_of_single_lamp():
    W = w33()
    for q in range(3):
        x = W.delta(q)
        assert wreath_inv(W, x) == x


def test_inverse_random():
    W = WreathGroup(
        Q=cyclic_group(5), B=cyclic_group(10), proj=tuple(i % 5 for i in range(10))
    )
    rng = random.Random(19)
    for _ in range(100):
        x = random_element(W, rng)
        assert wreath_mul(W, x, wreath_inv(W, x)) == W.identity()
        assert wreath_mul(W, wreath_inv(W, x), x) == W.identity()


def test_associativity_exhaustive_small():
    W = w22()
    elems = [
        WreathElement(frozenset(q for q in range(2) if mask >> q & 1), b)
        for mask in range(4)
        for b in range(2)
    ]
    assert len(elems) == 8
    for x in elems:
        for y in elems:
            for z in elems:
                assert wreath_mul(W, wreath_mul(W, x, y), z) == wreath_mul(
                    W, x, wreath_mul(W, y, z)
                )


def test_associativity_random_triples():
    W = WreathGroup(
        Q=cyclic_group(5), B=cyclic_group(10), proj=tuple(i % 5 for i in range(10))
    )
    rng = random.Random(23)
    for _ in range(1000):
        x, y, z = (random_element(W, rng) for _ in range(3))
        assert wreath_mul(W, wreath_mul(W, x, y), z) == wreath_mul(
            W, x, wreath_mul(W, y, z)
        )


def test_wrong_group_element_rejected():
    W = w22()
    with pytest.raises(InvalidInputError, match="wrong group"):
        wreath_mul(W, WreathElement(frozenset({5}), 0), W.identity())
    with pytest.raises(InvalidInputError, match="wrong group"):
        wreath_mul(W, W.identity(), WreathElement(frozenset(), 9))


def test_delta_point_out_of_range():
    with pytest.raises(InvalidInputError, match="no point"):
        w22().delta(4)


# -- Cayley graphs ----------------------------------------------------------


def test_cayley_z2_is_an_eight_cycle():
    ball = wreath_cayley(w22())
    g = ball.graph
    assert ball.complete
    assert g.vertex_count == 8
    assert len(ball.elements) == 8
    assert g.is_connected
    # two involutive generators: every vertex has degree 2, so a cycle
    assert degrees(g) == [2] * 8
    assert g.edge_count == 8


def test_cayley_z3_shape():
    ball = wreath_cayley(w33())
    g = ball.graph
    assert g.vertex_count == 24
    assert g.is_connected
    assert degrees(g) == [3] * 24


def test_cayley_order_matches_bfs():
    for W in (w22(), w33()):
        ball = wreath_cayley(W)
        assert ball.complete
        assert len(ball.elements) == W.order
        assert len(set(ball.elements)) == W.order


def test_radius_one_ball():
    ball = wreath_cayley(w33(), radius=1)
    assert not ball.complete
    assert ball.radius == 1
    assert ball.graph.vertex_count == 4
    assert ball.elements[0] == w33().identity()


def test_radius_zero_ball():
    ball = wreath_cayley(w33(), radius=0)
    assert ball.graph.vertex_count == 1
    assert ball.graph.edge_count == 0


def test_ball_is_induced_subgraph_prefix():
    # vertices of the radius-1 ball are the first 4 of the full BFS order
    W = w33()
    full = wreath_cayley(W)
    ball = wreath_cayley(W, radius=1)
    assert ball.elements == full.elements[:4]


def test_cayley_deterministic():
    a = wreath_cayley(w33())
    b = wreath_cayley(w33())
    assert a.elements == b.elements
    assert list(edge_list(a.graph)) == list(edge_list(b.graph))


def test_cayley_cap():
    with pytest.raises(CapExceededError, match="cap"):
        wreath_cayley(w33(), cap=10)


def test_cayley_vertex_annotations():
    ball = wreath_cayley(w33())
    ann = ball.graph.annotations
    assert len(ann["vertex_supports"]) == 24
    assert len(ann["vertex_b_names"]) == 24
    assert ann["vertex_supports"][0] == ()
    assert ann["vertex_b_names"][0] == "0"
    i = ball.elements.index(WreathElement(frozenset({0, 2}), 1))
    assert ann["vertex_supports"][i] == (0, 2)
    assert ann["vertex_b_names"][i] == "1"


def test_index_of_missing_element():
    ball = wreath_cayley(w33(), radius=1)
    assert WreathElement(frozenset({0, 1, 2}), 2) not in ball.elements


def test_generator_label_collision_rejected():
    table = [[0, 1], [1, 0]]
    B = FiniteGroupTable(table, generators=(1,), element_names=("e", "delta"))
    W = WreathGroup(Q=cyclic_group(2), B=B, proj=(0, 1))
    with pytest.raises(InvalidInputError, match="collides"):
        wreath_cayley(W)


def test_vertex_transitive_by_left_translation():
    W = w33()
    ball = wreath_cayley(W)
    g = ball.graph
    index = {x: i for i, x in enumerate(ball.elements)}
    for a in ball.elements:
        gm = {
            i: index[wreath_mul(W, a, x)] for i, x in enumerate(ball.elements)
        }
        assert verify_subgraph_embedding(gm, g, g)


def test_edge_labels_encode_generators():
    W = w33()
    ball = wreath_cayley(W)
    index = {x: i for i, x in enumerate(ball.elements)}
    t = WreathElement(frozenset(), 1)
    for u, v, lab in edge_list(ball.graph):
        x, y = ball.elements[u], ball.elements[v]
        if lab == DELTA_LABEL:
            assert wreath_mul(W, x, W.delta()) == y
        else:
            assert lab == "1"
            assert index[wreath_mul(W, x, t)] == v


@lru_cache(maxsize=None)
def cyclic(n, gens):
    return cyclic_group(n, generators=gens)


@lru_cache(maxsize=None)
def symmetric(n, gens):
    return symmetric_group(n, generators=gens)


def units(n):
    return [u for u in range(1, n) if all(u * k % n for k in range(1, n))]


def random_cyclic_gens(rng, n):
    """A generating set of Z/n: a unit, sometimes with one more element."""
    gens = [rng.choice(units(n))]
    if n > 2 and rng.random() < 0.4:
        gens.append(rng.randrange(1, n))
    return tuple(gens)


def random_symmetric_gens(rng, n):
    """Adjacent transpositions, or an n-cycle with one transposition."""
    if rng.random() < 0.5:
        return None
    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    return (cycle, swap)


def sign_of(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2


def random_wreath_group(rng, full):
    """A random Z/2 wr_Q B, small enough to enumerate when ``full``.

    The kinds: B = Q cyclic through a unit automorphism, the quotient
    Z/2k -> Z/k, S_n through a conjugation, and S_n -> Z/2 by sign.
    Balls take cyclic Q of order up to 90, so lamp masks outgrow int64.
    """
    kind = rng.choice(["cyclic", "quotient", "symmetric", "sign"])
    if kind == "cyclic":
        k = rng.randrange(2, 7) if full else rng.randrange(2, 91)
        unit = rng.choice(units(k))
        return WreathGroup(
            Q=cyclic(k, (1,)), B=cyclic(k, random_cyclic_gens(rng, k)),
            proj=tuple(b * unit % k for b in range(k)),
        )
    if kind == "quotient":
        k = rng.randrange(1, 6) if full else rng.randrange(2, 46)
        return WreathGroup(
            Q=cyclic(k, (1,)), B=cyclic(2 * k, random_cyclic_gens(rng, 2 * k)),
            proj=tuple(b % k for b in range(2 * k)),
        )
    n = 3 if full or rng.random() < 0.5 else 4
    B = symmetric(n, random_symmetric_gens(rng, n))
    perms = sorted(itertools.permutations(range(n)))
    if kind == "sign":
        return WreathGroup(Q=cyclic(2, (1,)), B=B, proj=tuple(sign_of(p) for p in perms))
    index = {p: i for i, p in enumerate(perms)}
    g = rng.choice(perms)
    g_inv = tuple(g.index(i) for i in range(n))
    conj = [index[tuple(g[p[g_inv[i]]] for i in range(n))] for p in perms]
    return WreathGroup(Q=symmetric(n, None), B=B, proj=tuple(conj))


def test_cayley_equals_the_group_law_walk():
    """The generator-step walk on lamp codes matches the frozenset walk
    that takes every product by the group law: same elements in the same
    order, same edge triples, same annotations."""
    rng = random.Random(2019)
    wide_masks = 0
    for trial in range(240):
        full = trial % 3 == 0
        W = random_wreath_group(rng, full)
        radius = None if full else rng.randrange(0, 6)
        fast, slow = wreath_cayley(W, radius=radius), naive_wreath_cayley(W, radius=radius)
        assert fast.elements == slow.elements
        assert list(edge_list(fast.graph)) == list(edge_list(slow.graph))
        assert fast.graph.annotations == slow.graph.annotations
        assert (fast.radius, fast.complete) == (slow.radius, slow.complete)
        wide_masks += W.Q.order >= 64
    assert wide_masks >= 5


# -- the subset X -----------------------------------------------------------


def test_x_subset_sizes():
    assert len(x_subset(w22())) == 2
    assert len(x_subset(w33())) == 3


def test_x_subset_involutions_and_injective():
    W = w33()
    X = x_subset(W)
    assert isinstance(X, RelativeSubset)
    assert len(set(X.elements)) == 3
    for d in X.elements:
        assert d != W.identity()
        assert wreath_mul(W, d, d) == W.identity()


def test_right_multiplication_flips_one_lamp():
    # x.(delta_g, 1) flips exactly the lamp at proj(b).g, exhaustively
    W = w33()
    ball = wreath_cayley(W)
    for x in ball.elements:
        for g, d in enumerate(x_subset(W).elements):
            y = wreath_mul(W, x, d)
            assert y.b == x.b
            flipped = y.config ^ x.config
            assert flipped == frozenset({int(W.Q.mul_table[W.proj[x.b], g])})


# -- subwreath embedding ----------------------------------------------------


def z6_big():
    """Lamps over Z/6 with B = Z/6 generated by {1, 5, 3}, proj = id."""
    K = cyclic_group(6, generators=(1, 3, 5))
    return WreathGroup(Q=cyclic_group(6), B=K, proj=tuple(range(6)))


def test_identity_inclusion_embeds_identically():
    W = w33()
    ident = {i: i for i in range(3)}
    mapping = subwreath_embed(W, W, vertex_inclusion=ident, quotient_bijection=ident)
    assert len(mapping) == 24
    for x, y in mapping.items():
        assert x == y


def test_subwreath_z2_into_z6():
    small = w22()
    big = z6_big()
    mapping = subwreath_embed(
        small, big, vertex_inclusion={0: 0, 1: 3}, quotient_bijection={0: 0, 3: 1}
    )
    assert len(mapping) == 8
    assert mapping[small.identity()] == big.identity()
    assert mapping[small.delta()] == big.delta()
    assert mapping[WreathElement(frozenset({1}), 1)] == WreathElement(
        frozenset({3}), 3
    )

    g_small = wreath_cayley(small).graph
    big_ball = wreath_cayley(big)
    index = {x: i for i, x in enumerate(big_ball.elements)}
    gm = {
        i: index[mapping[x]] for i, x in enumerate(wreath_cayley(small).elements)
    }
    assert verify_subgraph_embedding(gm, g_small, big_ball.graph)


def test_subwreath_rejects_non_subgraph_inclusion():
    # 0 and 2 are not adjacent in the 4-cycle Cay(Z/4, {1, 3})
    small = w22()
    big = WreathGroup(Q=cyclic_group(4), B=cyclic_group(4), proj=tuple(range(4)))
    with pytest.raises(InvalidInputError, match="not a subgraph"):
        subwreath_embed(
            small, big, vertex_inclusion={0: 0, 1: 2}, quotient_bijection={0: 0, 2: 1}
        )


def test_subwreath_rejects_non_homomorphic_inclusion():
    small = w22()
    big = z6_big()
    with pytest.raises(InvalidInputError, match="homomorphism"):
        subwreath_embed(
            small, big, vertex_inclusion={0: 0, 1: 1}, quotient_bijection={0: 0, 1: 1}
        )


def test_subwreath_rejects_wrong_bijection_domain():
    small = w22()
    big = z6_big()
    with pytest.raises(InvalidInputError, match="exactly on the projection"):
        subwreath_embed(
            small, big, vertex_inclusion={0: 0, 1: 3}, quotient_bijection={0: 0, 1: 1}
        )


def test_subwreath_rejects_non_intertwining_bijection():
    small = w22()
    big = z6_big()
    with pytest.raises(InvalidInputError, match="intertwine"):
        subwreath_embed(
            small, big, vertex_inclusion={0: 0, 1: 3}, quotient_bijection={0: 1, 3: 0}
        )


def test_subwreath_rejects_partial_inclusion():
    small = w22()
    big = z6_big()
    with pytest.raises(InvalidInputError, match="all of L"):
        subwreath_embed(
            small, big, vertex_inclusion={0: 0}, quotient_bijection={0: 0}
        )


# -- subgraph verification --------------------------------------------------


def test_verify_identity_map():
    g = wreath_cayley(w22()).graph
    gm = {i: i for i in range(8)}
    assert verify_subgraph_embedding(gm, g, g)


def test_verify_constant_map_fails():
    g = wreath_cayley(w22()).graph
    gm = {i: 0 for i in range(8)}
    assert not verify_subgraph_embedding(gm, g, g)


def test_verify_missing_vertex_raises():
    g = wreath_cayley(w22()).graph
    with pytest.raises(InvalidInputError, match="no image"):
        verify_subgraph_embedding({0: 0}, g, g)


def test_verify_non_edge_fails():
    # map the 8-cycle to itself with two vertices swapped: breaks edges
    g = wreath_cayley(w22()).graph
    u, v, _ = next(iter(edge_list(g)))
    gm = {i: i for i in range(8)}
    far = [w for w in range(8) if w not in (u, v)]
    gm[u], gm[far[0]] = far[0], gm[u]
    assert not verify_subgraph_embedding(gm, g, g)
