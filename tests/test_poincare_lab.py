"""Tests for the relative Poincare forms, kernels, and spectral gap."""

import itertools
import math
import random

import numpy as np
import pytest

from coarselab.errors import (
    CapExceededError,
    DisconnectedGraphError,
    InvalidInputError,
)
from coarselab.expander_zoo import FiniteGroupTable, cayley_graph, lps_graph
from coarselab.graph_core import build_graph
from coarselab.poincare_lab import (
    POINCARE_BLOCK_CAP,
    POINCARE_ORDER_CAP,
    GroupFunction,
    KernelFunction,
    cnd_from_function,
    is_cnd,
    relative_form_lhs,
    relative_form_rhs,
    relative_poincare_constant,
    resolve_group,
    subset_indices,
    verify_relative_inequality,
    wreath_indexed_group,
)
from coarselab.wreath import WreathGroup, x_subset

from groups import cyclic_group, symmetric_group, wreath_mul
from oracles import (
    dense_form_matrix,
    dense_laplacian_lambda2,
    dense_poincare_constant,
    naive_poincare_constant,
    naive_wreath_table,
    right_orbit,
)
from paper_checks import is_positive_definite, schoenberg_bound, schoenberg_transform

# frozen outputs of naive_poincare_constant (sampling + power-iteration
# ascent) on the two desk instances; the library must agree to 1e-9
DESK_CONSTANT_Z2 = 1.7071067811865475
DESK_CONSTANT_Z3 = 1.5205176042696106


def w_instance(n):
    return WreathGroup(Q=cyclic_group(n), B=cyclic_group(n), proj=tuple(range(n)))


def desk_sums(W, fvals):
    """Literal double-loop evaluation of both displayed sums, d = 1."""
    elems, index, mul = naive_wreath_table(W)
    X = [index[d] for d in x_subset(W).elements]
    Sig = [index[s] for s in W.generators]
    lhs = sum(
        (fvals[x] - fvals[mul[x][y]]) ** 2 for x in range(len(elems)) for y in X
    ) / len(X)
    rhs = sum(
        (fvals[x] - fvals[mul[x][s]]) ** 2 for x in range(len(elems)) for s in Sig
    )
    return lhs, rhs


# -- indexed wreath tables ---------------------------------------------------


def test_wreath_table_matches_naive():
    W = w_instance(3)
    table, elems = wreath_indexed_group(W)
    n_elems, _, n_mul = naive_wreath_table(W)
    assert elems == tuple(n_elems)
    assert table.order == 24
    assert table.identity == 0
    assert table.mul_table.tolist() == n_mul


def test_wreath_table_names_and_generators():
    W = w_instance(2)
    table, elems = wreath_indexed_group(W)
    assert table.name(0) == "{}|0"
    assert len(table.generators) == 2
    for gi, g in zip(table.generators, W.generators):
        assert elems[gi] == g


def test_wreath_table_cap():
    big = WreathGroup(Q=cyclic_group(9), B=cyclic_group(9), proj=tuple(range(9)))
    with pytest.raises(CapExceededError, match="cap"):
        wreath_indexed_group(big)


def s3_sign():
    """The sign of each element of symmetric_group(3), in its order."""
    perms = sorted(itertools.permutations(range(3)))
    return tuple(
        sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms
    )


@pytest.mark.parametrize(
    "W",
    [
        # a non-injective proj: S3 onto Z/2 by the sign
        WreathGroup(Q=cyclic_group(2), B=symmetric_group(3), proj=s3_sign()),
        # non-abelian Q: a right shift in place of the left one fails here
        WreathGroup(Q=symmetric_group(3), B=symmetric_group(3), proj=tuple(range(6))),
        WreathGroup(Q=cyclic_group(2), B=cyclic_group(4), proj=(0, 1, 0, 1)),
    ],
    ids=["s3_sign", "s3_wr_s3", "z4_to_z2"],
)
def test_wreath_table_matches_naive_law(W):
    table, elems = wreath_indexed_group(W)
    n_elems, _, n_mul = naive_wreath_table(W)
    assert elems == tuple(n_elems)
    assert table.mul_table.tolist() == n_mul
    assert list(table.element_names) == [
        "{" + ",".join(map(str, sorted(x.config))) + "}|" + W.B.name(x.b) for x in n_elems
    ]


def test_wreath_table_at_the_cap_matches_wreath_mul():
    W = w_instance(8)
    table, elems = wreath_indexed_group(W)
    assert table.order == POINCARE_ORDER_CAP
    index = {x: i for i, x in enumerate(elems)}
    rng = random.Random(2048)
    for _ in range(2000):
        i, j = rng.randrange(table.order), rng.randrange(table.order)
        assert int(table.mul_table[i, j]) == index[wreath_mul(W, elems[i], elems[j])]


# -- function and kernel containers ------------------------------------------


def test_group_function_validation():
    W = w_instance(2)
    f = GroupFunction(W, np.arange(8.0))
    assert f.values.shape == (8, 1)
    with pytest.raises(InvalidInputError, match="rows"):
        GroupFunction(W, np.zeros(5))
    with pytest.raises(InvalidInputError, match="finite"):
        GroupFunction(W, np.full(8, np.nan))
    with pytest.raises(InvalidInputError, match="vector or a matrix"):
        GroupFunction(W, np.zeros((8, 1, 1)))


def test_kernel_validation():
    with pytest.raises(InvalidInputError, match="one scalar"):
        KernelFunction(cyclic_group(3), np.zeros((3, 2)))
    with pytest.raises(InvalidInputError, match="one scalar"):
        KernelFunction(cyclic_group(3), np.zeros(4))


# -- the two forms -----------------------------------------------------------


def test_forms_vanish_on_constants():
    for n in (2, 3):
        W = w_instance(n)
        f = GroupFunction(W, np.full(W.order, 3.25))
        assert relative_form_lhs(W, None, f) == 0.0
        assert relative_form_rhs(W, None, f) == 0.0


def test_forms_match_double_loop_on_indicator():
    W = w_instance(2)
    fvals = [0.0] * 8
    fvals[0] = 1.0
    lhs_naive, rhs_naive = desk_sums(W, fvals)
    f = GroupFunction(W, np.array(fvals))
    assert relative_form_lhs(W, None, f) == pytest.approx(lhs_naive, abs=1e-12)
    assert relative_form_rhs(W, None, f) == pytest.approx(rhs_naive, abs=1e-12)


def test_forms_match_double_loop_on_random():
    W = w_instance(3)
    rng = random.Random(5)
    fvals = [rng.uniform(-1, 1) for _ in range(24)]
    lhs_naive, rhs_naive = desk_sums(W, fvals)
    f = GroupFunction(W, np.array(fvals))
    assert relative_form_lhs(W, None, f) == pytest.approx(lhs_naive, rel=1e-12)
    assert relative_form_rhs(W, None, f) == pytest.approx(rhs_naive, rel=1e-12)


def test_form_homogeneity():
    W = w_instance(2)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(8)
    base_l = relative_form_lhs(W, None, GroupFunction(W, vals))
    base_r = relative_form_rhs(W, None, GroupFunction(W, vals))
    scaled_l = relative_form_lhs(W, None, GroupFunction(W, 2.5 * vals))
    scaled_r = relative_form_rhs(W, None, GroupFunction(W, 2.5 * vals))
    assert scaled_l == pytest.approx(2.5**2 * base_l, rel=1e-12)
    assert scaled_r == pytest.approx(2.5**2 * base_r, rel=1e-12)


def test_vector_form_is_coordinate_sum():
    W = w_instance(2)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((8, 3))
    whole = relative_form_rhs(W, None, GroupFunction(W, vals))
    per_coord = sum(
        relative_form_rhs(W, None, GroupFunction(W, vals[:, j])) for j in range(3)
    )
    assert whole == pytest.approx(per_coord, rel=1e-12)


def test_rhs_counts_generator_and_inverse_separately():
    W = w_instance(3)
    from coarselab.wreath import WreathElement

    t = WreathElement(frozenset(), 1)
    t_inv = WreathElement(frozenset(), 2)
    rng = np.random.default_rng(8)
    f = GroupFunction(W, rng.standard_normal(24))
    both = relative_form_rhs(W, [t, t_inv], f)
    assert both == pytest.approx(
        relative_form_rhs(W, [t], f) + relative_form_rhs(W, [t_inv], f), rel=1e-12
    )


def test_form_errors():
    W = w_instance(2)
    f = GroupFunction(cyclic_group(8), np.arange(8.0))
    # same length, different group object: accepted (values align by index)
    assert relative_form_rhs(W, None, f) >= 0
    g = GroupFunction(cyclic_group(4), np.arange(4.0))
    with pytest.raises(InvalidInputError, match="do not match"):
        relative_form_lhs(W, None, g)
    with pytest.raises(InvalidInputError, match="empty"):
        relative_form_lhs(W, [], GroupFunction(W, np.arange(8.0)))
    with pytest.raises(InvalidInputError, match="not an element"):
        from coarselab.wreath import WreathElement

        relative_form_lhs(
            W, [WreathElement(frozenset({7}), 0)], GroupFunction(W, np.arange(8.0))
        )


# -- the optimal constant ----------------------------------------------------


def test_constant_desk_z2():
    res = relative_poincare_constant(w_instance(2))
    assert res.constant == pytest.approx(DESK_CONSTANT_Z2, abs=1e-9)


def test_constant_desk_z3():
    res = relative_poincare_constant(w_instance(3))
    assert res.constant == pytest.approx(DESK_CONSTANT_Z3, abs=1e-9)


def test_constant_matches_sampling_oracle():
    for W, expect in ((w_instance(2), DESK_CONSTANT_Z2), (w_instance(3), DESK_CONSTANT_Z3)):
        _, index, mul = naive_wreath_table(W)
        X = [index[d] for d in x_subset(W).elements]
        Sig = [index[s] for s in W.generators]
        oracle = naive_poincare_constant(mul, X, Sig, samples=20000, seed=0)
        assert oracle == pytest.approx(expect, abs=1e-9)
        lib = relative_poincare_constant(W).constant
        assert oracle <= lib + 1e-9
        assert lib - oracle <= 1e-6


def test_witness_attains_constant():
    for n in (2, 3):
        W = w_instance(n)
        res = relative_poincare_constant(W)
        u = res.witness.values
        assert abs(float(u.sum())) < 1e-9
        lhs = relative_form_lhs(W, None, res.witness)
        rhs = relative_form_rhs(W, None, res.witness)
        assert lhs == pytest.approx(res.constant * rhs, abs=1e-9)


def test_random_vector_functions_never_violate():
    W = w_instance(3)
    res = relative_poincare_constant(W)
    rng = np.random.default_rng(17)
    for _ in range(200):
        f = GroupFunction(W, rng.standard_normal((24, 3)))
        lhs = relative_form_lhs(W, None, f)
        rhs = relative_form_rhs(W, None, f)
        assert lhs <= res.constant * rhs + 1e-9 * max(1.0, rhs)


def test_table_group_path_agrees_with_wreath_path():
    # the dense solve on the indexed table is the oracle; the library
    # solves wreath groups only
    W = w_instance(2)
    table, elems = wreath_indexed_group(W)
    index = {x: i for i, x in enumerate(elems)}
    X = [index[d] for d in x_subset(W).elements]
    res_w = relative_poincare_constant(W)
    res_t, _ = dense_poincare_constant(table, table.generators, X)
    assert res_t == pytest.approx(res_w.constant, abs=1e-12)
    with pytest.raises(InvalidInputError, match="wreath groups only"):
        relative_poincare_constant(table, sigma=None, x_set=X)


def test_degenerate_lamp_free_instance():
    # trivial Q: X = {delta} is contained in Sigma, and the constant
    # collapses to 1/|X| times the form ratio, here exactly 1
    triv = FiniteGroupTable([[0]])
    W = WreathGroup(Q=triv, B=cyclic_group(3), proj=(0, 0, 0))
    res = relative_poincare_constant(W)
    assert res.constant == pytest.approx(1.0, abs=1e-9)
    assert res.constant <= 1.0 + 1e-9


def test_disconnected_sigma_rejected():
    W = w_instance(2)
    with pytest.raises(DisconnectedGraphError, match="does not connect"):
        relative_poincare_constant(W, sigma=[W.delta()])


def test_trivial_group_rejected():
    # every wreath group has order at least 2; the trivial group can only
    # come as a table, which the solver rejects
    with pytest.raises(InvalidInputError, match="wreath groups only"):
        relative_poincare_constant(FiniteGroupTable([[0]]), sigma=[0], x_set=[0])


def test_table_group_requires_explicit_x():
    G = cyclic_group(4)
    with pytest.raises(InvalidInputError, match="explicit X"):
        relative_form_lhs(G, None, GroupFunction(G, np.arange(4.0)))
    with pytest.raises(InvalidInputError, match="wreath groups only"):
        relative_poincare_constant(G)


# -- character blocks against the dense oracle --------------------------------

# constants of the dense generalized eigensolve the character blocks
# replaced, on Z/k wr Z/k and on S3 wr S3
DENSE_CONSTANTS = {
    3: 1.520517604269611,
    4: 1.7198404615157419,
    5: 2.0944271909999186,
    6: 2.4880338717125894,
    7: 3.0020281863250764,
    8: 3.5827783006909772,
    "s3": 2.4880338717125907,
}


def block_groups():
    """Cyclic and symmetric Q and B, non-identity proj, S3 -> Z/2 by
    sign, and trivial Q."""
    trivial = FiniteGroupTable([[0]])
    return {
        "z3": w_instance(3),
        "z4": w_instance(4),
        "s3_wr_s3": WreathGroup(Q=symmetric_group(3), B=symmetric_group(3), proj=tuple(range(6))),
        "z4_to_z2": WreathGroup(Q=cyclic_group(2), B=cyclic_group(4), proj=(0, 1, 0, 1)),
        "z6_to_z3": WreathGroup(Q=cyclic_group(3), B=cyclic_group(6), proj=(0, 1, 2, 0, 1, 2)),
        "s3_sign": WreathGroup(Q=cyclic_group(2), B=symmetric_group(3), proj=s3_sign()),
        "trivial_q": WreathGroup(Q=trivial, B=cyclic_group(3), proj=(0, 0, 0)),
        "trivial_q_s3": WreathGroup(Q=trivial, B=symmetric_group(3), proj=(0,) * 6),
    }


def character_basis(W, elems):
    """Columns chi_S(m) e_b / sqrt(2^|Q|), S-major, in element order."""
    nq, nb = W.Q.order, W.B.order
    masks = [sum(1 << q for q in elems[r * nb].config) for r in range(1 << nq)]
    chi = np.array([[(-1.0) ** bin(m & S).count("1") for S in range(1 << nq)] for m in masks])
    return np.kron(chi, np.eye(nb)) / math.sqrt(1 << nq)


@pytest.mark.parametrize("name", sorted(block_groups()))
def test_blocks_equal_the_dense_oracle(name):
    import scipy.linalg

    W = block_groups()[name]
    table, elems = wreath_indexed_group(W)
    n, nb = table.order, W.B.order
    E = character_basis(W, elems)
    rng = random.Random(f"blocks:{name}")
    cases = [(None, None)]
    for _ in range(8):
        sigma = rng.sample(range(1, n), rng.randint(1, 3))
        if rng.random() < 0.5:
            sigma += table.generators
        x_set = rng.sample(range(n), rng.randint(1, 4))
        # members given as wreath elements and as indices
        cases.append(([elems[i] for i in sigma], x_set))
        cases.append((sigma, [elems[i] for i in x_set]))
    connected = disconnected = 0
    for sigma, x_set in cases:
        sig_idx = list(table.generators) if sigma is None else subset_indices(W, sigma)
        x_idx = subset_indices(W, x_subset(W) if x_set is None else x_set)
        if not right_orbit(table.mul_table[:, sig_idx].T, table.identity).all():
            with pytest.raises(DisconnectedGraphError):
                relative_poincare_constant(W, sigma, x_set)
            disconnected += 1
            continue
        connected += 1
        want, _ = dense_poincare_constant(table, sig_idx, x_idx)
        res = relative_poincare_constant(W, sigma, x_set)
        assert abs(res.constant - want) <= 1e-12 * max(1.0, want)
        A = dense_form_matrix(table, x_idx) / len(x_idx)
        B = dense_form_matrix(table, sig_idx)
        u = res.witness.values[:, 0]
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12 and abs(u.sum()) <= 1e-12
        assert abs(u @ A @ u - want * (u @ B @ u)) <= 1e-12 * max(1.0, want)
        # the stacked blocks are the dense forms in the character basis
        for form, dense in ((res.lhs_form, A), (res.rhs_form, B)):
            assert form.shape == (n, nb)
            diag = scipy.linalg.block_diag(*form.reshape(-1, nb, nb))
            assert np.abs(E.T @ dense @ E - diag).max() <= 1e-12
    assert connected >= 3 and connected + disconnected == len(cases)


@pytest.mark.parametrize("key", sorted(DENSE_CONSTANTS, key=str))
def test_constants_equal_the_dense_solve(key):
    if key == "s3":
        W = WreathGroup(Q=symmetric_group(3), B=symmetric_group(3), proj=tuple(range(6)))
    else:
        W = w_instance(key)
    assert abs(relative_poincare_constant(W).constant - DENSE_CONSTANTS[key]) <= 1e-12


def test_witness_is_the_canonical_character_lift():
    import scipy.linalg

    groups = [w_instance(5), w_instance(7), block_groups()["s3_wr_s3"], block_groups()["s3_sign"]]
    attaining = []
    for W in groups:
        res = relative_poincare_constant(W)
        nq, nb = W.Q.order, W.B.order
        _, elems = wreath_indexed_group(W)
        A = res.lhs_form.reshape(-1, nb, nb)
        B = res.rhs_form.reshape(-1, nb, nb)
        # top eigenvalue per mask; block 0 on the complement of the constants
        V = scipy.linalg.null_space(np.ones((1, nb)))
        top = [scipy.linalg.eigh(V.T @ A[0] @ V, V.T @ B[0] @ V, eigvals_only=True)[-1]]
        top += [scipy.linalg.eigh(A[S], B[S], eigvals_only=True)[-1] for S in range(1, 1 << nq)]
        attaining.append([S for S, t in enumerate(top) if t >= res.constant - 1e-9])
        S = attaining[-1][0]
        u = res.witness.values[:, 0].reshape(1 << nq, nb)
        g = u[0] * math.sqrt(1 << nq)  # mask 0 comes first, where chi_S is 1
        masks = [sum(1 << q for q in elems[r * nb].config) for r in range(1 << nq)]
        chi = np.array([(-1.0) ** bin(m & S).count("1") for m in masks])
        assert np.array_equal(u, np.outer(chi, g) / math.sqrt(1 << nq))
        assert g[np.flatnonzero(np.abs(g) > 1e-9)[0]] > 0
        assert np.abs(A[S] @ g - res.constant * (B[S] @ g)).max() <= 1e-12
    # on Z/7 wr Z/7 the top eigenvalue is shared by the 7 rotations of a mask
    assert len(attaining[1]) == 7


def test_the_solve_reads_no_table_and_passes_the_table_cap(monkeypatch):
    import coarselab.poincare_lab as poincare_lab

    def refuse(W):
        raise AssertionError("the indexed table was built")

    monkeypatch.setattr(poincare_lab, "wreath_indexed_group", refuse)
    assert relative_poincare_constant(w_instance(8)).constant == pytest.approx(
        DENSE_CONSTANTS[8], abs=1e-12
    )
    big = relative_poincare_constant(w_instance(9))
    assert big.witness.values.shape == (9 << 9, 1) and 9 << 9 > POINCARE_ORDER_CAP
    assert big.lhs_form.shape == (9 << 9, 9)


def test_block_cap_refuses_before_allocating(monkeypatch):
    import coarselab.poincare_lab as poincare_lab

    assert (1 << 13) * 13 * 13 <= POINCARE_BLOCK_CAP < (1 << 14) * 14 * 14

    def refuse(*args):
        raise AssertionError("work started above the block cap")

    for name in ("_lamp_order", "_character_blocks", "component_roots", "subset_indices"):
        monkeypatch.setattr(poincare_lab, name, refuse)
    with pytest.raises(CapExceededError, match="block cap"):
        relative_poincare_constant(w_instance(14))


# -- kernels -----------------------------------------------------------------


def test_pd_constant_one():
    for G in (cyclic_group(4), cyclic_group(7)):
        assert is_positive_definite(KernelFunction(G, np.ones(G.order)))


def test_pd_identity_indicator():
    G = cyclic_group(5)
    vals = np.zeros(5)
    vals[G.identity] = 1.0
    assert is_positive_definite(KernelFunction(G, vals))


def test_pd_counterexample_z2():
    # translation matrix [[1,-2],[-2,1]] has eigenvalues 3 and -1
    phi = KernelFunction(cyclic_group(2), np.array([1.0, -2.0]))
    assert not is_positive_definite(phi)


def test_pd_rejects_asymmetric_kernel():
    phi = KernelFunction(cyclic_group(3), np.array([0.0, 1.0, 2.0]))
    assert not is_positive_definite(phi)


def test_cnd_zero_kernel():
    assert is_cnd(KernelFunction(cyclic_group(4), np.zeros(4)))


def test_cnd_z2_example():
    # compressed to mean-zero vectors (c, -c) the form is -8c^2
    psi = KernelFunction(cyclic_group(2), np.array([0.0, 4.0]))
    assert is_cnd(psi)


def test_cnd_negative_example():
    psi = KernelFunction(cyclic_group(2), np.array([0.0, -4.0]))
    assert not is_cnd(psi)


def test_cnd_preconditions():
    with pytest.raises(InvalidInputError, match="identity"):
        is_cnd(KernelFunction(cyclic_group(2), np.array([1.0, 0.0])))
    with pytest.raises(InvalidInputError, match="symmetric"):
        is_cnd(KernelFunction(cyclic_group(3), np.array([0.0, 1.0, 2.0])))


def test_cnd_from_constant_function():
    G = cyclic_group(5)
    psi = cnd_from_function(G, GroupFunction(G, np.full(5, 2.0)))
    assert np.allclose(psi.values, 0.0)


def test_cnd_from_indicator_z3():
    G = cyclic_group(3)
    vals = np.zeros(3)
    vals[0] = 1.0
    psi = cnd_from_function(G, GroupFunction(G, vals))
    assert psi.values[G.identity] == 0.0
    assert psi.values[1] == pytest.approx(2.0)
    assert psi.values[2] == pytest.approx(2.0)


def test_cnd_from_random_functions():
    rng = np.random.default_rng(29)
    for G in (cyclic_group(6), cyclic_group(8)):
        f = GroupFunction(G, rng.standard_normal((G.order, 2)))
        psi = cnd_from_function(G, f)
        assert is_cnd(psi, tol=1e-8)
        assert np.allclose(psi.values, psi.values[G.inv])


def test_displacement_kernel_equals_the_per_element_loop():
    rng = np.random.default_rng(37)
    for G in (cyclic_group(6), w_instance(3), w_instance(8)):
        table = resolve_group(G)
        for d in (1, 2, 3):
            vals = rng.standard_normal((G.order, d))
            loop = [float(np.sum((vals - vals[table.mul_table[:, w]]) ** 2)) for w in range(G.order)]
            assert np.array_equal(cnd_from_function(G, GroupFunction(G, vals)).values, loop)


def test_double_centring_decides_like_the_mean_zero_basis():
    import scipy.linalg

    rng = np.random.default_rng(41)
    verdicts = set()
    for trial in range(60):
        G = cyclic_group(2 + trial % 9)
        vals = np.zeros(G.order)
        for g in range(1, G.order):
            vals[g] = vals[G.inverse(g)] if G.inverse(g) < g else rng.uniform(-0.3, 1.5)
        M = vals[G.mul_table[G.inv]].T
        V = scipy.linalg.null_space(np.ones((1, G.order)))
        top = scipy.linalg.eigvalsh(V.T @ ((M + M.T) / 2) @ V)[-1]
        expected = top <= 1e-8 * max(1.0, np.abs(vals).max())
        assert is_cnd(KernelFunction(G, vals), tol=1e-8) == expected
        verdicts.add(bool(expected))
    assert verdicts == {True, False}


def test_cnd_from_function_on_wreath():
    W = w_instance(2)
    rng = np.random.default_rng(31)
    psi = cnd_from_function(W, GroupFunction(W, rng.standard_normal(8)))
    assert is_cnd(psi, tol=1e-8)


# -- Schoenberg --------------------------------------------------------------


def test_transform_at_zero_is_one():
    psi = KernelFunction(cyclic_group(4), np.array([0.0, 1.0, 2.0, 1.0]))
    phi = schoenberg_transform(psi, 0.0)
    assert np.allclose(phi.values, 1.0)


def test_transform_z2_example():
    psi = KernelFunction(cyclic_group(2), np.array([0.0, 4.0]))
    phi = schoenberg_transform(psi, 1.0)
    assert phi.values[0] == pytest.approx(1.0)
    assert phi.values[1] == pytest.approx(math.exp(-4.0))
    assert is_positive_definite(phi)


def test_transform_negative_t_rejected():
    psi = KernelFunction(cyclic_group(2), np.zeros(2))
    with pytest.raises(InvalidInputError, match="nonnegative"):
        schoenberg_transform(psi, -0.5)


def test_schoenberg_equivalence_suite():
    # is_cnd(psi) iff exp(-t psi) is PD for every t in the dyadic grid
    rng = random.Random(101)
    grid = [2.0**k for k in range(-4, 5)]
    agreements = 0
    cnd_count = 0
    for trial in range(100):
        G = cyclic_group(2 + trial % 7)
        vals = [0.0] * G.order
        for g in range(1, G.order):
            h = G.inverse(g)
            if vals[g] == 0.0 and g <= h:
                v = rng.uniform(-0.5, 1.5)
                vals[g] = v
                vals[h] = v
        psi = KernelFunction(G, np.array(vals))
        left = is_cnd(psi, tol=1e-8)
        right = all(
            is_positive_definite(schoenberg_transform(psi, t), tol=1e-8) for t in grid
        )
        assert left == right
        agreements += 1
        cnd_count += left
    assert agreements == 100
    assert 0 < cnd_count < 100


def test_schoenberg_bound_values():
    assert schoenberg_bound(0.5, 0.1) == pytest.approx(6.931471805599453)
    assert schoenberg_bound(1.0, 2.0) == 0.0
    with pytest.raises(InvalidInputError, match="eps"):
        schoenberg_bound(0.0, 1.0)
    with pytest.raises(InvalidInputError, match="eps"):
        schoenberg_bound(1.5, 1.0)
    with pytest.raises(InvalidInputError, match="delta"):
        schoenberg_bound(0.5, 0.0)


def test_schoenberg_chain_replay():
    # normalize a displacement kernel to sup 1 on the generators, form
    # exp(-delta psi), check the hypothesis and replay the bound
    rng = np.random.default_rng(43)
    for delta in (0.3, 1.0):
        for trial in range(20):
            G = cyclic_group(4 + trial % 5)
            f = GroupFunction(G, rng.standard_normal(G.order))
            psi = cnd_from_function(G, f).values
            sup_v = max(psi[s] for s in G.generators)
            if sup_v <= 1e-12:
                continue
            psi = psi / sup_v
            phi = np.exp(-delta * psi)
            inf_v = min(phi[s] for s in G.generators)
            assert inf_v >= 1.0 - delta
            others = [g for g in range(G.order) if g != G.identity]
            sup_x = max(psi[x] for x in others)
            inf_x = min(phi[x] for x in others)
            assert sup_x <= -math.log(inf_x) / delta + 1e-9
            assert sup_x <= schoenberg_bound(inf_x, delta) + 1e-9


# -- spectral gap -------------------------------------------------------------
# The dense Laplacian oracle that the Cheeger sandwich in test_graph_core reads.


def test_spectral_gap_circulant():
    for n in range(3, 9):
        g = cayley_graph(cyclic_group(n))
        expect = 2.0 - 2.0 * math.cos(2.0 * math.pi / n)
        assert dense_laplacian_lambda2(g) == pytest.approx(expect, abs=1e-9)


def test_spectral_gap_single_edge():
    g = build_graph(2, [(0, 1)])
    assert dense_laplacian_lambda2(g) == pytest.approx(2.0, abs=1e-12)


def test_spectral_gap_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert dense_laplacian_lambda2(g) == pytest.approx(0.0, abs=1e-12)


def test_spectral_gap_ramanujan_instance():
    g, _ = lps_graph(5, 13)
    gap = dense_laplacian_lambda2(g)
    assert gap >= 6.0 - 2.0 * math.sqrt(5.0) - 1e-9
    assert gap < 12.0


# -- randomized verification --------------------------------------------------


def test_verify_at_exact_constant():
    W = w_instance(2)
    C = relative_poincare_constant(W).constant
    rep = verify_relative_inequality(W, None, None, C, trials=60, seed=3)
    assert rep.ok
    assert rep.violations == 0
    assert rep.degenerate >= 1
    assert rep.worst_ratio == pytest.approx(C, abs=1e-8)
    assert rep.checked + rep.degenerate == 60 + 3


def test_verify_at_half_constant_finds_witness():
    W = w_instance(2)
    C = relative_poincare_constant(W).constant
    rep = verify_relative_inequality(W, None, None, C / 2, trials=10, seed=3)
    assert not rep.ok
    assert rep.violations >= 1


def test_sup_ratio_diagnostic_exceeds_constant():
    # the sup-over-X form of the inequality needs a larger constant than
    # the mean-over-X display; the report keeps them separate
    W = w_instance(2)
    C = relative_poincare_constant(W).constant
    rep = verify_relative_inequality(W, None, None, C, trials=60, seed=3)
    assert rep.worst_sup_ratio > C
    assert rep.sup_ratio_violations > 0
    assert rep.ok


def test_verify_reuses_a_given_witness(monkeypatch):
    import coarselab.poincare_lab as poincare_lab

    W = w_instance(3)
    res = relative_poincare_constant(W)
    solved = verify_relative_inequality(W, None, None, res.constant, trials=5, seed=2)

    def refuse(*args, **kwargs):
        raise AssertionError("the constant was solved a second time")

    monkeypatch.setattr(poincare_lab, "relative_poincare_constant", refuse)
    given = verify_relative_inequality(
        W, None, None, res.constant, trials=5, seed=2, witness=res.witness
    )
    assert given.to_json_dict() == solved.to_json_dict()
    assert given.checked + given.degenerate == 5 + 3


def test_verify_rejects_bad_constant():
    with pytest.raises(InvalidInputError, match="positive"):
        verify_relative_inequality(w_instance(2), None, None, 0.0)


def test_report_json_dict():
    W = w_instance(2)
    rep = verify_relative_inequality(W, None, None, 2.0, trials=4, seed=1)
    d = rep.to_json_dict()
    assert d["constant"] == 2.0
    assert d["trials"] == 4
    assert d["seed"] == 1
    assert set(d) == {
        "ok",
        "constant",
        "trials",
        "seed",
        "checked",
        "degenerate",
        "violations",
        "worst_ratio",
        "sup_ratio_violations",
        "worst_sup_ratio",
    }
