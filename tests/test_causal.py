import numpy as np
import pytest

import oracles
from icolab.bell import BehaviorTable, MeasurementSetting, behavior
from icolab.causal import (
    CausalDecomposition,
    LambdaModel,
    NotCausal,
    audit_deviations_csv,
    causal_membership,
    lambda_model_from_definite_order,
    marginal_dependence,
    signaling_directions,
    temporal_locality_audit,
)
from icolab.linalg import H, I2, SpaceLayout, Z, ket
from icolab.sampling import random_behavior, random_causal_behavior, random_two_qubit_state


def det_table(o1_of, o2_of):
    """Deterministic 2x2x2x2 behavior from outcome functions of (x, y)."""
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            t[x, y, o1_of(x, y), o2_of(x, y)] = 1.0
    return BehaviorTable(t)


AB_TABLE = det_table(lambda x, y: x, lambda x, y: x)  # A's input reaches B
BA_TABLE = det_table(lambda x, y: y, lambda x, y: y)  # B's input reaches A
TWO_WAY = det_table(lambda x, y: y, lambda x, y: x)  # both directions at once


def test_signaling_directions():
    s = signaling_directions(AB_TABLE)
    assert s.a_to_b and not s.b_to_a
    s = signaling_directions(BA_TABLE)
    assert s.b_to_a and not s.a_to_b
    s = signaling_directions(TWO_WAY)
    assert s.a_to_b and s.b_to_a
    local = det_table(lambda x, y: x, lambda x, y: y)
    s = signaling_directions(local)
    assert not s.a_to_b and not s.b_to_a


def test_one_way_tables_are_causal():
    for t in (AB_TABLE, BA_TABLE):
        out = causal_membership(t)
        assert isinstance(out, CausalDecomposition)
        assert np.abs(out.reconstruction() - t.probs).max() < 1e-9


def test_two_way_table_is_rejected_with_margin():
    out = causal_membership(TWO_WAY)
    assert isinstance(out, NotCausal)
    assert out.violation_margin > 0.01
    assert not oracles.causal_polytope_member(TWO_WAY.probs)


def test_mixture_weight_is_pinned_for_signaling_components():
    # For this pair of deterministic one-way tables the weight is identified:
    # the A-marginal of the AB component must be y-independent, which caps q
    # at the mixing weight from both sides.
    for q in (0.0, 0.3, 0.62, 1.0):
        t = BehaviorTable(q * AB_TABLE.probs + (1 - q) * BA_TABLE.probs)
        out = causal_membership(t)
        assert isinstance(out, CausalDecomposition)
        assert out.q == pytest.approx(q, abs=1e-6)
        assert np.abs(out.reconstruction() - t.probs).max() < 1e-8


def test_membership_matches_vertex_oracle():
    rng = np.random.default_rng(99)
    for k in range(60):
        if k % 2 == 0:
            t = random_causal_behavior(rng)
        else:
            t = random_behavior(rng)
        verdict = isinstance(causal_membership(t), CausalDecomposition)
        assert verdict == oracles.causal_polytope_member(t.probs)


# A near-deterministic Born-rule table (smallest entry 9e-6): the conditioned
# target pair of a coherent double switch under its optimal CHSH settings.
# It is no-signaling, hence causal; at HiGHS's default feasibility tolerance
# the equality rows were met only to about 1e-8, the re-validation gate.
NEAR_DETERMINISTIC = [
    [
        [
            [0.9998600339332671, 9.094268049044188e-06],
            [9.07248428405616e-06, 0.00012179931439994934],
        ],
        [
            [0.9998600443315941, 9.083869721956787e-06],
            [9.0828826111106e-06, 0.00012178891607284893],
        ],
    ],
    [
        [
            [0.49991020490591564, 4.107571235382676e-05],
            [0.4999589015116353, 8.981787009522055e-05],
        ],
        [
            [0.499910192528232, 4.1088090037453076e-05],
            [0.49995893468597313, 8.978469575732489e-05],
        ],
    ],
]


def test_near_deterministic_causal_table_is_accepted():
    t = BehaviorTable(np.array(NEAR_DETERMINISTIC))
    # 1e-3 of a one-way table makes it signal, so the LP decides it
    signaling = BehaviorTable(0.999 * t.probs + 0.001 * AB_TABLE.probs)
    assert signaling_directions(signaling).a_to_b
    for table in (t, signaling):
        assert oracles.causal_polytope_member(table.probs)
        assert isinstance(causal_membership(table), CausalDecomposition)


# Born table of a seeded coherent double switch at its optimal CHSH settings
# (perfbench switch-family, seed 301, input 628): no-signaling, so causal,
# with entries down to about 1e-17. HiGHS at its default options calls the
# vertex LP of this table infeasible.
NEAR_DETERMINISTIC_BORN = [
    [
        [
            [5.625678327174366e-08, 3.1953606427492787e-15],
            [5.625677058896349e-08, 0.999999887486443],
        ],
        [
            [5.6256783270008937e-08, 3.207070026212122e-15],
            [5.625677059395082e-08, 0.999999887486443],
        ],
    ],
    [
        [
            [1.1251355388493907e-07, 0.499999887486106],
            [-1.452830911130576e-17, 0.50000000000034],
        ],
        [
            [2.6075062248276382e-17, 0.4999999999996599],
            [1.1251355384119151e-07, 0.4999998874867862],
        ],
    ],
]


def test_near_deterministic_born_table_is_causal_for_the_oracle_too():
    t = BehaviorTable(np.array(NEAR_DETERMINISTIC_BORN))
    assert max(marginal_dependence(t)) <= 1e-9
    assert oracles.causal_polytope_member(t.probs)
    assert isinstance(causal_membership(t), CausalDecomposition)


def test_born_tables_are_certified_without_the_lp():
    # a local measurement of a bipartite state cannot signal, so the table
    # is its own one-way component in both orders
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = random_two_qubit_state(rng)
        settings = [
            MeasurementSetting(tuple(map(tuple, rng.uniform(0.0, np.pi, size=(2, 2)))))
            for _ in range(2)
        ]
        t = behavior(rho, *settings)
        assert max(marginal_dependence(t)) <= 1e-12
        out = causal_membership(t)
        assert isinstance(out, CausalDecomposition)
        assert out.q == 1.0
        assert out.component_ab is t and out.component_ba is t
        assert oracles.causal_polytope_member(t.probs)


def test_membership_capacity_guard():
    rng = np.random.default_rng(1)
    big = random_behavior(rng, shape=(5, 2, 2, 2))
    # no-signaling: a product of local laws, with five inputs for A
    local = np.einsum("xi,yj->xyij", rng.dirichlet(np.ones(2), 5), rng.dirichlet(np.ones(2), 2))
    for t in (big, BehaviorTable(local)):
        with pytest.raises(ValueError, match="alphabets up to 4"):
            causal_membership(t)


def test_causal_components_are_one_way():
    rng = np.random.default_rng(2)
    t = random_causal_behavior(rng)
    out = causal_membership(t)
    assert isinstance(out, CausalDecomposition)
    sa = signaling_directions(out.component_ab)
    sb = signaling_directions(out.component_ba)
    assert not sa.b_to_a
    assert not sb.a_to_b


# ---------------------------------------------------------------------------
# lambda models and the audit


def test_factorized_model_passes_exactly():
    # dyadic probabilities make the cell conditionals bit-exact
    marginal_i = np.array([[[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0], [0.5, 0.5]]])
    marginal_j = np.array([[[0.75, 0.25], [0.5, 0.5]], [[0.25, 0.75], [1.0, 0.0]]])
    prior = np.array([[0.5, 0.0], [0.25, 0.25]])
    m = LambdaModel.factorized(marginal_i, marginal_j, prior)
    rep = temporal_locality_audit(m)
    assert rep.passed
    assert rep.max_deviation == 0.0
    assert rep.product_residual == 0.0


def test_factorized_model_random_within_atol():
    rng = np.random.default_rng(3)
    marginal_i = rng.dirichlet(np.ones(2), size=(2, 3))
    marginal_j = rng.dirichlet(np.ones(2), size=(2, 3))
    prior = rng.dirichlet(np.ones(9)).reshape(3, 3)
    m = LambdaModel.factorized(marginal_i, marginal_j, prior)
    rep = temporal_locality_audit(m, tol=1e-12)
    assert rep.passed
    assert rep.max_deviation <= 1e-12


def test_xor_model_fails_with_deviation_one():
    # declared law says i copies a; the joint actually sets i = a xor b
    marginal_i = np.zeros((2, 1, 2))
    marginal_i[0, 0, 0] = 1.0
    marginal_i[1, 0, 1] = 1.0
    marginal_j = np.zeros((2, 1, 2))
    marginal_j[:, 0, 0] = 1.0
    joint = np.zeros((2, 2, 1, 1, 2, 2))
    for a in range(2):
        for b in range(2):
            joint[a, b, 0, 0, a ^ b, 0] = 1.0
    m = LambdaModel(
        lambda_a=("l",),
        lambda_b=("l",),
        prior=np.array([[1.0]]),
        joint=joint,
        marginal_i=marginal_i,
        marginal_j=marginal_j,
    )
    rep = temporal_locality_audit(m)
    assert not rep.passed
    assert rep.max_deviation == 1.0
    assert rep.worst_case is not None


def test_shared_lambda_screens_correlations():
    # i and j both copy a shared random bit: unconditionally correlated, but
    # each cell factorizes once lambda is given
    marginal_i = np.zeros((2, 2, 2))
    marginal_j = np.zeros((2, 2, 2))
    for la in range(2):
        marginal_i[:, la, la] = 1.0
        marginal_j[:, la, la] = 1.0
    prior = np.array([[0.5, 0.0], [0.0, 0.5]])
    m = LambdaModel.factorized(marginal_i, marginal_j, prior)
    rep = temporal_locality_audit(m)
    assert rep.passed
    assert rep.max_deviation == 0.0
    # the unconditional i-j correlation is perfect, so screening did the work
    uncond = np.einsum("xy,abxyij->abij", prior, m.joint)
    assert uncond[0, 0, 0, 0] == pytest.approx(0.5)
    assert uncond[0, 0, 0, 1] == pytest.approx(0.0)


def test_audit_mode_is_recorded_and_validated():
    m = LambdaModel.factorized(
        np.full((1, 1, 2), 0.5), np.full((1, 1, 2), 0.5), np.array([[1.0]])
    )
    assert temporal_locality_audit(m, mode="relaxed").mode == "relaxed"
    with pytest.raises(ValueError):
        temporal_locality_audit(m, mode="loose")


def test_impossible_cells_are_skipped():
    # second lambda_b value never occurs: its cells are all-zero and skipped
    marginal_i = np.full((1, 1, 2), 0.5)
    marginal_j = np.zeros((1, 2, 2))
    marginal_j[0, 0] = [1.0, 0.0]
    marginal_j[0, 1] = [0.5, 0.5]
    prior = np.array([[1.0, 0.0]])
    joint = np.zeros((1, 1, 1, 2, 2, 2))
    joint[0, 0, 0, 0] = np.outer([0.5, 0.5], [1.0, 0.0])
    m = LambdaModel(
        lambda_a=("x",),
        lambda_b=("u", "v"),
        prior=prior,
        joint=joint,
        marginal_i=marginal_i,
        marginal_j=marginal_j,
    )
    rep = temporal_locality_audit(m)
    assert rep.passed
    assert rep.cells_skipped > 0


def test_lambda_model_validation():
    good_i = np.full((1, 1, 2), 0.5)
    good_j = np.full((1, 1, 2), 0.5)
    with pytest.raises(ValueError):
        LambdaModel.factorized(good_i, good_j, np.array([[0.7]]))  # prior sum
    bad_i = np.array([[[0.9, 0.3]]])
    with pytest.raises(ValueError):
        LambdaModel.factorized(bad_i, good_j, np.array([[1.0]]))


def test_audit_csv_output():
    m = LambdaModel.factorized(
        np.full((2, 1, 2), 0.5), np.full((2, 1, 2), 0.5), np.array([[1.0]])
    )
    text = audit_deviations_csv(m)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,lambda_a,lambda_b,equation,conditioned_value,deviation"
    assert len(lines) == 1 + 2 * 2 * 2 * 2  # two equations per admissible cell


def test_json_roundtrip():
    m = LambdaModel.factorized(
        np.full((2, 2, 2), 0.5),
        np.full((2, 2, 2), 0.5),
        np.full((2, 2), 0.25),
        gamma=(("A<B", "B<A"), ("A<B", "A<B")),
    )
    back = LambdaModel.from_json_dict(m.to_json_dict())
    assert np.abs(back.joint - m.joint).max() == 0.0
    assert back.gamma == m.gamma


# ---------------------------------------------------------------------------
# definite-order generator


PROBES = [I2, H]  # computational and +/- bases


def test_generator_single_branch_hand_values():
    lay = SpaceLayout(("target",), (2,))
    m = lambda_model_from_definite_order(
        ket(0), lay, "target", PROBES, PROBES, [(1.0, H)]
    )
    assert m.lambda_a == ("branch0:pre-measurement state",)
    # Z-probe on |0>: outcome 0 certain; +/- probe: 50/50
    assert np.abs(m.marginal_i[0, 0] - [1.0, 0.0]).max() < 1e-12
    assert np.abs(m.marginal_i[1, 0] - [0.5, 0.5]).max() < 1e-12
    # after Z-probe outcome 0, state |0> evolves through H to |+>:
    # Z-probe at B is 50/50, +/- probe is deterministic
    rep = temporal_locality_audit(m)
    assert rep.passed
    assert rep.max_deviation <= 1e-12


def test_generator_verifies_against_direct_simulation():
    rng = np.random.default_rng(4)
    lay = SpaceLayout(("target",), (2,))
    for _ in range(5):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        m = lambda_model_from_definite_order(
            ket(0), lay, "target", PROBES, PROBES, [(1.0, u)]
        )
        assert temporal_locality_audit(m).passed


def test_generator_mixture_branches_and_orders():
    lay = SpaceLayout(("target",), (2,))
    m = lambda_model_from_definite_order(
        ket(0),
        lay,
        "target",
        PROBES,
        PROBES,
        [(0.3, H), (0.7, Z)],
        orders=["A<B", "B<A"],
    )
    assert len(m.lambda_a) == 2
    assert m.gamma[0][0] == "A<B" and m.gamma[1][0] == "B<A"
    assert temporal_locality_audit(m).passed
    with pytest.raises(ValueError):
        lambda_model_from_definite_order(
            ket(0), lay, "target", PROBES, PROBES, [(1.0, H)], orders=["A<B", "B<A"]
        )


def test_generator_input_validation():
    lay = SpaceLayout(("target",), (2,))
    with pytest.raises(ValueError):
        lambda_model_from_definite_order(
            2.0 * ket(0), lay, "target", PROBES, PROBES, [(1.0, H)]
        )
    skewed = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        lambda_model_from_definite_order(
            ket(0), lay, "target", [skewed], PROBES, [(1.0, H)]
        )
