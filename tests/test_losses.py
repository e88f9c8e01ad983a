import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from fairexperts import rng as rngmod
from fairexperts.losses import (
    EXP_CLAMP,
    BatchPlan,
    CenterCosines,
    PairAssignment,
    VirtualCenters,
    center_alignment_loss,
    discriminator_loss,
    diversity_loss,
    sample_pairs,
)
from fairexperts.net import Layer, Mlp, check_index, init_mlp, log_softmax, softmax_cross_entropy

from helpers import (
    center_alignment_oracle,
    central_difference,
    diversity_oracle,
    log_softmax_oracle,
    group_batch,
    max_relative_error,
    one_batch,
    sample_pairs_oracle,
    softmax_cross_entropy_oracle,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pair_assignment_seed3.json")


# --- discriminator loss ------------------------------------------------


def uniform_disc(groups, dim=3):
    return Mlp([Layer(np.zeros((groups, dim)), np.zeros(groups), "identity")])


def test_disc_loss_zero_for_perfect_discriminator():
    # huge margin on the true group drives the NLL numerically to zero
    w = np.zeros((2, 2))
    disc = Mlp([Layer(w, np.array([60.0, -60.0]), "identity")])
    loss, _, _ = discriminator_loss(np.zeros((3, 2)), group_batch(np.zeros(3, dtype=int), 2), disc)
    assert loss < 1e-12


def test_disc_loss_uniform_binary_is_ln2():
    loss, _, _ = discriminator_loss(np.array([[1.0, 2.0, 3.0]]), group_batch(np.array([0]), 2), uniform_disc(2))
    assert abs(loss - math.log(2)) < 1e-12


def test_disc_loss_two_samples_four_groups_is_ln4():
    z = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]])
    loss, _, _ = discriminator_loss(z, group_batch(np.array([1, 3]), 4), uniform_disc(4))
    assert abs(loss - math.log(4)) < 1e-12


def test_disc_loss_rejects_out_of_range_group():
    with pytest.raises(ValueError, match="group index"):
        discriminator_loss(np.zeros((1, 3)), group_batch(np.array([2]), 2), uniform_disc(2))


def test_disc_loss_nonnegative_and_zero_iff_exact():
    rng = np.random.default_rng(0)
    for _ in range(10):
        disc = init_mlp([4, 3], ["identity"], rng)
        z = rng.standard_normal((6, 4))
        groups = rng.integers(0, 3, 6)
        loss, _, _ = discriminator_loss(z, group_batch(groups, 3), disc)
        assert loss >= 0.0


# --- center alignment loss ----------------------------------------------


def test_alignment_loss_zero_for_single_class():
    centers = VirtualCenters(np.ones((2, 1, 3)))
    loss, dz, dv = center_alignment_loss(
        CenterCosines(np.array([[1.0, 2.0, 3.0]]), centers),
        one_batch(np.array([0]), np.array([1]), (2, 1)),
    )
    assert loss == 0.0
    assert np.all(dz == 0) and np.all(dv == 0)


def test_alignment_loss_symmetric_cosines_give_ln2():
    # one sample, G=1, C=2, equal similarity to both class centers
    z = np.array([[1.0, 1.0]])
    centers = VirtualCenters(np.array([[[2.0, 0.0], [0.0, 2.0]]]))
    loss, _, _ = center_alignment_loss(
        CenterCosines(z, centers), one_batch(np.array([0]), np.array([0]), (1, 2))
    )
    assert abs(loss - math.log(2)) < 1e-12


def test_alignment_loss_hand_value_two_groups():
    # cos to the correct class center is 1, to the wrong one -1, in both
    # groups: each group contributes log(1 + exp(-2))
    z = np.array([[1.0, 0.0, 0.0]])
    vectors = np.zeros((2, 2, 3))
    vectors[:, 0] = [2.0, 0.0, 0.0]
    vectors[:, 1] = [-3.0, 0.0, 0.0]
    loss, _, _ = center_alignment_loss(
        CenterCosines(z, VirtualCenters(vectors)), one_batch(np.array([0]), np.array([0]), (2, 2))
    )
    assert loss == pytest.approx(2 * math.log(1 + math.exp(-2)), abs=1e-12)


def test_alignment_loss_nonnegative_and_scale_invariant():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((6, 4))
    labels = rng.integers(0, 2, 6)
    groups = rng.integers(0, 2, 6)
    centers = VirtualCenters(rng.standard_normal((2, 2, 4)))
    batch = one_batch(labels, groups, (2, 2))
    loss, _, _ = center_alignment_loss(CenterCosines(z, centers), batch)
    assert loss >= 0.0
    scales = rng.uniform(0.1, 10.0, size=(6, 1))
    scaled, _, _ = center_alignment_loss(CenterCosines(z * scales, centers), batch)
    assert scaled == pytest.approx(loss, rel=1e-12, abs=1e-12)


def test_alignment_loss_rejects_zero_norm():
    centers = VirtualCenters(np.ones((1, 2, 3)))
    with pytest.raises(ValueError, match="zero-norm"):
        center_alignment_loss(
            CenterCosines(np.zeros((1, 3)), centers), one_batch(np.array([0]), np.array([0]), (1, 2))
        )
    # every direct use of an undefined system raises the same error
    z = np.ones((2, 3))
    z[1] = 0.0
    degenerate = VirtualCenters(np.ones((1, 2, 3)))
    degenerate.vectors[0, 1] = 0.0  # as an SGD step could leave it
    for cosines, zero in (
        (CenterCosines(z, centers), "representation"),
        (CenterCosines(np.ones((2, 3)), degenerate), "center"),
    ):
        with pytest.raises(ValueError, match=f"zero-norm {zero}"):
            cosines.cos
        with pytest.raises(ValueError, match=f"zero-norm {zero}"):
            cosines.grads(np.ones((2, 1, 2)))


def test_virtual_centers_reject_zero_vector():
    vec = np.ones((1, 2, 3))
    vec[0, 1] = 0.0
    with pytest.raises(ValueError, match="nonzero"):
        VirtualCenters(vec)


def test_virtual_centers_reinit_degenerate():
    centers = VirtualCenters(np.ones((2, 2, 3)))
    centers.vectors[0, 0] = 1e-12  # degenerate after an update
    redrawn = centers.reinit_degenerate(np.random.default_rng(0))
    assert redrawn == 1
    assert np.linalg.norm(centers.vectors[0, 0]) > 1e-8


# --- pair sampling -------------------------------------------------------


def test_sample_pairs_forced_choice():
    labels = np.array([1, 1])
    groups = np.array([0, 0])
    pairs = sample_pairs(labels, groups, rngmod.stream(0, rngmod.PAIRS), batch_size=len(labels))
    assert pairs.positive.tolist() == [1, 0]
    assert pairs.negative.tolist() == [-1, -1]


def test_sample_pairs_absent_for_unique_cell_member():
    labels = np.array([0, 1, 1])
    groups = np.array([0, 0, 0])
    pairs = sample_pairs(labels, groups, rngmod.stream(0, rngmod.PAIRS), batch_size=len(labels))
    assert pairs.positive[0] == -1
    assert pairs.negative.tolist() == [-1, -1, -1]  # no different-group partner


def test_sample_pairs_matches_golden_file():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    pairs = sample_pairs(
        np.array(golden["labels"]),
        np.array(golden["groups"]),
        rngmod.stream(golden["seed"], rngmod.PAIRS),
        batch_size=len(golden["labels"]),
    )
    assert pairs.positive.tolist() == golden["positive"]
    assert pairs.negative.tolist() == golden["negative"]


def test_sample_pairs_satisfies_predicates_on_random_batches():
    rng = np.random.default_rng(4)
    for trial in range(30):
        n = int(rng.integers(1, 20))
        labels = rng.integers(0, 3, n)
        groups = rng.integers(0, 3, n)
        pairs = sample_pairs(labels, groups, rngmod.stream(trial, rngmod.PAIRS), batch_size=n)
        for i in range(n):
            p, q = pairs.positive[i], pairs.negative[i]
            if p >= 0:
                assert p != i and labels[p] == labels[i] and groups[p] == groups[i]
            else:
                eligible = [
                    j
                    for j in range(n)
                    if j != i and labels[j] == labels[i] and groups[j] == groups[i]
                ]
                assert not eligible
            if q >= 0:
                assert labels[q] != labels[i] and groups[q] != groups[i]
            else:
                eligible = [
                    j for j in range(n) if labels[j] != labels[i] and groups[j] != groups[i]
                ]
                assert not eligible


def test_sample_pairs_uniform_over_eligible_partners():
    # sample 0 has three eligible positives; 10^4 seeded draws should be
    # uniform within 3 sigma of the multinomial count
    labels = np.array([0, 0, 0, 0, 1])
    groups = np.array([0, 0, 0, 0, 1])
    gen = rngmod.stream(99, rngmod.PAIRS)
    counts = {1: 0, 2: 0, 3: 0}
    draws = 10_000
    for _ in range(draws):
        pairs = sample_pairs(labels, groups, gen, batch_size=len(labels))
        counts[int(pairs.positive[0])] += 1
    expected = draws / 3
    sigma = math.sqrt(draws * (1 / 3) * (2 / 3))
    for c in counts.values():
        assert abs(c - expected) <= 3 * sigma


def test_sample_pairs_deterministic_given_seed():
    labels = np.array([0, 1, 0, 1, 0, 1])
    groups = np.array([0, 0, 1, 1, 0, 1])
    a = sample_pairs(labels, groups, rngmod.stream(7, rngmod.PAIRS), batch_size=len(labels))
    b = sample_pairs(labels, groups, rngmod.stream(7, rngmod.PAIRS), batch_size=len(labels))
    assert np.array_equal(a.positive, b.positive)
    assert np.array_equal(a.negative, b.negative)


def test_vectorised_integer_draws_match_sequential_scalar_draws():
    # sample_pairs relies on one Generator.integers(0, bounds) call giving
    # the values and the final state of one scalar call per bound
    for seed in (0, 1, 7, 2024):
        for length in (1, 2, 5, 64, 300):
            bounds = np.random.default_rng(seed + 100).integers(1, 200, length)
            bounds[::3] = 1
            for case in (bounds, np.ones(length, dtype=np.int64)):
                batch_gen = rngmod.stream(seed, rngmod.PAIRS)
                scalar_gen = rngmod.stream(seed, rngmod.PAIRS)
                batch = batch_gen.integers(0, case)
                scalar = [scalar_gen.integers(int(high)) for high in case]
                assert batch.tolist() == scalar
                assert batch_gen.bit_generator.state == scalar_gen.bit_generator.state


@settings(max_examples=150, deadline=None, derandomize=True, phases=[Phase.generate])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 130),
    num_groups=st.integers(1, 6),
    classes=st.integers(1, 4),
    skew=st.sampled_from([0.05, 0.3, 1.0, 10.0]),
)
def test_sample_pairs_matches_per_sample_oracle(seed, n, num_groups, classes, skew):
    # a small Dirichlet skew leaves many cells empty or with one member
    rng = np.random.default_rng(seed)
    cells = num_groups * classes
    groups, labels = np.divmod(rng.choice(cells, size=n, p=rng.dirichlet(np.full(cells, skew))), classes)
    gen = rngmod.stream(seed, rngmod.PAIRS)
    oracle_gen = rngmod.stream(seed, rngmod.PAIRS)
    # no rows still take a batch size of at least 1
    pairs = sample_pairs(labels, groups, gen, batch_size=max(len(labels), 1))
    positive, negative = sample_pairs_oracle(labels, groups, oracle_gen)
    assert pairs.positive.tolist() == positive.tolist()
    assert pairs.negative.tolist() == negative.tolist()
    assert gen.bit_generator.state == oracle_gen.bit_generator.state


def test_sample_pairs_memory_is_linear_in_batch_size():
    # an n-by-n mask over these 20,000 rows would take at least 400 MB
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 20_000)
    groups = rng.integers(0, 2, 20_000)
    tracemalloc.start()
    try:
        pairs = sample_pairs(labels, groups, rngmod.stream(0, rngmod.PAIRS), batch_size=len(labels))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.all(pairs.positive >= 0) and np.all(pairs.negative >= 0)


@settings(
    max_examples=150, deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate]
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 200),
    batch_size=st.integers(1, 250),
    num_groups=st.integers(1, 5),
    classes=st.integers(1, 4),
    skew=st.sampled_from([0.05, 0.3, 1.0, 10.0]),
    group_base=st.sampled_from([0, 10**9 - 6]),
)
@example(seed=1, n=0, batch_size=64, num_groups=2, classes=2, skew=1.0, group_base=0)
@example(seed=2, n=150, batch_size=64, num_groups=2, classes=2, skew=1.0, group_base=0)
@example(seed=3, n=40, batch_size=40, num_groups=3, classes=2, skew=1.0, group_base=0)
@example(seed=4, n=40, batch_size=250, num_groups=3, classes=3, skew=0.05, group_base=0)
@example(seed=5, n=199, batch_size=16, num_groups=5, classes=4, skew=0.05, group_base=10**9 - 6)
def test_epoch_sample_pairs_matches_per_batch_oracle(
    seed, n, batch_size, num_groups, classes, skew, group_base
):
    # one call over consecutive batches equals the oracle run batch by
    # batch on one generator, with partners as positions in their batch
    rng = np.random.default_rng(seed)
    cells = num_groups * classes
    groups, labels = np.divmod(rng.choice(cells, size=n, p=rng.dirichlet(np.full(cells, skew))), classes)
    groups += group_base
    gen = rngmod.stream(seed, rngmod.PAIRS)
    oracle_gen = rngmod.stream(seed, rngmod.PAIRS)
    pairs = sample_pairs(labels, groups, gen, batch_size)
    positive, negative = [], []
    for start in range(0, n, batch_size):
        stop = start + batch_size
        pos, neg = sample_pairs_oracle(labels[start:stop], groups[start:stop], oracle_gen)
        positive += pos.tolist()
        negative += neg.tolist()
    assert pairs.positive.tolist() == positive
    assert pairs.negative.tolist() == negative
    assert gen.bit_generator.state == oracle_gen.bit_generator.state


def test_epoch_sample_pairs_memory_is_linear_in_rows():
    # the ~1,250 (batch, group, class) cells of these 20,000 rows in
    # batches of 64 make an (epoch cells x rows) mask of at least 25 MB,
    # and dense ids up to the group ids near 10^9 would be larger still
    rng = np.random.default_rng(0)
    n, size = 20_000, 64
    labels = rng.integers(0, 2, n)
    groups = 10**9 - rng.integers(0, 2, n)
    tracemalloc.start()
    try:
        pairs = sample_pairs(labels, groups, rngmod.stream(0, rngmod.PAIRS), size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    rows = np.arange(n)
    first = rows // size * size
    for partner, same in ((pairs.positive, True), (pairs.negative, False)):
        assert np.all((partner >= -1) & (partner < size))
        has = partner >= 0
        j = (first + partner)[has]
        i = rows[has]
        assert np.all(j < n) and np.all(j // size == i // size)
        if same:
            assert np.all((j != i) & (labels[j] == labels[i]) & (groups[j] == groups[i]))
        else:
            assert np.all((labels[j] != labels[i]) & (groups[j] != groups[i]))
    assert np.count_nonzero(pairs.positive >= 0) > 0.99 * n


@pytest.mark.parametrize(
    "call, reps, labels, groups, match",
    [
        pytest.param("pairs", None, [0, 1, 0], [0, 1], "groups must be 1-D", id="pairs-short-groups"),
        pytest.param("alignment", np.ones((3, 2)), [0, 1, 0], [0, 1], "groups must be 1-D",
                     id="alignment-short-groups"),
        pytest.param("diversity", np.ones((3, 2)), [0, 1, 0], [0, 1], "groups must be 1-D",
                     id="diversity-short-groups"),
        pytest.param("alignment", np.ones((2, 2)), [0, 1], [0, 1, 1], "groups must be 1-D",
                     id="alignment-long-groups"),
        pytest.param("diversity", np.ones((2, 2)), [[0, 1]], [0, 1], "labels must be 1-D",
                     id="diversity-2d-labels"),
        pytest.param("pairs", None, [0.0, 1.0], [0, 1], "labels must hold integers", id="pairs-float-labels"),
        pytest.param("pairs", None, [0, 1], [0, -1], "groups must be nonnegative", id="pairs-negative-group"),
        pytest.param("alignment", np.ones((2, 2)), [-1, 1], [0, 1], "labels must be nonnegative",
                     id="alignment-negative-label"),
        # the label check runs before the zero-norm check
        pytest.param("diversity", np.zeros((2, 2)), [0, 5], [0, 1], "label index out of range",
                     id="diversity-bad-label-on-zero-row"),
        pytest.param("discriminator", np.ones((2, 2)), [0, 1], [0.0, 1.0], "groups must hold integers",
                     id="discriminator-float-groups"),
        pytest.param("discriminator", np.ones((3, 2)), [0, 1, 0], [0, 1], "groups must be 1-D",
                     id="discriminator-short-groups"),
        pytest.param("cross_entropy", np.ones((2, 2)), [0.0, 1.0], [0, 1], "labels must hold integers",
                     id="cross-entropy-float-labels"),
        pytest.param("cross_entropy", np.ones((2, 2)), [[0, 1]], [0, 1], "labels must be 1-D",
                     id="cross-entropy-2d-labels"),
        pytest.param("cross_entropy", np.ones((2, 2)), [0, 2], [0, 1], "label index out of range",
                     id="cross-entropy-label-past-classes"),
        pytest.param("discriminator", np.ones((2, 2)), [0, 1], [0, 2], "group index out of range",
                     id="discriminator-group-past-outputs"),
        pytest.param("alignment", np.ones((2, 2)), [0, 1], [0, 2], "group index out of range",
                     id="alignment-group-past-centers"),
        # an empty batch has no mean; integer dtypes so the shape checks pass
        pytest.param("cross_entropy", np.ones((0, 2)), np.zeros(0, dtype=np.int64),
                     np.zeros(0, dtype=np.int64), "needs at least one row", id="cross-entropy-no-rows"),
        pytest.param("discriminator", np.ones((0, 2)), np.zeros(0, dtype=np.int64),
                     np.zeros(0, dtype=np.int64), "needs at least one row", id="discriminator-no-rows"),
    ],
)
def test_cell_inputs_must_match_the_batch(call, reps, labels, groups, match):
    labels, groups = np.array(labels), np.array(groups)
    centers = VirtualCenters(np.ones((2, 2, 2)))
    calls = {
        "pairs": lambda: sample_pairs(
            labels, groups, rngmod.stream(0, rngmod.PAIRS), batch_size=len(labels)
        ),
        "discriminator": lambda: discriminator_loss(
            reps, one_batch(labels, groups, (2, 2)), uniform_disc(2, dim=2)
        ),
        # training checks a cross-entropy fit's targets once, with check_index
        "cross_entropy": lambda: softmax_cross_entropy(
            reps, check_index("labels", labels, len(reps), reps.shape[1])
        ),
        "alignment": lambda: center_alignment_loss(
            CenterCosines(reps, centers), one_batch(labels, groups, (2, 2))
        ),
        "diversity": lambda: diversity_loss(
            CenterCosines(reps, centers), one_batch(labels, groups, (2, 2))
        ),
    }
    with pytest.raises(ValueError, match=match):
        calls[call]()


# --- diversity loss ------------------------------------------------------


def test_diversity_loss_zero_when_ratio_is_one():
    # single sample, partners absent, own-center and other-center cosines
    # identical, exactly one opposite cell
    z = np.array([[1.0, 0.0, 0.0]])
    vectors = np.zeros((2, 2, 3))
    vectors[0, 0] = [1.0, 1.0, 0.0]
    vectors[1, 1] = [1.0, 1.0, 0.0]
    vectors[0, 1] = [0.0, 0.0, 5.0]
    vectors[1, 0] = [0.0, 0.0, 5.0]
    pairs = PairAssignment(np.array([-1]), np.array([-1]))
    loss, dz, dv, skipped = diversity_loss(
        CenterCosines(z, VirtualCenters(vectors)), one_batch(np.array([0]), np.array([0]), (2, 2), pairs)
    )
    assert loss == 0.0
    assert skipped == 0


def test_diversity_loss_hand_value():
    # sample 0: numerator exp(1) + exp(1), denominator exp(0) + exp(0),
    # contribution -log(2e/2) = -1; samples 1 and 2 contribute 0 by
    # construction; batch average over 3 samples gives -1/3
    z = np.array(
        [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    )
    labels = np.array([0, 0, 1])
    groups = np.array([0, 0, 1])
    vectors = np.zeros((2, 2, 4))
    vectors[0, 0] = [2.0, 0.0, 0.0, 0.0]
    vectors[1, 1] = [0.0, 3.0, 0.0, 0.0]
    vectors[0, 1] = [0.0, 0.0, 0.0, 7.0]
    vectors[1, 0] = [0.0, 0.0, 0.0, 7.0]
    pairs = PairAssignment(np.array([1, -1, -1]), np.array([2, -1, -1]))
    loss, _, _, skipped = diversity_loss(
        CenterCosines(z, VirtualCenters(vectors)), one_batch(labels, groups, (2, 2), pairs)
    )
    assert loss == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert skipped == 0


def test_diversity_loss_skips_samples_without_denominator():
    # G=1 leaves no opposite cell; absent negative partner empties the
    # denominator, so the sample is skipped
    z = np.array([[1.0, 0.0]])
    centers = VirtualCenters(np.ones((1, 2, 2)))
    pairs = PairAssignment(np.array([-1]), np.array([-1]))
    loss, dz, dv, skipped = diversity_loss(
        CenterCosines(z, centers), one_batch(np.array([0]), np.array([0]), (1, 2), pairs)
    )
    assert loss == 0.0
    assert skipped == 1
    assert np.all(dz == 0) and np.all(dv == 0)


def test_diversity_loss_decreases_when_positive_dot_grows():
    # z1 moves only within the subspace orthogonal to every center, so
    # only the positive dot product changes between evaluations
    labels = np.array([0, 0])
    groups = np.array([0, 0])
    vectors = np.zeros((2, 2, 4))
    vectors[0, 0] = [1.0, 0.0, 0.0, 0.0]
    vectors[0, 1] = [0.0, 1.0, 0.0, 0.0]
    vectors[1, 0] = [1.0, 1.0, 0.0, 0.0]
    vectors[1, 1] = [1.0, -1.0, 0.0, 0.0]
    centers = VirtualCenters(vectors)
    pairs = PairAssignment(np.array([1, -1]), np.array([-1, -1]))
    z0 = np.array([0.0, 0.0, 1.0, 0.0])
    losses = []
    for dot in (0.2, 0.9, 2.5):
        z1 = np.array([0.0, 0.0, dot, 1.0])  # z0 . z1 = dot, center cosines fixed
        loss, _, _, _ = diversity_loss(
            CenterCosines(np.vstack([z0, z1]), centers), one_batch(labels, groups, (2, 2), pairs)
        )
        losses.append(loss)
    assert losses[0] > losses[1] > losses[2]


def test_diversity_loss_clamps_large_exponents():
    z = np.array([[10.0, 0.0], [10.0, 0.0], [0.0, 10.0]])  # dot = 100 > clamp
    labels = np.array([0, 0, 1])
    groups = np.array([0, 0, 1])
    centers = VirtualCenters(np.ones((2, 2, 2)))
    pairs = PairAssignment(np.array([1, -1, -1]), np.array([2, -1, -1]))
    loss, dz, dv, _ = diversity_loss(
        CenterCosines(z, centers), one_batch(labels, groups, (2, 2), pairs)
    )
    assert np.isfinite(loss)
    # sample 0 contributes about -(clamp - log(1 + e^cos)); batch of 3
    assert loss == pytest.approx(-(EXP_CLAMP - math.log(1 + math.exp(1 / math.sqrt(2)))) / 3, abs=1e-9)
    assert np.all(np.isfinite(dz)) and np.all(np.isfinite(dv))


def test_diversity_loss_rejects_bad_partner_index():
    z = np.ones((2, 2))
    centers = VirtualCenters(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="partner index"):
        diversity_loss(
            CenterCosines(z, centers),
            one_batch(
                np.array([0, 1]),
                np.array([0, 1]),
                (2, 2),
                PairAssignment(np.array([0, -1]), np.array([-1, -1])),  # self-partner
            ),
        )


@pytest.mark.parametrize(
    "partner", [np.array([-1.0, -1.0]), np.array([False, False])], ids=["float", "bool"]
)
def test_diversity_loss_rejects_partners_that_are_not_integers(partner):
    # numpy would read floats as a bad index and booleans as a mask
    z = np.ones((2, 2))
    centers = VirtualCenters(np.ones((2, 2, 2)))
    absent = np.array([-1, -1])
    for name, pairs in (
        ("positive", PairAssignment(partner, absent)),
        ("negative", PairAssignment(absent, partner)),
    ):
        with pytest.raises(ValueError, match=f"{name} partner array must hold integers"):
            diversity_loss(
                CenterCosines(z, centers),
                one_batch(np.array([0, 1]), np.array([0, 1]), (2, 2), pairs),
            )


@settings(max_examples=60, deadline=None, derandomize=True, phases=[Phase.generate])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 90),
    batch_size=st.integers(1, 40),
    num_groups=st.integers(1, 4),
    classes=st.integers(1, 3),
)
def test_batch_plan_slices_equal_each_batch_derived_alone(
    seed, n, batch_size, num_groups, classes
):
    # one plan over an epoch gives each batch the facts that batch alone
    # gives: intp cells, positions and partner masks
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, n).astype(np.uint8)
    groups = rng.integers(0, num_groups, n).astype(np.uint8)
    pairs = sample_pairs(labels, groups, rng, batch_size)
    plan = BatchPlan(labels, groups, (num_groups, classes), batch_size, pairs)
    for start in range(0, n, batch_size):
        rows = slice(start, start + batch_size)
        batch = plan[rows]
        y, a, positive, negative = labels[rows], groups[rows], pairs.positive[rows], pairs.negative[rows]
        assert len(batch) == len(y) and batch.cells == (num_groups, classes)
        for got, want in (
            (batch.labels, y),
            (batch.groups, a),
            (batch.position, np.arange(len(y))),
            (batch.positive, positive),
            (batch.negative, negative),
        ):
            assert got.dtype == np.intp and np.array_equal(got, want)
        has_denom = (negative >= 0) | (num_groups > 1 and classes > 1)
        assert np.array_equal(batch.has_pos, positive >= 0)
        assert np.array_equal(batch.has_neg, negative >= 0)
        assert np.array_equal(batch.has_denom, has_denom)


# --- bit-for-bit oracles --------------------------------------------------


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, float):
            assert a.hex() == b.hex()
        elif isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


@settings(max_examples=200, deadline=None, derandomize=True, phases=[Phase.generate])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 130),
    num_groups=st.integers(1, 4),
    classes=st.integers(1, 3),
    dim=st.integers(1, 8),
    scale=st.sampled_from([0.05, 1.0, 4.0, 12.0]),
    drop=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_losses_reproduce_the_unshared_oracles_bit_for_bit(
    seed, n, num_groups, classes, dim, scale, drop
):
    # at scales 4 and 12 many partner dot products pass the exponent clamp;
    # ``drop`` hand-sets partners to -1 on top of the sampler's own -1s
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, n)
    groups = rng.integers(0, num_groups, n)
    z = rng.standard_normal((n, dim)) * scale
    centers = VirtualCenters(rng.standard_normal((num_groups, classes, dim)))
    drawn = sample_pairs(labels, groups, rngmod.stream(seed, rngmod.PAIRS), batch_size=len(labels))
    pairs = PairAssignment(
        np.where(rng.random(n) < drop, -1, drawn.positive),
        np.where(rng.random(n) < drop, -1, drawn.negative),
    )
    cosines = CenterCosines(z, centers)
    batch = one_batch(labels, groups, (num_groups, classes), pairs)
    assert_same_bits(
        center_alignment_loss(cosines, batch),
        center_alignment_oracle(z, labels, groups, centers),
    )
    assert_same_bits(
        diversity_loss(cosines, batch),
        diversity_oracle(z, labels, groups, pairs, centers),
    )
    logits = rng.standard_normal((n, classes)) * scale * 10
    assert_same_bits([log_softmax(logits)], [log_softmax_oracle(logits)])
    assert_same_bits(
        softmax_cross_entropy(logits, labels), softmax_cross_entropy_oracle(logits, labels)
    )


# --- gradient checks ------------------------------------------------------


def test_all_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for trial in range(6):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 6))
        g = int(rng.integers(2, 4))
        c = int(rng.integers(2, 4))
        z = rng.standard_normal((n, m))
        labels = rng.integers(0, c, n)
        groups = rng.integers(0, g, n)
        disc = init_mlp([m, g], ["identity"], rng)
        centers = VirtualCenters(rng.standard_normal((g, c, m)))
        pairs = sample_pairs(labels, groups, rng, batch_size=len(labels))

        batch = one_batch(labels, groups, (g, c), pairs)

        _, dz, dparams = discriminator_loss(z, batch, disc)
        num = central_difference(lambda: discriminator_loss(z, batch, disc)[0], z)
        assert max_relative_error(dz, num) < 1e-4
        for p, grad in zip(disc.params(), dparams):
            num = central_difference(lambda: discriminator_loss(z, batch, disc)[0], p)
            assert max_relative_error(grad, num) < 1e-4

        _, dz, dv = center_alignment_loss(CenterCosines(z, centers), batch)
        num = central_difference(
            lambda: center_alignment_loss(CenterCosines(z, centers), batch)[0], z
        )
        assert max_relative_error(dz, num) < 1e-4
        num = central_difference(
            lambda: center_alignment_loss(CenterCosines(z, centers), batch)[0], centers.vectors
        )
        assert max_relative_error(dv, num) < 1e-4

        _, dz, dv, _ = diversity_loss(CenterCosines(z, centers), batch)
        num = central_difference(lambda: diversity_loss(CenterCosines(z, centers), batch)[0], z)
        assert max_relative_error(dz, num) < 1e-4
        num = central_difference(
            lambda: diversity_loss(CenterCosines(z, centers), batch)[0], centers.vectors
        )
        assert max_relative_error(dv, num) < 1e-4


def test_diversity_loss_rejects_out_of_range_negative_index():
    z = np.ones((2, 2))
    centers = VirtualCenters(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="partner index"):
        diversity_loss(
            CenterCosines(z, centers),
            one_batch(
                np.array([0, 1]),
                np.array([0, 1]),
                (2, 2),
                PairAssignment(np.array([-1, -1]), np.array([-5, -1])),
            ),
        )
