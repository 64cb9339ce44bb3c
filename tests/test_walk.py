import math
import tracemalloc

import numpy as np
import pytest

from qwcount import (
    BipartiteInstance,
    build_coin,
    build_evolution,
    build_oracle,
    invariant_basis,
    uniform_state,
    unitarity_defect,
    verify_suite,
)
from qwcount.cli import main
from qwcount.errors import ResourceLimitError
from qwcount.walk import MAX_FULL_SPACE_EDGES

from conftest import (
    ArcIndex,
    arc_to_flat,
    build_ancilla_oracle,
    build_part_oracle,
    build_shift,
    flat_to_arc,
    iter_count_instances,
    kron_coin,
    kron_shift,
    literal_evolution,
    literal_plus_restriction,
    random_instances,
    restrict_to_plus_ancilla,
)

FIG2 = BipartiteInstance(4, 3, frozenset({1, 3}), frozenset({1}))
K11 = BipartiteInstance(1, 1)
K41 = BipartiteInstance(4, 1, frozenset({2}), frozenset({0}))
K33 = BipartiteInstance(3, 3)
K57 = BipartiteInstance(5, 7, frozenset({0, 2, 4}), frozenset({1, 5}))

INSTANCES = [FIG2, K11, K41, K33, K57]


def test_instance_validation():
    with pytest.raises(ValueError):
        BipartiteInstance(0, 3)
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, frozenset({2}), frozenset())
    with pytest.raises(ValueError):
        BipartiteInstance.from_counts(2, 2, 3, 0)


def test_part_sizes_must_be_integers():
    for n0 in (2.5, np.float64(4.0), "4"):
        with pytest.raises(ValueError, match="part sizes must be integers"):
            BipartiteInstance(n0, 3)
    for counts in ((4, 3, 1.5, 0), (2.5, 3, 1, 0), (4, np.float64(3.0), 0, 0)):
        with pytest.raises(ValueError, match="part sizes and marked counts must be integers"):
            BipartiteInstance.from_counts(*counts)
    inst = BipartiteInstance(np.int64(4), 3)
    assert inst == BipartiteInstance(4, 3) and type(inst.n0) is int
    assert (BipartiteInstance.from_counts(np.int64(4), 3, np.int64(1), 0)
            == BipartiteInstance.from_counts(4, 3, 1, 0))


def test_instance_derived_counts():
    assert FIG2.k0 == 2 and FIG2.k1 == 1
    assert FIG2.num_vertices == 7 and FIG2.num_marked == 3
    assert FIG2.num_edges == 12 and FIG2.dim == 24


def test_arc_to_flat_origin():
    assert arc_to_flat(FIG2, ArcIndex(0, 0, 0)) == 0


def test_arc_to_flat_reverse_block():
    assert arc_to_flat(FIG2, ArcIndex(1, 0, 0)) == 12


@pytest.mark.parametrize("inst", INSTANCES)
def test_arc_flat_roundtrip(inst):
    for flat in range(inst.dim):
        arc = flat_to_arc(inst, flat)
        assert arc_to_flat(inst, arc) == flat


def test_arc_index_out_of_range():
    with pytest.raises(ValueError):
        arc_to_flat(FIG2, ArcIndex(0, 4, 0))
    with pytest.raises(ValueError):
        arc_to_flat(FIG2, ArcIndex(2, 0, 0))
    with pytest.raises(ValueError):
        flat_to_arc(FIG2, 24)


@pytest.mark.parametrize("inst", INSTANCES)
def test_shift_swaps_directions(inst):
    shift = build_shift(inst)
    for u in range(inst.n0):
        for v in range(inst.n1):
            src = arc_to_flat(inst, ArcIndex(0, u, v))
            dst = arc_to_flat(inst, ArcIndex(1, u, v))
            column = shift[:, src]
            assert column[dst] == 1.0 and np.count_nonzero(column) == 1


@pytest.mark.parametrize("inst", INSTANCES)
def test_shift_is_unitary_involution(inst):
    shift = build_shift(inst)
    assert unitarity_defect(shift) == 0.0
    assert np.array_equal(shift @ shift, np.eye(inst.dim, dtype=np.complex128))


def test_coin_degree_one_blocks_are_identity():
    # Tails in part 0 of K_{4,1} have a single outgoing arc each.
    coin = build_coin(K41)
    assert np.array_equal(coin[:4, :4], np.eye(4, dtype=np.complex128))
    assert np.array_equal(build_coin(K11), np.eye(2, dtype=np.complex128))


def test_coin_block_values():
    coin = build_coin(FIG2)
    expected = (2.0 / 3.0) * np.ones((3, 3)) - np.eye(3)
    assert np.abs(coin[:3, :3] - expected).max() == 0.0
    # Off-block entries for a different tail vanish.
    assert np.abs(coin[:3, 3:6]).max() == 0.0


def test_shift_and_coin_equal_their_kron_forms():
    # Degree-1 vertices (n0 or n1 = 1) included.  The coin's off-block
    # zeros are all +0.0 where the Kronecker product gives 0.0 times a
    # negative entry, -0.0; the values are equal.
    for n0 in range(1, 9):
        for n1 in range(1, 9):
            inst = BipartiteInstance(n0, n1)
            shift, coin = build_shift(inst), build_coin(inst)
            assert shift.dtype == coin.dtype == np.float64
            assert np.array_equal(shift, kron_shift(inst)), (n0, n1)
            assert np.array_equal(coin, kron_coin(inst)), (n0, n1)
            assert not np.signbit(coin[coin == 0]).any()


@pytest.mark.parametrize("inst", INSTANCES)
def test_coin_is_unitary_involution(inst):
    coin = build_coin(inst)
    assert unitarity_defect(coin) < 1e-12
    assert np.abs(coin @ coin - np.eye(inst.dim)).max() < 1e-12


def test_oracle_trivial_cases():
    unmarked = BipartiteInstance(3, 2)
    assert np.array_equal(build_oracle(unmarked), np.eye(12, dtype=np.complex128))
    all_marked = BipartiteInstance(2, 2, frozenset({0, 1}), frozenset({0, 1}))
    assert np.array_equal(build_oracle(all_marked), -np.eye(8, dtype=np.complex128))


def test_oracle_marked_arc_count():
    # Marked tails: 2 vertices of degree 3 in part 0 plus 1 vertex of degree 4 in part 1.
    diag = np.diag(build_oracle(FIG2)).real
    assert int((diag == -1).sum()) == 10
    assert set(diag) == {1.0, -1.0}


def test_oracle_flips_exactly_marked_tails():
    diag = np.diag(build_oracle(FIG2)).real
    for flat in range(FIG2.dim):
        arc = flat_to_arc(FIG2, flat)
        marked = arc.u in FIG2.marked0 if arc.direction == 0 else arc.v in FIG2.marked1
        assert diag[flat] == (-1.0 if marked else 1.0)


def test_part_oracle_identity_when_other_part_marked():
    inst = BipartiteInstance(3, 3, frozenset(), frozenset({1}))
    assert np.array_equal(build_part_oracle(inst, 0), np.eye(18, dtype=np.complex128))


def test_part_oracle_marked_arc_count():
    diag = np.diag(build_part_oracle(FIG2, 0)).real
    assert int((diag == -1).sum()) == 6


@pytest.mark.parametrize("inst", INSTANCES)
def test_part_oracles_factor_the_oracle(inst):
    r0, r1 = build_part_oracle(inst, 0), build_part_oracle(inst, 1)
    assert np.array_equal(r0 @ r1, build_oracle(inst))
    assert np.array_equal(r0 @ r0, np.eye(inst.dim, dtype=np.complex128))


def test_part_oracle_validates_part():
    with pytest.raises(ValueError):
        build_part_oracle(FIG2, 2)


def test_ancilla_oracle_unmarked_is_identity():
    unmarked = BipartiteInstance(2, 2)
    for j in (0, 1):
        assert np.array_equal(build_ancilla_oracle(unmarked, j), np.eye(16, dtype=np.complex128))


@pytest.mark.parametrize("inst", INSTANCES)
@pytest.mark.parametrize("part", [0, 1])
def test_ancilla_oracle_restriction(inst, part):
    doubled = build_ancilla_oracle(inst, part)
    assert unitarity_defect(doubled) < 1e-12
    restriction = restrict_to_plus_ancilla(doubled)
    assert np.abs(restriction - build_part_oracle(inst, part)).max() < 1e-12


@pytest.mark.parametrize("part", [0, 1])
def test_ancilla_oracle_restriction_all_counts(part):
    for inst in iter_count_instances(6):
        restriction = restrict_to_plus_ancilla(build_ancilla_oracle(inst, part))
        assert np.abs(restriction - build_part_oracle(inst, part)).max() < 1e-12


def literal_ancilla_oracle(inst, part):
    """Reference: ``CZ_part · F · CZ_part`` assembled arc by arc.

    All three factors are block diagonal with one 2x2 block per arc, so the
    product is the per-arc product of blocks.
    """
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    oracle = np.zeros((2 * inst.dim, 2 * inst.dim), dtype=np.complex128)
    for a in range(inst.dim):
        arc = flat_to_arc(inst, a)
        tail_marked = arc.u in inst.marked0 if arc.direction == 0 else arc.v in inst.marked1
        flip = x if tail_marked else np.eye(2)
        cz = np.diag([1.0, -1.0 if arc.direction == part else 1.0])
        oracle[2 * a:2 * a + 2, 2 * a:2 * a + 2] = cz @ flip @ cz
    return oracle


@pytest.mark.parametrize("part", [0, 1])
def test_ancilla_oracle_matches_literal_loop(part):
    # Compared by value: the reference is complex128 and the oracle float64.
    # The oracle is written into a zero-filled array, so its zeros are +0.0.
    for inst in list(iter_count_instances(8)) + random_instances(40, 8, seed=22):
        assert np.array_equal(build_ancilla_oracle(inst, part), literal_ancilla_oracle(inst, part))


@pytest.mark.parametrize("part", [0, 1])
def test_ancilla_returns_to_plus(part):
    # The |+> component of each output column carries the full amplitude.
    doubled = build_ancilla_oracle(FIG2, part)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for a in range(FIG2.dim):
        state = np.zeros(2 * FIG2.dim, dtype=np.complex128)
        state[2 * a:2 * a + 2] = plus
        out = (doubled @ state).reshape(FIG2.dim, 2)
        plus_component = out @ plus
        assert abs(np.linalg.norm(plus_component) - 1.0) < 1e-12


def assert_bit_equal(actual, expected):
    """Equal dtype, values and zero signs, and equal ``float.hex`` on a sample."""
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))
    sample = np.linspace(0, actual.size - 1, 61).astype(int)
    assert ([float(x).hex() for x in actual.ravel()[sample]]
            == [float(x).hex() for x in expected.ravel()[sample]])


def corrupt_oracle(inst):
    """The oracle ``verify --corrupt-oracle`` passes: one arc's sign flipped."""
    oracle = build_oracle(inst)
    oracle[0, 0] = -oracle[0, 0]
    return oracle


def test_evolution_is_bit_equal_to_literal_product():
    # Zero signs included: the scaled coin's -0.0 entries are made +0.0.
    for inst in list(iter_count_instances(5)) + random_instances(30, 8, seed=32):
        oracles = [build_oracle(inst), build_part_oracle(inst, 0), build_part_oracle(inst, 1),
                   corrupt_oracle(inst)]
        for oracle in oracles:
            assert_bit_equal(build_evolution(inst, oracle), literal_evolution(inst, oracle))
        assert_bit_equal(build_evolution(inst), literal_evolution(inst, build_oracle(inst)))


def test_restriction_is_bit_equal_to_literal_sum():
    for inst in list(iter_count_instances(5)) + random_instances(30, 8, seed=33):
        for part in (0, 1):
            doubled = build_ancilla_oracle(inst, part)
            assert_bit_equal(restrict_to_plus_ancilla(doubled), literal_plus_restriction(doubled))
    # From d = 2 up numpy adds the four ancilla entries pairwise, as the
    # strided form does; at d = 1 (no arc space is that small) it adds them
    # in another order.
    rng = np.random.default_rng(34)
    for size in (4, 6, 48, 256):
        dense = rng.normal(size=(size, size))
        assert_bit_equal(restrict_to_plus_ancilla(dense), literal_plus_restriction(dense))


def test_evolution_k11_is_swap():
    evolution = build_evolution(K11, np.eye(2))
    assert np.array_equal(evolution, np.array([[0, 1], [1, 0]], dtype=np.complex128))


@pytest.mark.parametrize("inst", INSTANCES)
def test_evolution_is_unitary(inst):
    evolution = build_evolution(inst, build_oracle(inst))
    assert unitarity_defect(evolution) < 1e-12


def test_evolution_rejects_wrong_oracle_shape():
    with pytest.raises(ValueError):
        build_evolution(FIG2, np.eye(10))


def test_uniform_state_values():
    assert np.array_equal(uniform_state(K11), np.full(2, 1 / math.sqrt(2), dtype=np.complex128))
    state = uniform_state(FIG2)
    assert state.shape == (24,)
    assert np.abs(state - 1 / math.sqrt(24)).max() == 0.0


@pytest.mark.parametrize("inst", INSTANCES + random_instances(5, 6, seed=11))
def test_uniform_state_is_unit_norm(inst):
    assert abs(np.linalg.norm(uniform_state(inst)) - 1.0) < 1e-15


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda i: f"K{i.n0}{i.n1}_{i.k0}{i.k1}")
def test_builders_return_float64(inst):
    # Every entry is real, so every operator and the start state are real arrays.
    arrays = {"shift": build_shift(inst), "coin": build_coin(inst), "oracle": build_oracle(inst),
              "evolution": build_evolution(inst, build_oracle(inst)),
              "uniform_state": uniform_state(inst)}
    for j in (0, 1):
        arrays[f"part_oracle_{j}"] = build_part_oracle(inst, j)
        arrays[f"ancilla_oracle_{j}"] = build_ancilla_oracle(inst, j)
        arrays[f"restricted_{j}"] = restrict_to_plus_ancilla(arrays[f"ancilla_oracle_{j}"])
    assert {name: a.dtype for name, a in arrays.items()} == dict.fromkeys(arrays, np.float64)


def test_evolution_rejects_oracle_that_is_not_real_diagonal():
    # The override is read as its diagonal, as the verify suite reads it.
    off_diagonal = build_oracle(FIG2)
    off_diagonal[0, 1] = 1.0
    for oracle in (off_diagonal, build_oracle(FIG2) * np.exp(0.25j),
                   build_oracle(FIG2).astype(np.complex128)):
        with pytest.raises(ValueError, match="oracle override must be a real diagonal matrix"):
            build_evolution(FIG2, oracle)


# Every public arc-space builder, and what builds on one.
ARC_SPACE_BUILDERS = {
    "build_shift": build_shift,
    "build_coin": build_coin,
    "build_oracle": build_oracle,
    "build_part_oracle": lambda inst: build_part_oracle(inst, 0),
    "build_ancilla_oracle": lambda inst: build_ancilla_oracle(inst, 1),
    "build_evolution": build_evolution,
    "uniform_state": uniform_state,
    "invariant_basis": invariant_basis,
    "verify_suite": lambda inst: verify_suite(inst, 2),
}
OVERSIZE = [(1, MAX_FULL_SPACE_EDGES + 1), (1000, 1000)]


def guard_message(n0, n1):
    return f"arc space limited to {MAX_FULL_SPACE_EDGES} edges, got {n0 * n1}"


@pytest.mark.parametrize("name", list(ARC_SPACE_BUILDERS))
def test_arc_space_guard_refuses_before_allocating(name):
    build = ARC_SPACE_BUILDERS[name]
    assert MAX_FULL_SPACE_EDGES == 64
    build(BipartiteInstance.from_counts(8, 8, 3, 5))
    for n0, n1 in OVERSIZE:
        inst = BipartiteInstance.from_counts(n0, n1, 1, 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"^{guard_message(n0, n1)}$"):
                build(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, (n0, n1, peak)


CLI_ARC_SPACE_COMMANDS = {
    "verify": ["verify", "--p", "2"],
    "verify_corrupt_oracle": ["verify", "--p", "2", "--corrupt-oracle"],
    "distribution_circuit": ["distribution", "--p", "2", "--engine", "circuit"],
}


@pytest.mark.parametrize("name", list(CLI_ARC_SPACE_COMMANDS))
def test_cli_arc_space_guard_exits_1(capsys, name):
    def run(n0, n1):
        argv = [*CLI_ARC_SPACE_COMMANDS[name], "--n0", str(n0), "--n1", str(n1), "--k0", "1",
                "--k1", "1"]
        return main(argv), capsys.readouterr().err

    status, err = run(8, 8)
    assert status in (0, 2) and err == ""
    for n0, n1 in OVERSIZE:
        assert run(n0, n1) == (1, f"error: {guard_message(n0, n1)}\n")
