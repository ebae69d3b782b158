import hashlib
import logging
import tracemalloc

import numpy as np
import pytest

from ctxdep import (
    GATE_IDLE,
    GATE_X_HALF,
    GATE_X_MINUS_HALF,
    GATE_X_PI,
    ProbabilityTable,
    SequenceFamily,
    build_model,
    cyclic_family,
    experiment,
    family_tables,
    log_abs_det,
    permutation_family,
    prob_table,
    random_permutation_family,
    read_table_csv,
    repetition_family,
    sample_table,
    sequence_ptm,
    write_table_csv,
)
from ctxdep.config import parse_config
from ctxdep.experiment import resample_cells, substream, table_from_ptm

from .conftest import GAMMA_SUM, T_GATE, make_params, seq


class TestProbTable:
    def test_empty_sequence_is_reference(self, baseline_model):
        table = prob_table(seq("ref"), baseline_model)
        np.testing.assert_allclose(
            table.entries, baseline_model.spam_out @ baseline_model.spam_in.T
        )
        assert table.is_exact

    def test_ideal_bit_flip(self):
        params = make_params(
            gamma1=0.0, gamma3=0.0, gamma_phi=0.0, coupling=0.0, p_ground=1.0, eta=1.0
        )
        model = build_model(params)
        table = prob_table(seq("x", GATE_X_PI), model)
        # prepare |0>, flip, measure |1><1|
        assert table.entries[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_idle_logdet_linear_in_length(self, baseline_model):
        l_values = [
            log_abs_det(prob_table(seq(f"idle{m}", *([GATE_IDLE] * m)), baseline_model).entries)
            for m in (0, 100, 200)
        ]
        step = -100 * 2.0 * T_GATE * GAMMA_SUM
        assert l_values[1] - l_values[0] == pytest.approx(step, rel=1e-9)
        assert l_values[2] - l_values[1] == pytest.approx(step, rel=1e-9)

    def test_concatenation_matches_ptm_product(self, baseline_model):
        s1 = seq("a", GATE_X_PI, GATE_IDLE)
        s2 = seq("b", GATE_X_MINUS_HALF)
        joined = seq("ab", *(s1.gates + s2.gates))
        product = sequence_ptm(s2, baseline_model) @ sequence_ptm(s1, baseline_model)
        np.testing.assert_allclose(
            prob_table(joined, baseline_model).entries,
            table_from_ptm(product, baseline_model, "ab").entries,
            atol=1e-12,
        )

    def test_entries_physical(self):
        rng = np.random.default_rng(19)
        for trial in range(5):
            params = make_params(
                gamma1=rng.uniform(0, 5e4),
                gamma3=rng.uniform(0, 5e3),
                gamma_phi=rng.uniform(0, 2e4),
                coupling=rng.uniform(-3e6, 3e6),
                p_ground=rng.uniform(0, 1),
                eta=rng.uniform(0.1, 1.0),
            )
            model = build_model(params)
            gates = tuple(
                rng.choice([GATE_IDLE, GATE_X_PI, GATE_X_HALF]) for _ in range(20)
            )
            table = prob_table(seq(f"t{trial}", *gates), model)
            assert table.entries.min() > -1e-12
            assert table.entries.max() < 1 + 1e-12


class TestSampleTable:
    def _table(self, entries, label="t"):
        return ProbabilityTable(entries=np.asarray(entries, float), shots=None, label=label)

    def test_degenerate_cells(self):
        table = self._table([[0.0, 1.0], [1.0, 0.0]])
        sampled = sample_table(table, shots=1000, seed=1)
        np.testing.assert_allclose(sampled.entries, table.entries)
        assert sampled.shots == 1000

    def test_binomial_concentration(self):
        table = self._table([[0.5]])
        sampled = sample_table(table, shots=10**6, seed=2)
        assert abs(sampled.entries[0, 0] - 0.5) < 5.0 * np.sqrt(0.25 / 10**6)

    def test_deterministic_and_order_independent(self, baseline_model):
        table = prob_table(seq("det", GATE_X_PI, GATE_IDLE), baseline_model)
        a = sample_table(table, shots=1000, seed=99)
        b = sample_table(table, shots=1000, seed=99)
        assert np.array_equal(a.entries, b.entries)
        # a different label gives an independent stream
        other = sample_table(
            ProbabilityTable(table.entries, None, "det2"), shots=1000, seed=99
        )
        assert not np.array_equal(a.entries, other.entries)

    def test_entries_are_frequency_multiples(self, baseline_model):
        table = prob_table(seq("mult", GATE_X_PI), baseline_model)
        sampled = sample_table(table, shots=640, seed=3)
        np.testing.assert_allclose(
            np.round(sampled.entries * 640), sampled.entries * 640, atol=1e-9
        )

    def test_convergence_to_exact(self, baseline_model):
        table = prob_table(seq("conv", GATE_X_PI, GATE_IDLE), baseline_model)
        shots = 10**8
        mean = np.zeros_like(table.entries)
        n_seeds = 10
        for s in range(n_seeds):
            mean += sample_table(table, shots=shots, seed=s).entries
        mean /= n_seeds
        sigma = np.sqrt(table.entries * (1 - table.entries) / (shots * n_seeds))
        assert np.all(np.abs(mean - table.entries) < 3.0 * sigma + 1e-12)

    def test_rejects_sampled_input(self, baseline_model):
        table = prob_table(seq("s", GATE_X_PI), baseline_model)
        sampled = sample_table(table, shots=10, seed=0)
        with pytest.raises(ValueError):
            sample_table(sampled, shots=10, seed=0)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            sample_table(self._table([[1.5]]), shots=10, seed=0)


class TestSamplingContract:
    """One substream per table: order-independent, tag-separated draws."""

    SHOTS = 500

    @pytest.fixture(scope="class")
    def tables(self, baseline_model):
        base = seq("base", GATE_X_PI, GATE_IDLE, GATE_X_HALF)
        return family_tables(cyclic_family(base), baseline_model)

    def _draw(self, tables, order):
        out = {}
        for j in order:
            sampled = sample_table(tables[j], self.SHOTS, seed=11)
            out[sampled.label] = (sampled.entries, resample_cells(sampled, 40, seed=11))
        return out

    def test_draws_do_not_depend_on_order(self, tables):
        forward = self._draw(tables, [0, 1, 2])
        for order in ([2, 1, 0], [1], [2, 0, 1]):
            for label, (entries, boots) in self._draw(tables, order).items():
                assert np.array_equal(entries, forward[label][0])
                assert np.array_equal(boots, forward[label][1])

    def test_table_is_one_draw_from_its_substream(self, tables):
        sampled = sample_table(tables[0], self.SHOTS, seed=11)
        gen = substream(11, "cell", tables[0].label)
        expected = gen.binomial(self.SHOTS, np.clip(tables[0].entries, 0.0, 1.0)) / self.SHOTS
        assert np.array_equal(sampled.entries, expected)

    def test_streams_are_pinned(self):
        # literal draws: a change to how substream keys are derived (hash,
        # payload, byte order) or to the draw order of the cells shows here
        table = ProbabilityTable(np.array([[0.1, 0.25], [0.5, 0.9]]), None, "pin")
        sampled = sample_table(table, 1000, seed=2017)
        assert sampled.entries.tolist() == [[0.096, 0.247], [0.488, 0.906]]
        boots = resample_cells(sampled, 50, seed=2017)
        assert boots[0].tolist() == [[0.102, 0.243], [0.507, 0.897]]
        assert hashlib.sha256(boots.tobytes()).hexdigest() == (
            "abc72ceb08aa97675b02d21c0bc24d9052d2ad7ae5eeafbfb8461ab1457dd024"
        )

    def test_tags_and_labels_give_different_draws(self, tables):
        sampled = sample_table(tables[0], self.SHOTS, seed=11)
        boot = resample_cells(sampled, 40, seed=11)
        assert not np.array_equal(boot, resample_cells(sampled, 40, seed=11, tag="ci"))
        relabeled = ProbabilityTable(sampled.entries, self.SHOTS, "other")
        assert not np.array_equal(boot, resample_cells(relabeled, 40, seed=11))

    def test_resamples_are_frequency_multiples(self, tables):
        sampled = sample_table(tables[1], self.SHOTS, seed=11)
        counts = resample_cells(sampled, 40, seed=11) * self.SHOTS
        np.testing.assert_allclose(np.round(counts), counts, atol=1e-9)

    def test_one_substream_per_call(self, tables, monkeypatch):
        calls = []
        original = experiment.substream

        def counting(seed, *tags):
            calls.append(tags)
            return original(seed, *tags)

        monkeypatch.setattr(experiment, "substream", counting)
        sampled = sample_table(tables[0], self.SHOTS, seed=11)
        assert len(calls) == 1
        resample_cells(sampled, 40, seed=11)
        assert len(calls) == 2


class TestFamilies:
    def test_permutation_minimal(self):
        family = permutation_family(GATE_IDLE, GATE_X_PI, 1)
        assert [s.gates for s in family.members] == [
            (GATE_IDLE, GATE_X_PI),
            (GATE_X_PI, GATE_IDLE),
        ]

    def test_permutation_full_scale_shape(self):
        family = permutation_family(GATE_IDLE, GATE_X_PI, 250)
        assert len(family.members) == 251
        assert family.members[0].gates == (GATE_IDLE,) * 250 + (GATE_X_PI,) * 250
        assert family.members[-1].gates == (GATE_X_PI, GATE_IDLE) * 250
        for member in family.members:
            assert len(member.gates) == 500
            assert member.gates.count(GATE_IDLE) == 250
            assert member.gates.count(GATE_X_PI) == 250

    def test_random_permutations_preserve_multiset(self):
        family = random_permutation_family(GATE_IDLE, GATE_X_PI, 10, count=5, seed=7)
        assert len(family.members) == 5
        for member in family.members:
            assert member.gates.count(GATE_IDLE) == 10
            assert member.gates.count(GATE_X_PI) == 10
        # deterministic under the seed
        again = random_permutation_family(GATE_IDLE, GATE_X_PI, 10, count=5, seed=7)
        assert [m.gates for m in family.members] == [m.gates for m in again.members]

    def test_cyclic_singleton(self):
        family = cyclic_family(seq("a", GATE_X_PI))
        assert len(family.members) == 1

    def test_cyclic_rotations(self):
        a, b, c = GATE_IDLE, GATE_X_PI, GATE_X_HALF
        family = cyclic_family(seq("abc", a, b, c))
        assert [m.gates for m in family.members] == [(a, b, c), (c, a, b), (b, c, a)]

    def test_cyclic_full_scale_shape(self):
        base = seq("x_i500", GATE_X_PI, *([GATE_IDLE] * 500))
        family = cyclic_family(base)
        assert len(family.members) == 501
        member2 = family.members[1].gates
        assert member2[0] == GATE_IDLE
        assert member2[1] == GATE_X_PI
        assert member2[2:] == (GATE_IDLE,) * 499

    def test_repetition_empty_block_count(self):
        family = repetition_family([GATE_X_PI], [0])
        assert family.members[0].gates == ()

    def test_repetition_inverse_pair(self):
        family = repetition_family([GATE_X_MINUS_HALF, GATE_X_HALF], [0, 1, 2])
        assert family.m_values == (0, 1, 2)
        assert len(family.members[2].gates) == 4
        params = make_params(gamma1=0, gamma3=0, gamma_phi=0, coupling=0.0)
        model = build_model(params)
        np.testing.assert_allclose(
            sequence_ptm(family.members[2], model), np.eye(16), atol=1e-10
        )

    def test_families_built_alike_are_equal(self):
        # the attached product is not part of a family's value
        base = seq("abc", GATE_IDLE, GATE_X_PI, GATE_X_HALF)
        for build in (
            lambda: permutation_family(GATE_IDLE, GATE_X_PI, 3),
            lambda: cyclic_family(base),
            lambda: repetition_family([GATE_X_PI], [0, 2, 5]),
        ):
            first, second = build(), build()
            assert first.product is not None
            assert first == second
            assert hash(first) == hash(second)

    def test_repetition_requires_increasing_m(self):
        with pytest.raises(ValueError):
            repetition_family([GATE_X_PI], [0, 5, 5])


class TestMembersBuiltWhenRead:
    """The constructors keep labels and build a member's gates when it is read."""

    CYCLIC_BASE = seq("x_i500", GATE_X_PI, *([GATE_IDLE] * 500))

    @staticmethod
    def _peak_bytes(build):
        tracemalloc.start()
        try:
            family = build()
            return tracemalloc.get_traced_memory()[1], family
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("build", [
        lambda: cyclic_family(TestMembersBuiltWhenRead.CYCLIC_BASE),
        lambda: permutation_family(GATE_IDLE, GATE_X_PI, 250),
    ], ids=["cyclic-501", "permutation-250"])
    def test_full_scale_family_allocates_little(self, build):
        # a tuple of every member's gates takes 2.1 MB (cyclic) and 1.06 MB (permutation)
        peak, family = self._peak_bytes(build)
        assert peak < 200_000
        assert family.labels == tuple(m.label for m in family.members)

    def test_members_follow_the_constructor_formulas(self):
        a, b, n = GATE_IDLE, GATE_X_PI, 4
        perm = permutation_family(a, b, n)
        expected = [(a,) * (n - j) + (b,) * (n - j) + (b, a) * j for j in range(n + 1)]
        base = self.CYCLIC_BASE.gates
        rot = cyclic_family(self.CYCLIC_BASE)
        rotations = [base[len(base) - j :] + base[: len(base) - j] for j in range(len(base))]
        block = (GATE_X_HALF, GATE_IDLE)
        rep = repetition_family(block, [0, 3, 7])
        repeated = [(), block * 3, block * 7]
        for family, gates in ((perm, expected), (rot, rotations), (rep, repeated)):
            assert [m.gates for m in family.members] == gates
            assert family.members[-1] == family.members[len(gates) - 1]
            assert family.members[-len(gates)].gates == gates[0]
            with pytest.raises(IndexError):
                family.members[len(gates)]
        assert perm.members[-1].label == f"perm{n + 1:03d}"
        assert rot.members[-1].label == "rot500"

    def test_equal_to_the_same_members_in_a_tuple(self):
        family = cyclic_family(seq("abc", GATE_IDLE, GATE_X_PI, GATE_X_HALF))
        members = tuple(family.members)
        assert family.members == members and members == family.members
        assert hash(family.members) == hash(members)
        hand_built = SequenceFamily(members=members, kind="cyclic",
                                    description=family.description)
        assert hand_built == family and hash(hand_built) == hash(family)
        assert hand_built.product is None  # so family_tables goes member by member


class TestCsvRoundTrip:
    def test_exact_table(self, baseline_model, tmp_path):
        table = prob_table(seq("round", GATE_X_PI, GATE_IDLE), baseline_model)
        path = tmp_path / "table.csv"
        write_table_csv(table, path)
        back = read_table_csv(path)
        assert back.label == table.label
        assert back.shots is None
        assert np.array_equal(back.entries, table.entries)  # bit-exact

    def test_sampled_table(self, baseline_model, tmp_path):
        exact = prob_table(seq("round2", GATE_X_PI), baseline_model)
        for shots in (12345, 1):  # at 1 shot every entry is 0.0 or 1.0
            table = sample_table(exact, shots=shots, seed=8)
            path = tmp_path / f"table{shots}.csv"
            write_table_csv(table, path)
            back = read_table_csv(path)
            assert back.label == table.label
            assert back.shots == shots
            assert np.array_equal(back.entries, table.entries)


def _preset_cases():
    cases = []
    for scenario in ("fig2a", "fig2b", "fig3a", "fig3b"):
        families = parse_config(f"scenario = {scenario}").families()
        for j, family in enumerate(families):
            name = scenario if len(families) == 1 else f"{scenario}-block{j}"
            cases.append(pytest.param(family, family.kind, id=name))
    return cases


def _not_rotations():
    members = (
        seq("a", GATE_X_PI, GATE_IDLE, GATE_IDLE),
        seq("b", GATE_IDLE, GATE_X_PI, GATE_X_PI),
        seq("c", GATE_X_PI, GATE_X_PI, GATE_IDLE),
    )
    return SequenceFamily(members=members, kind="cyclic", description="not rotations")


def _hand_built_rotations():
    # the members follow cyclic_family's layout, but only a constructor
    # attaches a structured product, so these go member by member
    rotations = cyclic_family(seq("base", GATE_X_PI, GATE_IDLE, GATE_X_HALF, GATE_IDLE))
    return SequenceFamily(
        members=rotations.members, kind="cyclic", description="hand-built rotations"
    )


FAMILY_CASES = _preset_cases() + [
    pytest.param(
        repetition_family([GATE_X_HALF, GATE_IDLE], [3, 4, 9, 17]),
        "repetition",
        id="repetition-uneven-steps",
    ),
    pytest.param(
        random_permutation_family(GATE_IDLE, GATE_X_PI, 10, count=6, seed=3),
        None,
        id="fallback-random-permutation",
    ),
    pytest.param(_not_rotations(), None, id="fallback-cyclic-not-rotations"),
    pytest.param(_hand_built_rotations(), None, id="fallback-hand-built-rotations"),
]


@pytest.fixture(scope="module")
def coupled_model():
    return build_model(make_params(phi=0.005))


@pytest.mark.parametrize("family,layout", FAMILY_CASES)
def test_family_tables_match_per_member_oracle(
    family, layout, coupled_model, monkeypatch, caplog
):
    """Family-shaped products agree with per-member ``prob_table``.

    Families with a constructor's structured product must not call
    ``sequence_ptm`` at all; any other family is evaluated member by
    member.  Either way one debug line names the path taken.
    """
    calls = []
    oracle_ptm = experiment.sequence_ptm

    def counting(sequence, model):
        calls.append(sequence.label)
        return oracle_ptm(sequence, model)

    monkeypatch.setattr(experiment, "sequence_ptm", counting)
    with caplog.at_level(logging.DEBUG, logger="ctxdep.experiment"):
        tables = family_tables(family, coupled_model)
    assert len(calls) == (0 if layout else len(family.members))
    [record] = caplog.records
    assert (f"{layout}-shaped" if layout else "per-member sequence_ptm") in record.getMessage()

    assert [t.label for t in tables] == [m.label for m in family.members]
    for table, member in zip(tables, family.members):
        oracle = prob_table(member, coupled_model)
        assert table.is_exact
        np.testing.assert_allclose(table.entries, oracle.entries, rtol=0, atol=1e-12)
        assert log_abs_det(table.entries) == pytest.approx(
            log_abs_det(oracle.entries), abs=1e-12
        )
