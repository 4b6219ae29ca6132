"""Scenario fixtures reproduce their expected blocks through the engines."""

import numpy as np
import pytest

from stochorder import (
    InvalidEpsilon,
    Outcome,
    SeededStream,
    compare_cp_l1,
    compare_sp,
    make_marginal,
    product_joint,
    sample_example4,
)
from stochorder.scenarios import (
    DICE_FACES,
    REPRODUCTIONS,
    BandTriangleScenario,
    CheckResult,
    TRANSFORM_TABLE,
    enumerate_p_first_less,
    example1,
    example2,
    example4_spec,
    intransitive_demo,
    transform_counterexample,
    verify_dice,
    verify_example4,
    verify_fixture,
)


class TestGamblingFixtures:
    def test_example1_joint_is_the_stated_table(self):
        assert example1().joint.atoms == ((0.0, 999.0, 0.4), (1000.0, 999.0, 0.6))

    def test_example2_joint_is_the_stated_table(self):
        assert example2().joint.atoms == ((0.0, 999.0, 0.1), (1100.0, 999.0, 0.9))

    @pytest.mark.parametrize("fixture", [example1, example2, transform_counterexample])
    def test_all_checks_pass(self, fixture):
        checks = verify_fixture(fixture())
        assert checks, "fixture must carry checks"
        failed = [c for c in checks if c.asserted and not c.passed]
        assert failed == []

    def test_expected_values_carry_provenance(self):
        for fixture in (example1(), example2(), transform_counterexample()):
            assert all(q.source in ("reference", "arithmetic") for q in fixture.quantities)


class TestTransformCounterexample:
    def test_verdict_flips(self):
        assert compare_cp_l1(example1().joint).outcome is Outcome.FIRST_PRECEDES
        assert compare_cp_l1(transform_counterexample().joint).outcome is Outcome.SECOND_PRECEDES

    def test_identity_relabeling_keeps_verdict(self):
        from stochorder import apply_transform

        j = apply_transform(example1().joint, lambda t: t)
        assert compare_cp_l1(j).outcome is Outcome.FIRST_PRECEDES

    def test_table_is_nondecreasing(self):
        keys = sorted(TRANSFORM_TABLE)
        values = [TRANSFORM_TABLE[k] for k in keys]
        assert values == sorted(values)


class TestBandTriangleOracle:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9])
    def test_oracle_p_equals_eps(self, eps):
        # the oracle's triangle mass, b * eps^2 / 2 with b from the sampler's
        # densities, against the stated value: density 2/eps on area eps^2/2
        assert example4_spec(eps).oracle_p_x_leq_y() == pytest.approx(eps, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_oracle_masses_sum_to_one(self, eps):
        band, triangle = example4_spec(eps).oracle_region_masses()
        assert band + triangle == pytest.approx(1.0, abs=1e-12)

    def test_reference_quadratic_differs_from_oracle(self):
        scn = example4_spec(0.5)
        assert scn.reference_p_x_leq_y == 0.125
        assert scn.oracle_p_x_leq_y() == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_cdf_routes_agree(self, eps):
        # closed-form cdfs, integrated over the two regions, vs trapezoid
        # integration of the interval-length marginal densities
        scn = example4_spec(eps)
        ts = np.linspace(0.01, 0.99, 25)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 4001)
        fx = scn.marginal_density_x(grid)
        fy = scn.marginal_density_y(grid)
        for cdf_oracle, f in ((scn.oracle_cdf_x, fx), (scn.oracle_cdf_y, fy)):
            for t in ts:
                node = int(np.searchsorted(grid, t))
                quad = float(np.sum(0.5 * (f[1 : node + 1] + f[:node]) * np.diff(grid[: node + 1])))
                assert cdf_oracle(t)[0] == pytest.approx(quad, abs=5e-4)

    def test_cdf_endpoints(self):
        scn = example4_spec(0.3)
        assert scn.oracle_cdf_x(1.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert scn.oracle_cdf_y(1.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert scn.oracle_cdf_x(0.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_small_eps_means_small_p(self):
        assert example4_spec(0.05).oracle_p_x_leq_y() == pytest.approx(0.05, abs=1e-12)

    def test_invalid_eps(self):
        with pytest.raises(InvalidEpsilon):
            example4_spec(0.0)
        with pytest.raises(InvalidEpsilon):
            example4_spec(1.0)


class TestVerifyExample4:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
    def test_all_asserted_checks_pass(self, eps):
        checks = verify_example4(example4_spec(eps), n=100_000, stream=SeededStream(13))
        failed = [c for c in checks if c.asserted and not c.passed]
        assert failed == []

    def test_reference_row_is_informational(self):
        checks = verify_example4(example4_spec(0.3), n=20_000, stream=SeededStream(1))
        ref = [c for c in checks if c.name == "p_x_leq_y_reference_quadratic"]
        assert len(ref) == 1 and not ref[0].asserted

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
    def test_small_samples_pass_for_every_seed(self, eps):
        # the Monte Carlo bound is five binomial standard errors at this n
        for seed in range(10):
            checks = verify_example4(example4_spec(eps), n=1000, stream=SeededStream(seed))
            assert [c.name for c in checks if c.asserted and not c.passed] == []

    def test_biased_sampler_fails_at_the_default_size(self):
        class Biased(BandTriangleScenario):
            def sample(self, n, stream):
                return sample_example4(0.48, n, stream)

        scn = example4_spec(0.5)
        biased = Biased(scn.eps, scn.band_density, scn.triangle_density, scn.reference_p_x_leq_y)
        failed = [c.name for c in verify_example4(biased) if not c.passed]
        assert "p_x_leq_y_mc_vs_oracle" in failed


class TestReproductions:
    def test_registry_lists_every_scenario_in_report_order(self):
        assert list(REPRODUCTIONS) == ["example1", "example2", "transform", "example4", "dice"]

    @pytest.mark.parametrize("name", list(REPRODUCTIONS))
    def test_every_entry_returns_check_results(self, name):
        checks = REPRODUCTIONS[name](0.5, 20_000, 0)
        assert checks and all(isinstance(c, CheckResult) for c in checks)

    def test_only_the_quadratic_reference_row_has_a_note(self):
        noted = {
            f"{name}.{c.name}": c.note
            for name, run in REPRODUCTIONS.items()
            for c in run(0.5, 20_000, 0)
            if c.note
        }
        assert list(noted) == ["example4.p_x_leq_y_reference_quadratic"]
        assert "eps^2/2" in noted["example4.p_x_leq_y_reference_quadratic"]


class TestIntransitiveDice:
    def test_cycle_checks_pass(self):
        checks = verify_dice(intransitive_demo())
        assert all(c.passed for c in checks)

    def test_enumeration_oracle(self):
        # each oriented pair loses with probability exactly 20/36
        for a, b in (("B", "A"), ("C", "B"), ("A", "C")):
            assert enumerate_p_first_less(DICE_FACES[a], DICE_FACES[b]) == 20 / 36

    def test_die_against_independent_copy_is_equal(self):
        for faces in DICE_FACES.values():
            m = make_marginal((float(v), 1.0 / 6.0) for v in faces)
            assert compare_sp(product_joint(m, m)).outcome is Outcome.EQUAL

    def test_verdicts_form_a_cycle(self):
        demo = intransitive_demo()
        order = {(p.first, p.second) for p in demo.pairs}
        assert order == {("B", "A"), ("C", "B"), ("A", "C")}
        for pair in demo.pairs:
            assert compare_sp(pair.joint).outcome is Outcome.FIRST_PRECEDES
