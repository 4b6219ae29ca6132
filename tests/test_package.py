"""The package's public names."""

import stochorder

PUBLIC = """
ComparisonReport DecompositionReport EmptyComparisonRegion EmptyDistribution EstimateReport
EstimateWithCI EventProbs FiniteJointDistribution FiniteMarginal GridDensityPair InputFormatError
InvalidEpsilon NotNormalizable Outcome PairedSample PartialOrderReport SampleTooSmall SeededStream
StochOrderError SupportTooLarge UndefinedAtSupport ValidationError Verdict apply_transform
compare_all compare_cp_kstar compare_cp_l1 compare_hr compare_lr compare_mean compare_mrl
compare_sp compare_st estimate_orders event_probs example1 example2 example4_spec expectation
intransitive_demo kstar_decompose l1_decompose make_joint make_marginal marginal_x marginal_y
product_joint read_joint_json read_sample_csv sample_example4 sample_joint swap
transform_counterexample verify_dice verify_example4 verify_fixture write_joint_json
write_sample_csv
""".split()


def test_all_lists_the_public_names_sorted():
    assert stochorder.__all__ == PUBLIC


def test_star_import_takes_no_submodule():
    namespace: dict = {}
    exec("from stochorder import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
