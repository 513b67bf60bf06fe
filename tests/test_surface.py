"""The package's public names: the pinned list, and that each one resolves."""

import chipfire as cf

PUBLIC = [
    "AbelianReport",
    "CHECK_ORDER",
    "CheckResult",
    "ChipfireError",
    "Configuration",
    "Counterexample",
    "Disconnected",
    "EmptyGraph",
    "EventuallyPeriodic",
    "ExhaustiveResult",
    "GENERATOR_KINDS",
    "GameTrace",
    "Graph",
    "Infinite",
    "InvalidGraph",
    "NAMED_CHECKS",
    "Outcome",
    "ParseError",
    "ProbeResult",
    "ResourceExhausted",
    "RoundRecord",
    "SeqOutcome",
    "SizeMismatch",
    "SplitMix64",
    "Stabilized",
    "StopReason",
    "SuiteResult",
    "Terminated",
    "Unknown",
    "Unsatisfiable",
    "VerificationReport",
    "__version__",
    "check_abelian",
    "classify",
    "compositions_count",
    "derive_seed",
    "enumerate_configs",
    "exhaustive_verify",
    "generate",
    "keyed_u64",
    "move_log_csv",
    "parse_edge_list",
    "random_config",
    "random_instance_suite",
    "rank_composition",
    "run",
    "seq_run",
    "stabilization_threshold",
    "step",
    "suite_csv",
    "sweep_csv",
    "sweep_experiment",
    "threshold_probe",
    "trace_csv",
    "unrank_composition",
    "validate",
    "verify_battery",
    "verify_corpus",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 58
    assert sorted(cf.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in cf.__all__:
        assert hasattr(cf, name), name
