"""Competing-risks survival analysis built around restricted mean time
lost (RMTL): nonparametric estimation, two-group inference, sample-size
planning, and a reproducible simulation engine."""

from .data import (
    EVENT_CENSORED,
    EVENT_COMPETING,
    EVENT_INTEREST,
    GROUP_CONTROL,
    GROUP_TREATMENT,
    EventTable,
    GroupSample,
    TwoGroupSample,
    build_event_table,
    ingest_csv,
    select_tau,
)
from .design import DesignInput, DesignResult, estimate_sigma_sq, power_at, sample_size
from .errors import (
    DegeneratePilotError,
    DegenerateTestError,
    ExtrapolationError,
    InfeasibleDesignError,
    InputError,
    RowError,
    SampleSizeError,
    SchemaError,
    SimulationError,
)
from .estimators import CifPair, cif_pair, curve_rows
from .inference import (
    GrayResult,
    RmtlEstimate,
    RmtldResult,
    gray_test,
    rmtl,
    rmtld_test,
    variance_rmtl,
)
from .scenarios import (
    ScenarioSpec,
    calibrate_censoring,
    generate_group,
    scenario,
    true_rmtld,
)
from .simulate import (
    SimulationReport,
    run_estimation_study,
    run_power_study,
    run_samplesize_validation,
)
from .stepfun import integrate_step

__version__ = "0.1.0"

__all__ = [
    "EVENT_CENSORED",
    "EVENT_INTEREST",
    "EVENT_COMPETING",
    "GROUP_CONTROL",
    "GROUP_TREATMENT",
    "GroupSample",
    "TwoGroupSample",
    "EventTable",
    "build_event_table",
    "select_tau",
    "ingest_csv",
    "integrate_step",
    "cif_pair",
    "CifPair",
    "curve_rows",
    "RmtlEstimate",
    "RmtldResult",
    "GrayResult",
    "rmtl",
    "variance_rmtl",
    "rmtld_test",
    "gray_test",
    "DesignInput",
    "DesignResult",
    "sample_size",
    "estimate_sigma_sq",
    "power_at",
    "ScenarioSpec",
    "scenario",
    "generate_group",
    "calibrate_censoring",
    "true_rmtld",
    "SimulationReport",
    "run_estimation_study",
    "run_power_study",
    "run_samplesize_validation",
    "InputError",
    "SchemaError",
    "RowError",
    "SampleSizeError",
    "DegenerateTestError",
    "DegeneratePilotError",
    "InfeasibleDesignError",
    "ExtrapolationError",
    "SimulationError",
]
