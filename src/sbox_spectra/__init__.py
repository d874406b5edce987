"""Exact DDT / FBCT / second-order zero differential spectra over F_{p^n},
with constructive root solvers and closed-form cross-checking."""

from .errors import (
    BadParametersError,
    EvenCharacteristicError,
    LeadingCoefficientZeroError,
    NoBuiltinModulusError,
    NotADivisorError,
    NotPrimeError,
    OddCharacteristicError,
    ReduciblePolynomialError,
    SpectraError,
    UnparsableElementError,
    UnparsableFieldSpecError,
    UnsupportedSizeError,
    WrongLengthError,
    ZeroLinearCoefficientError,
)
from .fields import Field, PowerFacts, make_field, parse_field_spec
from .solvers import (
    RootResult,
    affine_root_count,
    build_AL,
    solve_linearized_trinomial,
    solve_quadratic,
    sqrt_in_field,
)
from .spectra import (
    PowerMap,
    PropertyReport,
    SpectrumSummary,
    SpectrumTable,
    TableMap,
    ddt_entry,
    ddt_row_power,
    ddt_table,
    differential_uniformity,
    fbct_property_check,
    image_table,
    sozd_entry,
    sozd_row_power,
    sozd_table,
    sozd_uniformity,
    write_table_csv,
)
from .closed_forms import (
    DualPrediction,
    Prediction,
    RegistryCase,
    RegistryReport,
    VerificationReport,
    predict_ddt_x4_f3n,
    predict_fbct_2m3,
    predict_fbct_2m5,
    predict_sozd_pk1,
    registry_cases,
    verify_ddt_x4,
    verify_fbct_2m3,
    verify_fbct_2m5,
    verify_registry,
    verify_sozd_pk1,
    verify_theorem,
)

__version__ = "0.1.0"
