"""Exception types shared across the package."""


class DivknnError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(DivknnError):
    """Malformed input data: bad CSV cell, inconsistent dimensions,
    empty group, duplicate group id, missing file."""


class ConfigError(DivknnError):
    """Invalid estimator or task parameters (including math-domain
    violations such as a correction factor outside its domain)."""


class InsufficientSampleError(DivknnError):
    """A sample is too small for the requested neighbor count."""


class DegenerateDistanceError(DivknnError):
    """A k-th nearest-neighbor distance of exactly zero, caused by
    duplicate points. Deduplicate the offending group (CLI: --dedup)."""


class NonFiniteEstimateError(DivknnError):
    """A divergence estimate came out infinite, NaN or underflowed to 0,
    typically because neighbor distances raised to the power d overflow
    or underflow float64. It is raised rather than clamped to a
    plausible value."""


class ContractError(DivknnError):
    """A caller broke an interface contract (asymmetric matrix where a
    symmetric one is required, mismatched lengths, missing labels)."""


class FlatAffinityError(DivknnError):
    """Spectral clustering got a degenerate affinity matrix."""


class UndefinedAUCError(DivknnError):
    """AUC requested for a truth vector with only one class."""


class IntegrationError(DivknnError):
    """A quadrature oracle detected a divergent or untrustworthy
    integral (e.g. probability mass outside the integrable region)."""
