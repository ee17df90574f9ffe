"""Exception hierarchy for latefuse.

Every failure the library raises on purpose derives from LateFuseError so
callers can catch one base type. Data-shaped problems (bad files, misaligned
views, unknown labels) and configuration problems (bad hyperparameters, bad
fold counts) are separate branches because the CLI maps them to different
exit codes.
"""


class LateFuseError(Exception):
    """Base class for all latefuse errors."""


class DataError(LateFuseError):
    """A dataset, file, or model artifact is unusable."""


class ConfigError(LateFuseError):
    """A run configuration or hyperparameter setting is invalid."""


# --- dataset validation ---------------------------------------------------

class MisalignedGroup(DataError):
    """Files or feature groups disagree on their rows or sample ids."""


class NonFiniteFeature(DataError):
    """A feature value is NaN or infinite; message names group/row/col."""


class UnknownLabel(DataError):
    """A label does not belong to the label space."""


class EmptyClass(DataError):
    """A class in the label space has no samples."""


class InsufficientClassPopulation(DataError):
    """A class is too small for the requested split."""


class DimensionMismatch(DataError):
    """Input width does not match what a fitted object expects."""


class InvalidProbabilities(DataError, ValueError):
    """A confidence vector, such as a model's output, has a non-finite or
    negative entry or does not sum to 1. Also a ValueError."""


# --- specifications -------------------------------------------------------

class BadSpec(ConfigError, ValueError):
    """A field of a classifier, synthetic-data or split specification, or a
    training argument, is invalid; the message starts with the field's name.
    Also a ValueError, so a caller that reads outside values can catch both."""


# --- training -------------------------------------------------------------

class SingleClassData(DataError):
    """Training data contains fewer than two classes."""


class TooFewSamplesPerClass(DataError):
    """A class has fewer samples than the requested fold count."""


class BadK(BadSpec):
    """Fold count must be an integer >= 2."""


# --- ensemble -------------------------------------------------------------

class EmptyEnsemble(DataError):
    """No classifier outputs were given to combine."""


class AllZeroPriorities(DataError):
    """Weighted combination requested but every group priority is zero."""


class GroupSchemaMismatch(DataError):
    """Prediction data does not match the group schema the model was trained on."""


class UnknownGroupName(ConfigError):
    """A subset plan names a group the dataset does not have."""


# --- evaluation -----------------------------------------------------------

class LengthMismatch(DataError):
    """Predictions and ground truth have different lengths."""


# --- persistence ----------------------------------------------------------

class IoFailure(DataError):
    """Reading or writing a model file failed."""


class VersionMismatch(DataError):
    """Model file format version is not supported."""


class CorruptModel(DataError):
    """Model file is truncated, fails its checksum, or holds unusable values."""

