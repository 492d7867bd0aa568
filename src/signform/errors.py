"""Exception hierarchy shared across the package."""


class SignformError(Exception):
    """Base class for all errors raised by this package."""


# --- lexicon ---------------------------------------------------------------

class EmptyFormError(SignformError):
    """A word form was empty after normalization."""


class LeadingMarkError(SignformError):
    """An IPA string began with a combining mark or modifier."""


class WhitespaceInFormError(SignformError):
    """A word form contained whitespace (phones may not)."""


class SchemaError(SignformError):
    """An input table or config lacks a required column or repeats a key."""


class EmptyLexiconError(SignformError):
    """No usable rows survived parsing."""


class DimensionMismatchError(SignformError):
    """Vector dimensions disagreed (embeddings, PCA inputs, conditioning)."""


class EmbeddingFormatError(SignformError):
    """A word-vector text file was malformed."""


class TooManyFoldsError(SignformError):
    """Requested more folds than there are signs."""


# --- phonolm ---------------------------------------------------------------

class UnknownPhoneError(SignformError):
    """A form contained a phone missing from the model's inventory."""


class UnknownClassError(SignformError):
    """A POS label missing from the model's class set."""


class OddHiddenSplitError(SignformError):
    """hidden_size must be even to concatenate two half-size conditioners."""


class TrainingDivergedError(SignformError):
    """Training produced a non-finite loss; carries diagnostics."""

    def __init__(self, message, epoch=None, batch=None, loss=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.loss = loss


class ArchiveFormatError(SignformError):
    """A model archive file could not be understood."""


# --- infotheory / stats ----------------------------------------------------

class SignSetMismatchError(SignformError):
    """Two per-word loss tables do not cover the same signs."""


class ZeroVarianceError(SignformError):
    """An effect size was requested for constant data."""


class DegenerateRanksError(SignformError):
    """Rank correlation is undefined for a constant coordinate."""


# --- hyperopt --------------------------------------------------------------

class SingularKernelError(SignformError):
    """GP kernel matrix stayed singular after jitter escalation."""


class AllTrialsDivergedError(SignformError):
    """Every hyperparameter trial diverged."""


# --- synthbench ------------------------------------------------------------

class InfeasibleSpecError(SignformError):
    """A synthetic spec fails its own consistency checks."""


class EnumerationBoundError(SignformError):
    """Exact enumeration would exceed the configured string budget."""
