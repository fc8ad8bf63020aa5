"""Exception types shared across the package.

Every error carries a human-readable message and, where it makes sense,
a `witness` attribute holding the offending elements so that callers
(and the CLI) can report exactly which law failed.
"""


class PolabError(Exception):
    """Base class for all package errors."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class AntisymmetryViolation(PolabError):
    """The reflexive-transitive closure of the input pairs has a 2-cycle."""


class UnknownId(PolabError):
    """An element id was used that is not part of the carrier."""


class NotMonotone(PolabError):
    """A map assignment fails order preservation."""


class NotEmbedding(PolabError):
    """A map fails order reflection and cannot serve as an extension."""


class NotPreorder(PolabError):
    """A relation expected to be reflexive and transitive is not."""


class NotCompleteLattice(PolabError):
    """An operation needs a complete lattice and the poset is not one."""


class NotCutStable(PolabError):
    """A map is not cut-stable and cannot be lifted to completions."""


class LiftVerificationFailed(PolabError):
    """The computed completion lift failed its post-hoc verification."""


class CarrierMismatch(PolabError):
    """Two structures that must share a carrier do not."""


class CarrierTooLarge(PolabError):
    """An enumeration or scan was requested above its size gate."""


class NotGalois(PolabError):
    """An operation is only defined for Galois polarities."""


class NotDelta1(PolabError):
    """An extension expected to be a dense completion is not."""


class NotZeroPreorder(PolabError):
    """A relation expected to be a 0-preorder for a polarity is not."""


class NotOnePreorder(PolabError):
    """A relation expected to be at least a 1-preorder is not."""


class NotCoherent(PolabError):
    """A polarity does not reach the coherence level an operation needs."""


class PreservationViolation(PolabError):
    """A map fails a required meet- or join-preservation property."""


class DomainMismatch(PolabError):
    """Composed or compared maps have incompatible domains."""


class PartialInverseUndefined(PolabError):
    """A map cannot be factored through the required sub-structure."""


class MorphismInvalid(PolabError):
    """A candidate morphism triple violates one of its clauses."""

    def __init__(self, clause, message, witness=None):
        super().__init__("%s: %s" % (clause, message), witness)
        self.clause = clause


class LawViolation(PolabError):
    """A certificate of a construction, or a law the fuzzer checks, fails.

    Raised instead of an `assert`, so that it also fires under `python -O`;
    `law` names the certificate and `witness` holds the offending data.
    """

    def __init__(self, law, message, witness=None):
        super().__init__("%s: %s" % (law, message), witness)
        self.law = law


class ConditionOneFails(PolabError):
    """The comparability condition of the universal property fails."""


class ParseError(PolabError):
    """A document is syntactically or semantically malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
