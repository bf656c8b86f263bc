"""Exception hierarchy.

Four branches mirror the CLI exit codes: usage (1), input (2),
semantic rejection (3), numerical failure (4).
"""


def _shown(ident: str) -> str:
    """An id as a message writes it: as it is, or as its repr when it holds
    a character that is not printable, such as a line separator, which
    would split the message's one line."""
    return ident if ident.isprintable() else repr(ident)


class EntroconfError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(EntroconfError):
    """Command line cannot be interpreted."""


class UnknownOption(UsageError):
    pass


class MissingArgument(UsageError):
    pass


class ConflictingMeasures(UsageError):
    pass


class SkipsWithoutCpm(UsageError):
    """-srel/-sret given with a measure that takes no skip budget."""


class InputError(EntroconfError):
    """An input file cannot be read or parsed."""


class MalformedXml(InputError):
    pass


class MissingConceptName(InputError):
    pass


class DanglingArc(InputError):
    pass


class NonPositiveWeight(InputError):
    pass


class ParseError(InputError):
    pass


class StochasticSumViolation(InputError):
    pass


class DuplicateTransition(InputError):
    pass


class UnreachableNode(InputError):
    pass


class DeadEndNode(InputError):
    pass


class UnknownExtension(InputError):
    pass


class EmptyLog(InputError):
    pass


class SemanticError(EntroconfError):
    """Inputs parse but cannot be measured."""


class IncompatibleFormat(SemanticError):
    pass


class UnboundedModel(SemanticError):
    """A net with infinitely many reachable markings, and the witness: from
    the reachable marking ancestor, firing the transition ids in sequence
    reaches the marking cover, which strictly covers ancestor."""

    def __init__(self, message, ancestor, cover, sequence) -> None:
        super().__init__(message)
        self.ancestor = ancestor
        self.cover = cover
        self.sequence = sequence


class NoAcceptingState(SemanticError):
    pass


class NondeterministicStochasticModel(SemanticError):
    pass


class SilentTransitionUnsupported(SemanticError):
    pass


class NonTerminatingSdfa(SemanticError):
    pass


class EmptyConjunction(SemanticError):
    pass


class InvalidFinalMarking(SemanticError):
    """A declared final marking is not a deadlock (or a deadlock is not final)."""


class StateSpaceExceeded(SemanticError):
    pass


class NumericalError(EntroconfError):
    """An iterative procedure failed to converge."""


class NotConverged(NumericalError):
    pass
