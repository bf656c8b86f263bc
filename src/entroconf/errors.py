"""Exception hierarchy, and the helpers that the readers and the command
line share: how a message shows an id and a token, and the count rule.

Four branches mirror the CLI exit codes: usage (1), input (2),
semantic rejection (3), numerical failure (4).
"""


def _shown(ident: str) -> str:
    """An id as a message writes it: as it is, or as its repr when it holds
    a character that is not printable, such as a line separator, which
    would split the message's one line."""
    return ident if ident.isprintable() else repr(ident)


def _echo(token: str, show=repr) -> str:
    """A token from the input as a message shows it: show(token), or, past 40
    characters, show of its first 40 and its length, so the line stays short."""
    if len(token) <= 40:
        return show(token)
    return f"{show(token[:40])}... ({len(token)} characters)"


def _parse_count(token: str, context: str) -> int:
    """A count as the input formats and -srel/-sret write it: ASCII digits,
    optionally signed, and not negative; else ParseError naming context."""
    digits = token.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    try:
        # int() alone would also take "1_0" and non-ASCII digits such as "١"
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        value = int(token)
    except ValueError:
        raise ParseError(f"{context}: cannot read integer {_echo(token)}") from None
    if value < 0:
        raise ParseError(f"{context}: negative count {_echo(str(value), str)}")
    return value


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
