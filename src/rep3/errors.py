"""Exception types shared across the package.

Every error raised by the library derives from Rep3Error, so callers can
catch one base class at the CLI boundary.  Input-validation errors double
as ValueError subclasses.
"""


class Rep3Error(Exception):
    """Base class for all library errors."""


class OrderOutOfRange(Rep3Error, ValueError):
    """Graph order outside the supported range [1, 64]."""


class LoopEdge(Rep3Error, ValueError):
    """An edge (v, v) was supplied; loops are not representable."""


class EndpointOutOfRange(Rep3Error, ValueError):
    """An edge endpoint is not a vertex of the graph."""


class VertexOutOfRange(Rep3Error, ValueError):
    """A vertex-set argument mentions an index outside the graph."""


class EmptyResult(Rep3Error, ValueError):
    """A deletion would remove every vertex."""


class MalformedRecord(Rep3Error, ValueError):
    """A graph6 record could not be decoded, or a reader that needs a
    catalogue record (degrees sorted along the labels) got another.

    When raised while reading a stream, ``line`` holds the 1-based line
    number of the offending record.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnsupportedOrder(Rep3Error, ValueError):
    """graph6 I/O is limited to single-byte orders (n <= 62)."""


class NotATriple(Rep3Error, ValueError):
    """A 3-set argument did not contain exactly three distinct vertices."""


class NotFeasible(Rep3Error, ValueError):
    """A budget was requested for a triple that matched no condition."""


class BudgetExceedsOrder(Rep3Error, ValueError):
    """A deletion budget would leave fewer than three vertices."""


class OrderTooSmall(Rep3Error, ValueError):
    """The three-deletion solver needs at least five vertices."""


class TheoremViolation(Rep3Error):
    """No deletion set within the guaranteed budget produced three equal
    degrees.  Impossible if the implementation is correct; the harness
    records it as a fatal finding rather than masking it.
    """


class OrderTooLarge(Rep3Error, ValueError):
    """Enumeration / canonical forms are guarded to small orders."""


class IncompleteCatalogue(Rep3Error):
    """A generated catalogue order holds another number of classes than
    OEIS A000088 counts, or an edge count of it holds a repeated record
    or another number of records than OEIS A008406 counts; a generation
    bug, never a property of the input.
    """


class WorkerCrash(Rep3Error):
    """A sweep worker failed on one record with an error that is not a
    Rep3Error; the message names the record and the original error.
    """
