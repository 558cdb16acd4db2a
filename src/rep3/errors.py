"""Exception types shared across the package.

Every error raised by the library derives from Rep3Error, so callers can
catch one base class at the CLI boundary.  Input-validation errors double
as ValueError subclasses.
"""


class Rep3Error(Exception):
    """Base class for all library errors."""


class OrderOutOfRange(Rep3Error, ValueError):
    """An order outside the range the call supports: 1..64 for a graph,
    at most 62 for graph6, 1..9 for the catalogue, at least 5 for the
    three-deletion solver, or a suite's own range of orders."""


class LoopEdge(Rep3Error, ValueError):
    """An edge (v, v) was supplied; loops are not representable."""


class VertexOutOfRange(Rep3Error, ValueError):
    """An index that is not a vertex of the graph, as an edge endpoint
    or in a vertex-set argument."""


class EmptyResult(Rep3Error, ValueError):
    """A deletion would remove every vertex."""


class MalformedRecord(Rep3Error, ValueError):
    """A graph6 record could not be decoded, or a reader that needs a
    catalogue record (degrees sorted along the labels) got another, or
    a run of records read together holds more than one order.

    When raised while reading a stream, ``line`` holds the 1-based line
    number of the offending record.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NotATriple(Rep3Error, ValueError):
    """A 3-set argument did not contain exactly three distinct vertices."""


class NotFeasible(Rep3Error, ValueError):
    """A budget was requested for a triple that matched no condition."""


class BudgetExceedsOrder(Rep3Error, ValueError):
    """A deletion budget is negative or would leave fewer than three
    vertices."""


class TheoremViolation(Rep3Error):
    """No deletion set within the guaranteed budget produced three equal
    degrees.  Impossible if the implementation is correct; the harness
    records it as a fatal finding rather than masking it.
    """


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
