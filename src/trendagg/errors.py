"""Exception types shared across the package."""


class TrendAggError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRow(TrendAggError):
    """A CSV row has the wrong shape or an unparsable value."""

    def __init__(self, row_number, message):
        super().__init__(f"row {row_number}: {message}")
        self.row_number = row_number


class InputError(TrendAggError):
    """An input file or argument is not in the expected encoding, format
    or range."""


class OutOfOrder(TrendAggError):
    """Event time decreased within a stream."""

    def __init__(self, row_number, previous_ms, current_ms):
        super().__init__(
            f"row {row_number}: time went backwards "
            f"({current_ms} ms after {previous_ms} ms)"
        )
        self.row_number = row_number


class QuerySyntaxError(TrendAggError):
    """Query text does not conform to the grammar."""


class UnknownType(QuerySyntaxError):
    """Query references an event type absent from the schema."""


class UnknownAttribute(QuerySyntaxError):
    """Query references an attribute absent from the schema."""


class DuplicateTypeInPattern(QuerySyntaxError):
    """The same pattern variable is bound more than once."""


class UnsupportedQuery(TrendAggError):
    """Query is well-formed but outside the supported execution classes."""


class MissingAttribute(TrendAggError):
    """An event lacks an attribute needed by an aggregate or predicate."""


class MissingGroupAttribute(TrendAggError):
    """A matched event lacks a partitioning attribute."""


class ExplosionGuard(TrendAggError):
    """Trend enumeration exceeded the configured cap."""

    def __init__(self, cap):
        super().__init__(f"trend enumeration exceeded cap of {cap}")
        self.cap = cap


class AggregateOverflow(TrendAggError):
    """A float aggregate leaves the float range, e.g. through a trend count."""

    def __init__(self, aggregate, reason):
        super().__init__(f"{aggregate} exceeds the float range: {reason}")
