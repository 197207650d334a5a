"""Exception types shared across the package."""


class WlraError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(WlraError):
    pass


class RankDeficient(WlraError):
    pass


class EmptySupport(WlraError):
    pass


class NonPositiveWeight(WlraError):
    pass


class LambdaOutOfRange(WlraError):
    pass


class InitNotConfined(WlraError):
    pass


class BacktrackLimit(WlraError):
    pass


class ParseError(WlraError):
    def __init__(self, message: str, line: int, where: str = "line "):
        super().__init__(f"{where}{line}: {message}")
        self.line = line


class DuplicateEntry(WlraError):
    pass


class IndexOutOfBounds(WlraError):
    pass


class InvalidDimensions(WlraError):
    pass


class MismatchedData(WlraError):
    pass
