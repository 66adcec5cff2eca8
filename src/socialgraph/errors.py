"""Exception types shared across the package."""

from __future__ import annotations


class SocialGraphError(Exception):
    """Base class for every error raised by this package."""


class DuplicateIdError(SocialGraphError):
    def __init__(self, element_id: str):
        super().__init__(f"duplicate element id: {element_id!r}")
        self.element_id = element_id


class DanglingEndpointError(SocialGraphError):
    def __init__(self, link_id: str, node_id: str):
        super().__init__(f"link {link_id!r} references missing node {node_id!r}")
        self.link_id = link_id
        self.node_id = node_id


class MissingTypeError(SocialGraphError):
    def __init__(self, element_id: str):
        super().__init__(f"element {element_id!r} has no 'type' attribute")
        self.element_id = element_id


class EmptyKeywordsError(SocialGraphError):
    def __init__(self):
        super().__init__("keyword scoring requires a non-empty keyword list")


class AggEvalError(SocialGraphError):
    """An aggregate expression could not be evaluated."""

    def __init__(self, message: str, element_id: str | None = None, attr: str | None = None):
        detail = message
        if element_id is not None:
            detail += f" (element {element_id!r}"
            detail += f", attribute {attr!r})" if attr is not None else ")"
        elif attr is not None:
            detail += f" (attribute {attr!r})"
        super().__init__(detail)
        self.element_id = element_id
        self.attr = attr


class DivideByZeroError(AggEvalError):
    def __init__(self):
        super().__init__("division by zero in numerical aggregate")


class CompositionFnError(SocialGraphError):
    def __init__(self, message: str, attr: str | None = None):
        super().__init__(message if attr is None else f"{message} (attribute {attr!r})")
        self.attr = attr


class PatternTooLongError(SocialGraphError):
    def __init__(self, length: int, limit: int):
        super().__init__(f"graph pattern has {length} steps, limit is {limit}")
        self.length = length
        self.limit = limit


class UnknownUserError(SocialGraphError):
    def __init__(self, user_id: str):
        super().__init__(f"unknown user: {user_id!r}")
        self.user_id = user_id


class UnknownItemError(SocialGraphError):
    def __init__(self, item_id: str):
        super().__init__(f"unknown item: {item_id!r}")
        self.item_id = item_id


class UnknownCriterionAttrError(SocialGraphError):
    def __init__(self, attr: str):
        super().__init__(f"grouping attribute {attr!r} is absent from every item")
        self.attr = attr


class DslSyntaxError(SocialGraphError):
    def __init__(self, line: int, col: int, expected: str):
        super().__init__(f"syntax error at line {line}, column {col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


class DuplicateBindingError(SocialGraphError):
    def __init__(self, name: str, line: int):
        super().__init__(f"binding {name!r} redefined at line {line}")
        self.name = name
        self.line = line


class UnknownOperatorError(SocialGraphError):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"unknown operator {name!r} at line {line}, column {col}")
        self.name = name
        self.line = line
        self.col = col


class UnboundReferenceError(SocialGraphError):
    def __init__(self, name: str, what: str = "graph reference"):
        super().__init__(f"unbound {what}: {name!r}")
        self.name = name


class ExecutionError(SocialGraphError):
    """Wraps an evaluation failure with the binding being computed."""

    def __init__(self, binding: str, cause: Exception):
        super().__init__(f"while evaluating {binding!r}: {cause}")
        self.binding = binding
        self.cause = cause


class GraphFileError(SocialGraphError):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
