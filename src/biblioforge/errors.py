"""Exception types shared across the toolkit."""

from __future__ import annotations


class BiblioforgeError(Exception):
    """Base class for all toolkit errors."""


class MissingField(BiblioforgeError):
    """A mandatory field is absent from a record or term block."""

    def __init__(self, field: str, context: str | None = None):
        msg = f"missing mandatory field: {field}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.field = field
        self.context = context


class MalformedLine(BiblioforgeError):
    """A line of an input file cannot be parsed."""

    def __init__(self, reason: str, line_no: int | None = None):
        msg = reason if line_no is None else f"line {line_no}: {reason}"
        super().__init__(msg)
        self.reason = reason
        self.line_no = line_no


def in_file(exc: Exception, path: object) -> Exception:
    """``exc`` with `` in <path>`` added to its message; ``reason`` and ``line_no`` stay."""
    exc.args = (f"{exc} in {path}",)
    return exc


class StorageFailure(BiblioforgeError):
    """An I/O operation on a store failed."""


class CyclicBroaderLink(BiblioforgeError):
    """Broader links of a taxonomy form a cycle."""

    def __init__(self, chain: list[str]):
        super().__init__("cyclic broader chain: " + " -> ".join(chain))
        self.chain = chain


class DuplicateLabel(BiblioforgeError):
    """The same label phrase is claimed by more than one taxonomy term."""

    def __init__(self, phrase: str, term_ids: list[str]):
        super().__init__(f"label {phrase!r} claimed by terms {sorted(term_ids)}")
        self.phrase = phrase
        self.term_ids = list(term_ids)


class DanglingReference(BiblioforgeError):
    """A taxonomy term refers to a term id that does not exist."""

    def __init__(self, term_id: str):
        super().__init__(f"reference to unknown term: {term_id}")
        self.term_id = term_id


class DuplicateAlias(BiblioforgeError):
    """The same journal alias maps to more than one canonical title."""

    def __init__(self, alias: str, titles: list[str]):
        super().__init__(f"alias {alias!r} maps to multiple titles {sorted(titles)}")
        self.alias = alias
        self.titles = list(titles)


class EmptySection(BiblioforgeError):
    """A reference section yielded no citation entries."""


class TemplateFieldMissing(BiblioforgeError):
    """A URL template references a field the citation entry lacks."""

    def __init__(self, placeholder: str):
        super().__init__(f"url template needs field missing from entry: {placeholder}")
        self.placeholder = placeholder


class UnknownNode(BiblioforgeError):
    """A graph query named a record id that is not a graph node."""

    def __init__(self, node_id: str):
        super().__init__(f"unknown graph node: {node_id}")
        self.node_id = node_id


class UnknownRecord(BiblioforgeError):
    """An operation named a record id with no events or stored record."""

    def __init__(self, record_id: str):
        super().__init__(f"unknown record: {record_id}")
        self.record_id = record_id


class NonConvergence(BiblioforgeError):
    """Power iteration hit the iteration cap before reaching tolerance.

    The scores computed so far are attached so callers can still use them.
    """

    def __init__(self, iterations: int, scores: dict[str, float]):
        super().__init__(f"rank iteration did not converge after {iterations} iterations")
        self.iterations = iterations
        self.scores = scores
