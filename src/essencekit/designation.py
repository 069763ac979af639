"""Multi-aspect reference designations and document designation codes.

A reference designation names a system node in up to three aspects, in
the style of IEC 81346: function (prefix ``=``), product (prefix ``-``),
and location (prefix ``+``). The accepted grammar is exact:

    designation = chain *( OWS "/" OWS chain )
    chain       = prefix segment *( prefix segment )   ; one prefix per chain
    prefix      = "=" | "-" | "+"
    segment     = 1*( A-Z / 0-9 )
    OWS         = *( " " )

Lowercase input is rejected, not folded: canonical forms are bit-exact.
Chains resolve against per-aspect breakdown trees by path-suffix match,
so a partial designator may be ambiguous; a designation is acceptable
when at least one of its chains is not.

Document designations follow IEC 61355 in shape: a system designation,
``&``, and a three-letter document classification code whose first
letter (the technical area) must exist in the active DCC table.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from ._schema import decode, get, nonempty
from .errors import DesignationError

_SEGMENT_RE = re.compile(r"[A-Z0-9]+\Z")
_SEGMENT_CHARS = frozenset(string.ascii_uppercase + string.digits)


class Aspect(str, Enum):
    FUNCTION = "Function"
    PRODUCT = "Product"
    LOCATION = "Location"

    @property
    def prefix(self) -> str:
        return _PREFIX_BY_ASPECT[self]


_PREFIX_BY_ASPECT = {
    Aspect.FUNCTION: "=",
    Aspect.PRODUCT: "-",
    Aspect.LOCATION: "+",
}
_ASPECT_BY_PREFIX = {prefix: aspect for aspect, prefix in _PREFIX_BY_ASPECT.items()}

# Canonical chain order within a designation.
ASPECT_ORDER = (Aspect.FUNCTION, Aspect.PRODUCT, Aspect.LOCATION)


@dataclass(frozen=True)
class AspectChain:
    """One aspect's segment path, e.g. ``-12-N4-DN18``."""

    aspect: Aspect
    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise DesignationError("BAD_SEGMENT", "chain has no segments")
        for segment in self.segments:
            if not _SEGMENT_RE.match(segment):
                raise DesignationError(
                    "BAD_SEGMENT",
                    f"segment {segment!r} is not uppercase-alphanumeric",
                )

    def __str__(self) -> str:
        prefix = self.aspect.prefix
        return "".join(prefix + segment for segment in self.segments)


@dataclass(frozen=True, eq=False)
class MultiAspectDesignation:
    """Chains of one designation; at most one chain per aspect.

    Equality is aspect-keyed: two designations are equal when they carry
    the same chains, regardless of chain order. ``chains`` preserves the
    order of construction (for parsed input, the input order).
    """

    chains: tuple[AspectChain, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chains", tuple(self.chains))
        if not self.chains:
            raise DesignationError("EMPTY_INPUT", "designation has no chains")
        seen: set[Aspect] = set()
        for chain in self.chains:
            if chain.aspect in seen:
                raise DesignationError(
                    "DUPLICATE_ASPECT",
                    f"aspect {chain.aspect.value} appears in two chains",
                )
            seen.add(chain.aspect)

    def by_aspect(self) -> dict[Aspect, AspectChain]:
        return {chain.aspect: chain for chain in self.chains}

    def _key(self) -> frozenset[tuple[Aspect, tuple[str, ...]]]:
        return frozenset((chain.aspect, chain.segments) for chain in self.chains)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiAspectDesignation):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        return format_designation(self)


def parse_designation(text: str) -> MultiAspectDesignation:
    """Parse a designation string; raises DesignationError on any deviation.

    Error codes: EMPTY_INPUT, BAD_PREFIX, BAD_SEGMENT, MIXED_CHAIN,
    DUPLICATE_ASPECT. Every input yields a value or exactly one of these.
    """
    if text == "":
        raise DesignationError("EMPTY_INPUT", "designation is empty")
    chains: list[AspectChain] = []
    seen: set[Aspect] = set()
    pos = 0
    end = len(text)
    while True:
        if pos == end or text[pos] not in _ASPECT_BY_PREFIX:
            raise DesignationError(
                "BAD_PREFIX",
                f"expected aspect prefix '=', '-' or '+' at column {pos + 1}",
            )
        prefix = text[pos]
        aspect = _ASPECT_BY_PREFIX[prefix]
        segments: list[str] = []
        while pos < end and text[pos] in _ASPECT_BY_PREFIX:
            if text[pos] != prefix:
                raise DesignationError(
                    "MIXED_CHAIN",
                    f"prefix {text[pos]!r} after {prefix!r} within one chain "
                    f"at column {pos + 1}",
                )
            pos += 1
            start = pos
            while pos < end and text[pos] in _SEGMENT_CHARS:
                pos += 1
            if pos == start:
                raise DesignationError(
                    "BAD_SEGMENT", f"empty segment at column {pos + 1}"
                )
            segments.append(text[start:pos])
        if aspect in seen:
            raise DesignationError(
                "DUPLICATE_ASPECT",
                f"aspect {aspect.value} appears in two chains",
            )
        seen.add(aspect)
        chains.append(AspectChain(aspect=aspect, segments=tuple(segments)))
        if pos == end:
            return MultiAspectDesignation(chains=tuple(chains))
        ws_start = pos
        while pos < end and text[pos] == " ":
            pos += 1
        if pos == end:
            raise DesignationError(
                "BAD_SEGMENT", f"trailing whitespace at column {ws_start + 1}"
            )
        if text[pos] != "/":
            raise DesignationError(
                "BAD_SEGMENT",
                f"unexpected character {text[pos]!r} at column {pos + 1}",
            )
        pos += 1
        while pos < end and text[pos] == " ":
            pos += 1


def format_designation(d: MultiAspectDesignation) -> str:
    """Canonical form: aspect order Function, Product, Location; " / " joins."""
    by_aspect = d.by_aspect()
    return " / ".join(
        str(by_aspect[aspect]) for aspect in ASPECT_ORDER if aspect in by_aspect
    )


@dataclass(frozen=True)
class BreakdownNode:
    segment: str
    children: tuple[BreakdownNode, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not _SEGMENT_RE.match(self.segment):
            raise DesignationError(
                "BAD_SEGMENT",
                f"node segment {self.segment!r} is not uppercase-alphanumeric",
            )
        _require_unique_siblings(self.children, self.segment)


@dataclass(frozen=True)
class BreakdownTree:
    """One aspect's system hierarchy; sibling segments are unique."""

    aspect: Aspect
    roots: tuple[BreakdownNode, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "roots", tuple(self.roots))
        _require_unique_siblings(self.roots, None)

    def paths(self) -> tuple[tuple[str, ...], ...]:
        """All root-to-node paths, depth-first."""
        out: list[tuple[str, ...]] = []

        def walk(node: BreakdownNode, prefix: tuple[str, ...]) -> None:
            path = prefix + (node.segment,)
            out.append(path)
            for child in node.children:
                walk(child, path)

        for root in self.roots:
            walk(root, ())
        return tuple(out)


def _require_unique_siblings(
    nodes: tuple[BreakdownNode, ...], parent: str | None
) -> None:
    seen: set[str] = set()
    for node in nodes:
        if node.segment in seen:
            where = f"under {parent!r}" if parent else "at tree root"
            raise DesignationError(
                "DUPLICATE_SIBLING",
                f"sibling segment {node.segment!r} repeats {where}",
            )
        seen.add(node.segment)


def resolve(tree: BreakdownTree, chain: AspectChain) -> tuple[tuple[str, ...], ...]:
    """All nodes whose root-to-node path ends with the chain's segments.

    Returned as full paths in depth-first order; empty when nothing
    matches. Suffix matching is what makes partial designators useful
    and, possibly, ambiguous.
    """
    if chain.aspect is not tree.aspect:
        raise DesignationError(
            "ASPECT_MISMATCH",
            f"{chain.aspect.value} chain resolved against "
            f"{tree.aspect.value} tree",
        )
    want = chain.segments
    return tuple(path for path in tree.paths() if path[-len(want):] == want)


@dataclass(frozen=True)
class ChainResolution:
    chain: AspectChain
    matches: tuple[tuple[str, ...], ...]

    @property
    def count(self) -> int:
        return len(self.matches)

    @property
    def unambiguous(self) -> bool:
        return len(self.matches) == 1


@dataclass(frozen=True)
class UnambiguityReport:
    resolutions: tuple[ChainResolution, ...]

    @property
    def ok(self) -> bool:
        return any(r.unambiguous for r in self.resolutions)


def check_at_least_one_unambiguous(
    trees: Mapping[Aspect, BreakdownTree], d: MultiAspectDesignation
) -> UnambiguityReport:
    """Not every chain must be unambiguous, but at least one must be."""
    resolutions = []
    for chain in d.chains:
        tree = trees.get(chain.aspect)
        if tree is None:
            raise DesignationError(
                "MISSING_TREE", f"no breakdown tree for aspect {chain.aspect.value}"
            )
        resolutions.append(ChainResolution(chain=chain, matches=resolve(tree, chain)))
    return UnambiguityReport(resolutions=tuple(resolutions))


@dataclass(frozen=True)
class DccTable:
    """Document classification codes: area letters and class letter pairs."""

    name: str
    areas: Mapping[str, str]
    classes: Mapping[str, str] = field(default_factory=dict)

    def area_label(self, letter: str) -> str | None:
        return self.areas.get(letter)

    def class_label(self, letters: str) -> str | None:
        return self.classes.get(letters)


BUILTIN_DCC_TABLE = DccTable(
    name="builtin",
    areas={
        "A": "overall management",
        "M": "mechanical engineering",
    },
    classes={
        "CA": "contractual and nontechnical documents",
    },
)

_DCC_RE = re.compile(r"[A-Z]{3}\Z")


@dataclass(frozen=True)
class DocumentDesignation:
    """A system designation plus a three-letter classification code."""

    system: MultiAspectDesignation
    dcc: str
    table_ref: str = BUILTIN_DCC_TABLE.name

    def __post_init__(self) -> None:
        if not _DCC_RE.match(self.dcc):
            raise DesignationError(
                "MALFORMED_DCC",
                f"dcc {self.dcc!r} is not exactly three uppercase letters",
            )

    @property
    def area(self) -> str:
        return self.dcc[0]

    @property
    def document_class(self) -> str:
        return self.dcc[1:]

    def __str__(self) -> str:
        return format_document_designation(self)


def parse_document_designation(
    text: str, table: DccTable = BUILTIN_DCC_TABLE
) -> DocumentDesignation:
    """Split ``<system designation>&<DCC>`` and validate the area letter."""
    cut = text.find("&")
    if cut < 0:
        raise DesignationError(
            "NO_AMPERSAND", "document designation has no '&' separator"
        )
    system = parse_designation(text[:cut])
    dcc = text[cut + 1:]
    if not _DCC_RE.match(dcc):
        raise DesignationError(
            "MALFORMED_DCC",
            f"dcc {dcc!r} is not exactly three uppercase letters",
        )
    if table.area_label(dcc[0]) is None:
        raise DesignationError(
            "UNKNOWN_TECHNICAL_AREA",
            f"area letter {dcc[0]!r} not in DCC table {table.name!r}",
        )
    return DocumentDesignation(system=system, dcc=dcc, table_ref=table.name)


def format_document_designation(d: DocumentDesignation) -> str:
    return f"{format_designation(d.system)}&{d.dcc}"


def loads_dcc_table(text: str | bytes, *, default_name: str = "custom") -> DccTable:
    """Load a DCC table document: {"name", "areas": {...}, "classes": {...}}."""
    doc = decode(text, DesignationError, "DCC table")
    name = nonempty(doc, "name", None, DesignationError, default_name)
    areas = get(doc, "areas", dict, None, DesignationError)
    classes = get(doc, "classes", dict, None, DesignationError, {})
    for key, codes, width in (("areas", areas, 1), ("classes", classes, 2)):
        for code in codes:
            if not re.fullmatch(r"[A-Z]" * width, code):
                raise DesignationError(
                    "SCHEMA_ERROR",
                    f"{key} key {code!r} must be {width} uppercase letter(s)",
                    path=key,
                )
            nonempty(codes, code, key, DesignationError)
    if not areas:
        raise DesignationError("SCHEMA_ERROR", "DCC table defines no areas",
                               path="areas")
    return DccTable(name=name, areas=areas, classes=classes)
