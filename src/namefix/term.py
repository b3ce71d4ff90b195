"""Labeled s-expression terms, and what the parsers share to build them.

Programs are plain s-expressions: constants, name occurrences, and compound
terms. Every name occurrence carries a label that identifies the variable
occurrence independently of its spelling; transformations copy labels when
they copy names and allocate fresh ones for names they invent.
"""

from __future__ import annotations

import re
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from itertools import islice
import operator
from typing import Callable, Iterable, Iterator, Mapping, TypeVar


class Provenance(Enum):
    SOURCE = "source"
    SYNTHESIZED = "synthesized"


class TermError(Exception):
    """Base class for term-level errors."""


class LabelNotFound(TermError):
    """Queried label does not occur in the term."""


class InconsistentLabel(TermError):
    """Occurrences of one label id disagree on the name text, or in a
    resolve by binding forms on the provenance (corrupt term)."""


class PinError(TermError):
    """Source text pins one label id on two name occurrences, or pins an id
    so long that the ids after it could not be printed."""


class ParseError(Exception):
    """Base of the front ends' parse errors. Each language's subclass
    locates an error in its own terms."""

    @classmethod
    def at(cls, message: str, src: str, offset: int) -> "ParseError":
        """The error at `offset` of `src`, as a Scanner raises it."""
        raise NotImplementedError


class Label(int):
    """Unique identifier of a name occurrence group: the label is its id.

    Equality, hashing and order are the int's, so they run in C and ignore
    provenance. Provenance, which tells names introduced by a transformation
    apart from names copied out of a source program, is given by the class:
    `Label` is source, and `Label(id, Provenance.SYNTHESIZED)` makes an
    instance of a private subclass. Two consequences: `Label(3) == 3`, and
    `Label(0)` is falsy, so code never tests a label for truth (write
    `is None`). A term gives each id one spelling and one provenance, as
    origin tracking does (a copied name keeps its label, an invented one
    gets a fresh id): repair looks labels up by id, and a resolve by
    binding forms rejects a term that carries one id under both.
    """

    __slots__ = ()
    provenance = Provenance.SOURCE
    synthesized = False

    def __new__(cls, id: int, provenance: Provenance = Provenance.SOURCE) -> "Label":
        return int.__new__(_Synthesized if provenance is Provenance.SYNTHESIZED else Label, id)

    # The id as a plain int.
    id = property(int.__int__)

    def __getnewargs__(self) -> tuple[int, Provenance]:
        return int(self), self.provenance

    def __repr__(self) -> str:
        return f"@{int.__repr__(self)}"


class _Synthesized(Label):
    __slots__ = ()
    provenance = Provenance.SYNTHESIZED
    synthesized = True

    def __repr__(self) -> str:
        return f"@'{int.__repr__(self)}"


class Term:
    """Base class of term nodes. Nodes are slotted, with no per-node dict,
    and are immutable by convention: no code assigns to a node's fields
    after construction (`tests/test_immutable_nodes.py` checks `src/`), so
    subterms can be shared and nodes hashed."""

    __slots__ = ()

    def __reduce__(self) -> tuple[type, tuple]:
        # Rebuild from the fields: pickle protocols 0 and 1 cannot copy the
        # slots of a class without a dict by themselves.
        return self.__class__, tuple(map(self.__getattribute__, self.__slots__))


@dataclass(slots=True, unsafe_hash=True)
class Const(Term):
    value: object  # int or str

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(slots=True, unsafe_hash=True)
class Name(Term):
    text: str
    label: Label

    def __repr__(self) -> str:
        return f"Name({self.text!r}{self.label!r})"


@dataclass(slots=True, eq=False)
class Compound(Term):
    children: tuple[Term, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Compound):
            return NotImplemented
        return lockstep(self, other, operator.eq)

    def __hash__(self) -> int:
        return fold(self, hash, lambda c, parts: hash(tuple(parts)))

    def __repr__(self) -> str:
        # repr(self.children) after "Compound", as one fold: deep terms
        # would overflow the recursive tuple repr.
        def text(part: object) -> str:
            return part if part.__class__ is str else repr(part)

        def node(c: Compound, parts: list) -> str:
            inner = ", ".join(map(text, parts))
            return f"Compound({inner},)" if len(parts) == 1 else f"Compound({inner})"

        return fold(self, repr, node)


def compound(*children: Term) -> Compound:
    return Compound(tuple(children))


def tag(t: Term) -> str | None:
    """The constructor of a compound whose first child is a string constant."""
    if t.__class__ is Compound and t.children:
        head = t.children[0]
        if head.__class__ is Const and isinstance(head.value, str):
            return head.value
    return None


def show_name(n: Name, with_label: bool = True) -> str:
    """`text`, or with its label `text@id` (`text@'id` when synthesized):
    the spelling every parser reads back as a pinned label."""
    if not with_label:
        return n.text
    tick = "'" if n.label.synthesized else ""
    return f"{n.text}@{tick}{n.label.id}"


def literal(value: object) -> str:
    """A constant's text: a string quoted, with its `\\` and `"` escaped;
    any other value as `str` gives it."""
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return str(value)


class _Counter:
    """Monotone session-wide id source. Safe under concurrent calls: no id
    is handed out twice. A parse that fails may leave the rest of the block
    it took unused; those ids are skipped, never handed out later."""

    def __init__(self, start: int = 1) -> None:
        self._lock = threading.Lock()
        self._next = start

    def next_id(self) -> int:
        with self._lock:
            value = self._next
            self._next += 1
            return value

    def take(self, count: int, after: int = 0) -> int:
        """The first of `count` consecutive ids, each greater than `after`
        and than every id handed out before."""
        with self._lock:
            first = max(self._next, after + 1)
            self._next = first + count
            return first


_SESSION = _Counter()


def fresh_source_label() -> Label:
    """A source-provenance label from the session counter (parser use)."""
    return int.__new__(Label, _SESSION.next_id())


_PIN = re.compile(r"@('?)(\d+)")
# The most digits an int prints with (0: no limit, as before Python 3.10.7).
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _pin_id(digits: str) -> int | None:
    """The id a pin spells, or None when the ids after it could not be
    printed: it has as many digits as an int prints with, or more."""
    limit = _MAX_DIGITS()
    return int(digits) if not limit or len(digits) < limit else None


class NameFactory:
    """Turns the name tokens of one source text into labeled Name nodes.

    A token spelled `x@7` pins source label 7 and `x@'7` synthesized label 7,
    in place of a fresh label. The pins of the text's name tokens, `pinned`,
    are reserved up front, so fresh labels never collide with a pin read
    later in the text; an `@digits` elsewhere, in a string or a comment, is
    no pin. In the same step it takes one block of ids for the `fresh`
    (unpinned) name tokens, handed out in the order the names are made.
    """

    def __init__(self, fresh: int, pinned: Iterable[str]) -> None:
        # A pin too long is left out; make() rejects it as a name.
        pins = [_pin_id(_PIN.search(text).group(2)) for text in pinned]
        first = _SESSION.take(fresh, max((pin for pin in pins if pin is not None), default=0))
        self._fresh = iter(range(first, first + fresh))
        self._used: set[int] = set()

    def make(self, text: str) -> Name:
        """Raises PinError when a pinned id occurs twice or is too long."""
        if "@" not in text:
            return Name(text, int.__new__(Label, next(self._fresh)))
        m = _PIN.search(text)
        pin = _pin_id(m.group(2))
        if pin is None:
            raise PinError(f"pinned label id too long ({len(m.group(2))} digits)")
        if pin in self._used:
            raise PinError(f"pinned label id {pin} used twice")
        self._used.add(pin)
        provenance = Provenance.SYNTHESIZED if m.group(1) == "'" else Provenance.SOURCE
        return Name(text[: m.start()], Label(pin, provenance))


END = "end of input"  # the kind of the token that closes every scan
T = TypeVar("T")
E = TypeVar("E")
R = TypeVar("R")


def token_pattern(tokens: str) -> re.Pattern[str]:
    """The Scanner pattern of a language whose tokens `tokens` matches, a
    pattern without groups: any other character but whitespace is a token
    of its own."""
    return re.compile(rf"{tokens}|\S")


class _Kinds(dict):
    """Token text -> kind, for one scan. It starts with the language's
    punctuation and keywords, each its own kind; any other text is
    classified by its first character when first met, as None when it is
    no token of the language: one character, or a pinned keyword."""

    def __missing__(self, text: str) -> str | None:
        c = text[0]
        kind = self[text] = (
            # a name, unless it is a keyword with a pin
            ("name" if self.get(text.partition("@")[0], "name") == "name" else None)
            if c == "_" or c.isascii() and c.isalpha()
            else "int" if c.isdecimal() else "str" if c == '"' and len(text) > 1 else None
        )
        return kind


class Scanner:
    """One source text as tokens, and a cursor over them for a parser:
    each language's expression parser is one explicit-stack loop over the
    tokens, so nesting is bounded by memory only.

    One `findall` of `pattern` (from `token_pattern`) gives the token
    texts, and each token's kind comes from its text: a word is a `name`,
    or the keyword of `fixed` it spells (a keyword with a pin is an
    error); digits are an `int`; a quoted text is a `str`; punctuation of
    `fixed` is its own kind. The cursor `i` indexes `kinds` and `texts`.
    An END token closes the scan:
    there the parser reports running out of input, at offset `end`. Offsets
    are not kept: an error at a token rescans the text for its offset and
    is raised as `error.at(message, src, offset)`.
    """

    def __init__(
        self,
        src: str,
        pattern: re.Pattern[str],
        fixed: frozenset[str],
        error: type[ParseError],
        end: int,
    ) -> None:
        self.src = src
        self._pattern = pattern
        self._error = error
        self._end = end
        self.texts = texts = pattern.findall(src)
        self.kinds = kinds = list(map(_Kinds(zip(fixed, fixed)).__getitem__, texts))
        if None in kinds:
            j = kinds.index(None)
            what = "unexpected character" if len(texts[j]) == 1 else "pinned keyword"
            raise self.error(f"{what} {texts[j]!r}", j)
        fresh = kinds.count("name")
        pinned = []
        if "@" in src:
            pinned = [text for kind, text in zip(kinds, texts) if kind == "name" and "@" in text]
            fresh -= len(pinned)
        texts.append("")
        kinds.append(END)
        self.i = 0
        self.names = NameFactory(fresh, pinned)

    def error(self, message: str, j: int) -> ParseError:
        """The error at token j, located by scanning the text up to it."""
        m = next(islice(self._pattern.finditer(self.src), j, None), None)
        return self._error.at(message, self.src, self._end if m is None else m.start())

    def next(self, kind: str | None = None) -> int:
        """Consume the token at the cursor, of `kind` when given; its index."""
        i = self.i
        found = self.kinds[i]
        if found == END:
            raise self.error("unexpected end of input", i)
        if kind is not None and found != kind:
            raise self.error(f"expected {kind!r}, found {self.texts[i]!r}", i)
        self.i = i + 1
        return i

    def name(self, j: int) -> Name:
        """The Name of name token j, its pin read by the text's NameFactory."""
        try:
            return self.names.make(self.texts[j])
        except PinError as exc:
            raise self.error(str(exc), j) from None

    def integer(self, j: int) -> int:
        try:
            return int(self.texts[j])
        except ValueError:
            raise self.error(f"integer literal too long ({len(self.texts[j])} digits)", j) from None

    def parse(self, rule: Callable[..., T]) -> T:
        """`rule(self)` over the whole text. Input left after it is a
        located error."""
        result = rule(self)
        if self.kinds[self.i] != END:
            raise self.error(f"trailing input {self.texts[self.i]!r}", self.i)
        return result


class LabelAllocator:
    """Deterministic synthesized-label source for a single transformation.

    Ids start right after the largest id of the input's labels, so two runs
    on label-identical inputs allocate identical labels.
    """

    def __init__(self, start: int) -> None:
        self._next = start

    @classmethod
    def after(cls, labels: Iterable[Label]) -> "LabelAllocator":
        """Ids after the largest of `labels`. A resolver's graph holds
        exactly its term's labels: pass `graph.labels` where there is one,
        to skip a walk of the term."""
        return cls(max(labels, default=0) + 1)

    def fresh(self) -> Label:
        label = int.__new__(_Synthesized, self._next)
        self._next += 1
        return label


# ---------------------------------------------------------------------------
# Traversal. A tree walk is a `descend`, a `fold` or a pass over `subterms`,
# or, where the walk is hot, an explicit-stack loop of its own (the resolve
# of `graph.BindingFrames`, the walk that builds a `LabelIndex`, the
# printers `simpl.pretty_simpl` and `lam.pretty_lambda`): each keeps its own
# stack, or climbs its parent links, so depth is bounded by memory only.

Pairs = Iterable[tuple[Term, E]]


def descend(t: Term, env: E, rule: Callable[[Term, E], Pairs[E] | None]) -> bool:
    """Pre-order walk of t that carries an environment: `rule(node, env)`
    returns the (child, env) pairs to visit next, in order, or None to stop
    the walk, in which case descend returns False. With a second term as
    the environment, the walk runs over two terms in lockstep."""
    stack: list[Iterator[tuple[Term, E]]] = []
    pairs: Iterator[tuple[Term, E]] = iter(((t, env),))
    while True:
        for node, env in pairs:
            more = rule(node, env)
            if more:
                stack.append(pairs)
                pairs = iter(more)
                break
            if more is None:
                return False
        else:
            if not stack:
                return True
            pairs = stack.pop()


def share(c: Compound, children: list[Term]) -> Compound:
    """c with `children` in place of its own, or c itself when they are
    its own children."""
    if all(map(operator.is_, children, c.children)):
        return c
    return Compound(tuple(children))


def fold(
    t: Term,
    name: Callable[[Name], R] = lambda n: n,
    node: Callable[[Compound, list], R] = share,
) -> R:
    """Post-order fold of t: each Name n gives `name(n)`, each Const stands
    for itself, and each compound c gives `node(c, results of its children
    in order)`. Names are met left to right, as `descend` meets them. The
    default `node` rebuilds c, sharing unchanged subterms: a fold whose
    `name` changes nothing returns t itself."""
    kind = t.__class__
    if kind is not Compound:
        return name(t) if kind is Name else t
    stack: list[tuple[Compound, Iterator[Term], list]] = []
    c, children, results = t, iter(t.children), []
    while True:
        for child in children:
            kind = child.__class__
            if kind is Compound:
                stack.append((c, children, results))
                c, children, results = child, iter(child.children), []
                break
            results.append(name(child) if kind is Name else child)
        else:
            result = node(c, results)
            if not stack:
                return result
            c, children, results = stack.pop()
            results.append(result)


def lockstep(t1: Term, t2: Term, names: Callable[[Name, Name], bool]) -> bool:
    """Whether t1 and t2 have the same shape and constants, and `names`
    holds for every two names in the same position, met in pre-order."""

    def pair(a: Term, b: Term) -> Pairs[Term] | None:
        if isinstance(a, Compound):
            if isinstance(b, Compound) and len(a.children) == len(b.children):
                return zip(a.children, b.children)
        elif isinstance(a, Name):
            if isinstance(b, Name) and names(a, b):
                return ()
        elif isinstance(b, Const) and a.value == b.value:
            return ()
        return None

    return descend(t1, t2, pair)


def subterms(t: Term) -> list[Term]:
    """Every node of t in pre-order."""
    stack = [t]
    out: list[Term] = []
    while stack:
        node = stack.pop()
        out.append(node)
        if node.__class__ is Compound:
            stack.extend(reversed(node.children))
    return out


def iter_names(t: Term) -> Iterator[Name]:
    """All Name nodes of t in preorder."""
    return iter([node for node in subterms(t) if node.__class__ is Name])


def note_spelling(spell: dict[Label, str], n: Name) -> None:
    """Record n's spelling under its label. Raises InconsistentLabel when
    the label is already recorded with another spelling."""
    text = spell.setdefault(n.label, n.text)
    if text != n.text:
        raise InconsistentLabel(f"label {n.label!r} occurs as both {text!r} and {n.text!r}")


def spellings(t: Term) -> dict[Label, str]:
    """Every label of t mapped to its spelling, in order of first occurrence.
    Raises InconsistentLabel when two occurrences of a label disagree."""
    spell: dict[Label, str] = {}
    for node in iter_names(t):
        note_spelling(spell, node)
    return spell


def name_at(t: Term, v: Label) -> str:
    """The name text at label v."""
    text = spellings(t).get(v)
    if text is None:
        raise LabelNotFound(f"label {v!r} does not occur in term")
    return text


def labels_of(t: Term) -> frozenset[Label]:
    """The set of labels occurring in t."""
    return frozenset(spellings(t))


def rename(t: Term, pi: Mapping[Label, str]) -> Term:
    """Respell every name whose label is in dom(pi); labels are untouched.
    Unchanged subterms are shared, so a renaming that changes nothing
    returns t itself. Raises InconsistentLabel on a corrupt term."""
    if not pi:
        return t
    return LabelIndex(t, spellings(t)).rename(pi)


# A compound at one position of an indexed term: [its current node, the
# spine of its parent, its index there, its depth, and while the index is
# built, the iterator over its children and the index of the child it gave
# last]. Positions share their prefixes through the parent spines. Plain
# lists, because building them is most of the cost of an index.
Spine = list


class LabelIndex:
    """The positions where each label of one term occurs, for respelling
    the term round after round, with `spelling`, every label's spelling as
    `spellings(t)` or the resolve of t (`BindingFrames.names`) gives it.

    Renaming never changes a term's shape, so the index built once serves
    every later respelling: `rename` rebuilds only the compounds above the
    names it respells, shares every other subterm, and respells `spelling`
    in place, so the index describes the new term. `respelled` maps each
    label the last `rename` respelled, with the provenance the term gives
    it, to its previous spelling. `counts` maps each spelling of the term
    to the number of its labels that have it: `rename` keeps it up to date,
    and drops a spelling no label has any more, so its keys are the
    spellings in use. Each occurrence is numbered in the order the names of
    t stand left to right, which is the order a resolve meets them
    (`BindingFrames.met`): `occurrences` gives those numbers. Built by one
    walk, which counts the spellings too.
    """

    def __init__(self, t: Term, spelling: dict[Label, str]) -> None:
        # A holder above the root, so that the root is a position too.
        self._holder: Spine = [Compound((t,)), None, 0, 0, None, -1]
        self.spelling = spelling
        self.counts: dict[str, int] = {}
        counts = self.counts
        self.respelled: dict[Label, str] = {}
        # label -> spine, index, number, spine, index, number, ... of its
        # occurrences, left to right
        self._at: dict[Label, list] = {}
        at = self._at
        k = 0  # the number of the next occurrence
        # A child compound is walked where it is met, and then the walk
        # climbs back to its parent spine and resumes that one's children.
        spine = self._holder
        children, i = iter(spine[0].children), -1
        while True:
            for child in children:
                i += 1
                kind = child.__class__
                if kind is Name:
                    places = at.get(child.label)
                    if places is None:
                        at[child.label] = [spine, i, k]
                        text = child.text
                        counts[text] = counts.get(text, 0) + 1
                    else:
                        places += spine, i, k
                    k += 1
                elif kind is Compound:
                    spine[4], spine[5] = children, i
                    spine = [child, spine, i, spine[3] + 1, None, -1]
                    children, i = iter(child.children), -1
                    break
            else:
                spine = spine[1]
                if spine is None:
                    break
                children, i = spine[4], spine[5]
                spine[4] = None

    def occurrences(self, v: Label) -> list[int]:
        """The numbers of the occurrences of label v, left to right."""
        return self._at[v][2::3]

    @property
    def term(self) -> Term:
        return self._holder[0].children[0]

    def rename(self, pi: Mapping[Label, str]) -> Term:
        """The term with every label in dom(pi) respelled, as `rename` gives
        it; from then on the index describes that term. Labels the term
        does not have are ignored."""
        spelling, counts = self.spelling, self.counts
        respelled = self.respelled = {}
        # id(spine) -> (its depth, spine, its new children), for every
        # spine to rebuild
        edited: dict[int, tuple[int, Spine, list[Term]]] = {}
        for label, text in pi.items():
            old = spelling.get(label)
            if old is None or old == text:
                continue
            spelling[label] = text
            counts[text] = counts.get(text, 0) + 1
            left = counts[old] - 1
            if left:
                counts[old] = left
            else:
                del counts[old]
            places = iter(self._at[label])
            for spine, i, _ in zip(places, places, places):
                entry = edited.get(id(spine))
                if entry is None:
                    entry = edited[id(spine)] = (spine[3], spine, list(spine[0].children))
                children = entry[2]
                children[i] = Name(text, children[i].label)
            respelled[children[i].label] = old  # as the term carries it
        if not edited:
            return self.term
        # Every compound above a respelled name is rebuilt, deepest first.
        for _, spine, _ in list(edited.values()):
            spine = spine[1]
            while spine is not None and id(spine) not in edited:
                edited[id(spine)] = (spine[3], spine, list(spine[0].children))
                spine = spine[1]
        deepest_first = sorted(edited.values(), key=operator.itemgetter(0), reverse=True)
        for _, spine, children in deepest_first:
            node = spine[0] = Compound(tuple(children))
            parent = spine[1]
            if parent is not None:
                edited[id(parent)][2][spine[2]] = node
        return self.term


def label_equiv(t1: Term, t2: Term) -> bool:
    """Equal up to name spellings: same structure, constants, and labels."""
    return lockstep(t1, t2, lambda a, b: a.label == b.label)
