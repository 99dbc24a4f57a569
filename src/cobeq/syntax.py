"""Syntax of the diagram language: object formulas, typed arrow terms,
parsing, printing, type inference, and expansion of derived forms.

Everything here is immutable and pure.  Each node kind is declared in one
`_kind` row: its object fields, its arrow fields, an arrow kind's typing
rule and a generator's keyword.  Three dialects are supported (see `Mode`);
the trees themselves are mode-agnostic, legality is enforced by the parsers
and by `check_mode` / `check_object_mode`.  A node's constructor sets its
hash.  Each `parse_arrow` or `parse_object` call builds every distinct
subterm once, through an intern table that lives as long as that parse:
equal subterms of one result are one object.  Type inference, expansion and
printing walk a term on an explicit stack; the parser's nested parentheses
and `==` on equal but distinct terms take Python frames per level.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from enum import Enum
from typing import Callable, Iterator, Mapping


class Mode(Enum):
    """Language dialect switch."""

    SMCB = "smcb"  # monoidal closed with biproducts: binary -o, whiskering
    CCB = "ccb"    # compact closed with biproducts: unary dual, caps/cups
    DCCB = "dccb"  # ccb plus dagger; alpha', lambda', eta, inj1/2 are sugar

    def __str__(self) -> str:
        return self.value


class LangError(Exception):
    """Base class for syntax-level failures."""


class ParseError(LangError):
    def __init__(self, message: str, pos: int | None = None):
        self.message = message
        self.pos = pos
        super().__init__(message if pos is None else f"col {pos + 1}: {message}")


class TypeMismatch(LangError):
    pass


class ModeViolation(LangError):
    pass


# ---------------------------------------------------------------------------
# Term nodes


class _Node:
    """Base of object and arrow nodes: slotted and immutable, equal when
    they are of one kind with equal fields, with a structural hash that the
    constructor stores in a slot: `hash((kind name, *fields))`, from the
    fields' stored hashes.

    The class name is part of the hash, so nodes of different kinds with
    equal fields (`Tensor(p,q)` and `Oplus(p,q)`) do not collide.
    """

    __slots__ = ("_h",)

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        # pickle and copy rebuild a node through its constructor, since the
        # frozen `__setattr__` refuses the default restoring of slots
        return type(self), tuple([getattr(self, f) for f in self.__match_args__])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


#: surface keyword of each generator -> {number of object arguments: class}
_KEYWORDS: dict[str, dict[int, type]] = {}

#: the constructor and equality of one kind, written out per kind as
#: `dataclasses` writes them: methods shared by all kinds that loop over the
#: fields construct and compare several times slower.  `_set_<field>` stores
#: a field through its slot's descriptor, past the frozen `__setattr__`, and
#: `_set_hash` the node's hash.
_METHODS = """
def __init__(self, {args}):
    {sets}_set_hash(self, hash(({name!r},{key})))
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
"""


def _kind(base: type, name: str, objs: str = "", arrows: str = "", *,
          kw: str | None = None, ty: Callable[..., tuple[Obj, Obj]] | None = None,
          atom: str | None = None) -> type:
    """Declare a term-node kind: its object fields, then its arrow fields,
    each a space-separated list in constructor order.  An arrow kind gives
    its typing rule `ty`, from its object fields, then the `(source,
    target)` of each arrow field, to its own `(source, target)`.  A
    generator gives its keyword `kw`; its arity is its number of object
    fields, so `eta[a]` and `eta[a,b]` are two kinds under one keyword.
    `atom` names a first field that holds no term, a generator object's
    identifier.

    The names of the object and the arrow fields are kept in `_objs` and
    `_arrows`; the tree helpers, the parser and the printer read them
    instead of naming each kind.
    """
    objs_, arrows_ = tuple(objs.split()), tuple(arrows.split())
    fields = ((atom,) if atom else ()) + objs_ + arrows_
    ns: dict = {"_set_hash": _Node._h.__set__}
    exec(_METHODS.format(
        args=", ".join(fields), name=name, key="".join(f" {f}," for f in fields),
        sets="".join(f"_set_{f}(self, {f})\n    " for f in fields),
        mine="".join(f"self.{f}, " for f in fields),
        theirs="".join(f"other.{f}, " for f in fields)), ns)
    cls = type(name, (base,), {
        "__slots__": fields, "__match_args__": fields,
        "__init__": ns["__init__"], "__eq__": ns["__eq__"],
        # a class that defines `__eq__` otherwise gets `__hash__ = None`
        "__hash__": _Node.__hash__,
        "_objs": objs_, "_arrows": arrows_, "_kw": kw,
        "_rule": None if ty is None else staticmethod(ty),
    })
    # the methods read their setters from `ns` when called; the slots exist now
    ns.update({f"_set_{f}": getattr(cls, f).__set__ for f in fields})
    if kw is not None:
        _KEYWORDS.setdefault(kw, {})[len(objs_)] = cls
    return cls


# ---------------------------------------------------------------------------
# Object formulas


class Obj(_Node):
    """An object formula."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_object(self)


# a generator: any identifier that is not a reserved word
Gen = _kind(Obj, "Gen", atom="name")
Unit = _kind(Obj, "Unit")  # the tensor unit, written `I`
Zero = _kind(Obj, "Zero")  # the zero object, written `0`
Tensor = _kind(Obj, "Tensor", "left right")
Oplus = _kind(Obj, "Oplus", "left right")
Hom = _kind(Obj, "Hom", "left right")  # internal hom `left -o right` (smcb)
Dual = _kind(Obj, "Dual", "inner")  # dual object `inner*` (ccb/dccb)


def object_children(a: Obj) -> tuple[Obj, ...]:
    """Direct subformulas of `a`, in field order."""
    return tuple([getattr(a, f) for f in a._objs])


def subobjects(a: Obj) -> Iterator[Obj]:
    """All subformulas of `a`, pre-order."""
    stack = [a]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(object_children(x)))


# ---------------------------------------------------------------------------
# Arrow terms


class Arrow(_Node):
    """An arrow term.  Use `infer_type` for its source and target, which
    is cached in the `_ty` slot once the term is known to be well typed."""

    __slots__ = ("_ty",)

    def __str__(self) -> str:
        return render_arrow(self)


# generators, each with its typing rule; binary eta/eps are smcb's, unary
# eta/eps ccb's and dccb's
Id = _kind(Arrow, "Id", "obj", kw="id", ty=lambda a: (a, a))
Alpha = _kind(Arrow, "Alpha", "a b c", kw="alpha",
              ty=lambda a, b, c: (Tensor(a, Tensor(b, c)), Tensor(Tensor(a, b), c)))
AlphaInv = _kind(Arrow, "AlphaInv", "a b c", kw="alpha'",
                 ty=lambda a, b, c: (Tensor(Tensor(a, b), c), Tensor(a, Tensor(b, c))))
Lambda = _kind(Arrow, "Lambda", "a", kw="lambda", ty=lambda a: (Tensor(Unit(), a), a))
LambdaInv = _kind(Arrow, "LambdaInv", "a", kw="lambda'",
                  ty=lambda a: (a, Tensor(Unit(), a)))
Sigma = _kind(Arrow, "Sigma", "a b", kw="sigma",
              ty=lambda a, b: (Tensor(a, b), Tensor(b, a)))
Eta = _kind(Arrow, "Eta", "a b", kw="eta", ty=lambda a, b: (b, Hom(a, Tensor(a, b))))
Eps = _kind(Arrow, "Eps", "a b", kw="eps", ty=lambda a, b: (Tensor(a, Hom(a, b)), b))
EtaC = _kind(Arrow, "EtaC", "a", kw="eta", ty=lambda a: (Unit(), Tensor(Dual(a), a)))
EpsC = _kind(Arrow, "EpsC", "a", kw="eps", ty=lambda a: (Tensor(a, Dual(a)), Unit()))
Inj1 = _kind(Arrow, "Inj1", "a b", kw="inj1", ty=lambda a, b: (a, Oplus(a, b)))
Inj2 = _kind(Arrow, "Inj2", "a b", kw="inj2", ty=lambda a, b: (b, Oplus(a, b)))
Proj1 = _kind(Arrow, "Proj1", "a b", kw="proj1", ty=lambda a, b: (Oplus(a, b), a))
Proj2 = _kind(Arrow, "Proj2", "a b", kw="proj2", ty=lambda a, b: (Oplus(a, b), b))
ZeroMap = _kind(Arrow, "ZeroMap", "src tgt", kw="zero", ty=lambda a, b: (a, b))

# combinators, each rule taking the types of the arrow fields after the
# objects; `infer_type` checks that composed ends meet and summands agree
Compose = _kind(Arrow, "Compose", "", "after before",  # `after . before`, `before` first
                ty=lambda g, f: (f[0], g[1]))
Plus = _kind(Arrow, "Plus", "", "left right", ty=lambda l, r: l)
TensorMap = _kind(Arrow, "TensorMap", "", "left right",
                  ty=lambda l, r: (Tensor(l[0], r[0]), Tensor(l[1], r[1])))
OplusMap = _kind(Arrow, "OplusMap", "", "left right",
                 ty=lambda l, r: (Oplus(l[0], r[0]), Oplus(l[1], r[1])))
Whisker = _kind(Arrow, "Whisker", "obj", "body",  # `[obj -o body]` (smcb)
                ty=lambda a, g: (Hom(a, g[0]), Hom(a, g[1])))
# `hom(contra, cov)` (smcb), a derived form that `expand_derived` rewrites
# into whiskers and caps
HomMap = _kind(Arrow, "HomMap", "", "contra cov",
               ty=lambda f, g: (Hom(f[1], g[0]), Hom(f[0], g[1])))
Dagger = _kind(Arrow, "Dagger", "", "inner",  # `dg(inner)` (dccb)
               ty=lambda f: (f[1], f[0]))


def arrow_children(t: Arrow) -> tuple[Arrow, ...]:
    """Direct arrow subterms of `t`, in field order."""
    return tuple([getattr(t, f) for f in t._arrows])


def rebuild_arrow(t: Arrow, kids: tuple[Arrow, ...]) -> Arrow:
    """Copy of `t` with its direct arrow children replaced by `kids`."""
    if not t._arrows:
        assert not kids
        return t
    return type(t)(*node_objects(t), *kids)


def node_objects(t: Arrow) -> tuple[Obj, ...]:
    """Object annotations carried directly by the node."""
    return tuple([getattr(t, f) for f in t._objs])


def subarrows(t: Arrow) -> Iterator[Arrow]:
    """All subterms of `t`, pre-order."""
    stack = [t]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(arrow_children(x)))


def _fold(t: Arrow, step: Callable[[Arrow, list], object]):
    """The value at `t` of `step(x, values at x's arrow children)`: each
    distinct subterm is stepped once, children first, from an explicit
    stack, with a memo keyed by `id(x)`, since a node key compares by the
    recursive `__eq__`."""
    memo, stack = {}, [t]
    while stack:
        x = stack[-1]
        if id(x) in memo:
            stack.pop()
            continue
        kids = arrow_children(x)
        todo = [k for k in kids if id(k) not in memo]
        if todo:
            stack += reversed(todo)
            continue
        stack.pop()
        memo[id(x)] = step(x, [memo[id(k)] for k in kids])
    return memo[id(t)]


#: dialect -> {node kind it rejects: the `ModeViolation` message}.  In dccb,
#: `alpha'`, `lambda'`, unary `eta` and `inj1`/`inj2` are accepted as sugar
#: (they are eliminated by `expand_derived`).
_FORBIDDEN: dict[Mode, dict[type, str]] = {mode: {
    kind: message.format(mode)
    for kinds, modes, message in [
        ((Hom,), "ccb dccb", "'-o' not allowed in {} mode"),
        ((Dual,), "smcb", "dual (*) not allowed in {} mode"),
        ((EtaC, EpsC), "smcb", "unary eta/eps not allowed in {} mode"),
        ((Eta, Eps), "ccb dccb", "binary eta/eps not allowed in {} mode"),
        ((Whisker, HomMap), "ccb dccb", "'-o' on arrows not allowed in {} mode"),
        ((Dagger,), "smcb ccb", "dagger not allowed in {} mode"),
    ] if str(mode) in modes.split() for kind in kinds} for mode in Mode}


def check_object_mode(a: Obj, mode: Mode) -> None:
    forbidden = _FORBIDDEN[mode]
    for sub in subobjects(a):
        if type(sub) in forbidden:
            raise ModeViolation(forbidden[type(sub)])


def check_mode(t: Arrow, mode: Mode) -> None:
    """Reject node kinds that are not part of the given dialect, naming the
    first in pre-order, each arrow node before its objects."""
    forbidden = _FORBIDDEN[mode]
    for sub in subarrows(t):
        if type(sub) in forbidden:
            raise ModeViolation(forbidden[type(sub)])
        for a in node_objects(sub):
            check_object_mode(a, mode)


# ---------------------------------------------------------------------------
# Type inference


def infer_type(t: Arrow) -> tuple[Obj, Obj]:
    """Source and target of a well-typed term.

    Raises `TypeMismatch` naming the offending subterm path when composition
    endpoints disagree or the sides of `+` have different types.  Each
    node's rule is applied once its children are typed, from an explicit
    stack: `before` ahead of `after`, other kinds in field order.  Only
    well-typed subterms are cached, so a failing subterm is checked again at
    every occurrence and its message does not depend on earlier calls.
    """
    # (node, path, its arrow children once they are pushed)
    stack = [(t, None, None)]
    while stack:
        node, path, kids = stack.pop()
        if kids is None:
            if hasattr(node, "_ty"):
                continue
            kids = [getattr(node, f) for f in node._arrows]
            if kids:
                stack.append((node, path, kids))
                todo = [(k, (path, f), None) for k, f in zip(kids, node._arrows)]
                # the last pushed is typed first
                stack += todo if type(node) is Compose else reversed(todo)
                continue
        tys = [k._ty for k in kids]
        if type(node) is Compose and tys[1][1] != tys[0][0]:
            raise TypeMismatch(
                f"cannot compose at {_path_text(path)}: 'before' ends at "
                f"{render_object(tys[1][1])} but 'after' starts at "
                f"{render_object(tys[0][0])}")
        if type(node) is Plus and tys[0] != tys[1]:
            left, right = [f"{render_object(a)} -> {render_object(b)}" for a, b in tys]
            raise TypeMismatch(
                f"cannot add at {_path_text(path)}: left is {left} but right is {right}")
        object.__setattr__(node, "_ty", node._rule(*node_objects(node), *tys))
    return t._ty


def _path_text(path: tuple | None) -> str:
    """Dotted field path of a subterm, or `top`.  `infer_type` keeps paths
    as nested `(parent path, field)` pairs and renders one only for an
    error, since the text grows with the depth of the subterm."""
    fields = []
    while path is not None:
        path, field = path
        fields.append(field)
    return ".".join(reversed(fields)) or "top"


# ---------------------------------------------------------------------------
# Derived forms


def expand_derived(t: Arrow, mode: Mode = Mode.SMCB) -> Arrow:
    """Rewrite derived node kinds into primitives for the given mode.

    `hom(f,g)` becomes the whisker/cap composite; in dccb mode the sugar
    arrows `alpha'`, `lambda'`, unary `eta` and `inj1`/`inj2` are expressed
    through the dagger.  Fixpoint on primitive-only input, where it returns
    `t` itself, so cached hashes and types carry over.
    """
    def step(t: Arrow, new: list[Arrow]) -> Arrow:
        if any(n is not k for n, k in zip(new, arrow_children(t))):
            t = rebuild_arrow(t, tuple(new))
        match t:
            case HomMap(f, g):
                a, a1 = infer_type(f)
                b, _ = infer_type(g)
                hom_ab = Hom(a1, b)
                contra = Compose(
                    Compose(Whisker(a, Eps(a1, b)),
                            Whisker(a, TensorMap(f, Id(hom_ab)))),
                    Eta(a, hom_ab),
                )
                if g == Id(b):
                    return contra
                if f == Id(a):
                    return Whisker(a, g)
                return Compose(Whisker(a, g), contra)
            case AlphaInv(a, b, c) if mode is Mode.DCCB:
                return Dagger(Alpha(a, b, c))
            case LambdaInv(a) if mode is Mode.DCCB:
                return Dagger(Lambda(a))
            case EtaC(a) if mode is Mode.DCCB:
                return Compose(Sigma(a, Dual(a)), Dagger(EpsC(a)))
            case Inj1(a, b) if mode is Mode.DCCB:
                return Dagger(Proj1(a, b))
            case Inj2(a, b) if mode is Mode.DCCB:
                return Dagger(Proj2(a, b))
            case _:
                return t

    return _fold(t, step)


def compose_chain(steps: list[Arrow]) -> Arrow:
    """Composite of a pipeline, first step first."""
    acc = steps[0]
    for s in steps[1:]:
        acc = Compose(s, acc)
    return acc


def dual_map(f: Arrow) -> Arrow:
    """Contravariant dual f* : b* -> a* of f : a -> b (ccb/dccb language).

    Identities are sent to identities; otherwise the standard cap/cup
    composite is emitted.
    """
    if isinstance(f, Id):
        return Id(Dual(f.obj))
    a, b = infer_type(f)
    da, db = Dual(a), Dual(b)
    return compose_chain([
        LambdaInv(db),                            # b* -> I (x) b*
        TensorMap(EtaC(a), Id(db)),               # -> (a* (x) a) (x) b*
        AlphaInv(da, a, db),                      # -> a* (x) (a (x) b*)
        TensorMap(Id(da), TensorMap(f, Id(db))),  # -> a* (x) (b (x) b*)
        TensorMap(Id(da), EpsC(b)),               # -> a* (x) I
        Sigma(da, Unit()),                        # -> I (x) a*
        Lambda(da),                               # -> a*
    ])


# ---------------------------------------------------------------------------
# Tokenizer

_RESERVED_BASE = frozenset({kw.rstrip("'") for kw in _KEYWORDS} | {
    "hom", "dg", "I",
    "mode", "obj", "arrow", "check", "normalize", "interpret", "decompose",
})

# multi-char operators first so they win over their prefixes: `re` tries
# the alternatives left to right
_PUNCT = ("(x)", "(+)", "->", "-o", ".", ";", "+", "*",
          "[", "]", "(", ")", ",", "=", ":")
# one token after skipping whitespace: an operator, an identifier that
# starts in ASCII (`\w` is exactly `str.isalnum()` or `_`), or a comment,
# which runs to the end of the input; `tokenize` reads anything else by the
# `str` rules
_TOKEN_RE = re.compile(r"[ \t\r\n]*(?:(?P<op>%s)|(?P<ident>[A-Za-z_]\w*'*)|(?P<comment>#))?"
                       % "|".join(map(re.escape, _PUNCT)))
_IDENT_TAIL_RE = re.compile(r"\w*'*")


def is_reserved_word(name: str) -> bool:
    """Whether an identifier is claimed by the grammar (primes ignored)."""
    return name.rstrip("'") in _RESERVED_BASE


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """`(kind, text, pos)` per token, kind "ident" | "num" | "op" | "eof"."""
    toks = []
    i, n = 0, len(text)
    while True:
        m = _TOKEN_RE.match(text, i)
        kind, i = m.lastgroup, m.end()
        if kind == "op" or kind == "ident":
            toks.append((kind, m.group(kind), m.start(kind)))
            continue
        if kind == "comment" or i == n:
            break
        # a digit, or a character outside ASCII: identifiers start with
        # `str.isalpha` and numbers are runs of `str.isdigit`
        ch = text[i]
        if ch.isalpha():
            kind, j = "ident", _IDENT_TAIL_RE.match(text, i + 1).end()
        elif ch.isdigit():
            kind, j = "num", i + 1
            while j < n and text[j].isdigit():
                j += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        toks.append((kind, text[i:j], i))
        i = j
    toks.append(("eof", "", n))
    return toks


# ---------------------------------------------------------------------------
# Parser

Defs = Mapping[str, "Obj | Arrow"]

#: infix operators of each sort: text -> (kind, precedence, right
#: associative, operands flipped); a higher precedence binds tighter.  The
#: parser and the printer both read these tables.
_OBJ_OPS: dict[str, tuple[type, int, bool, bool]] = {
    "-o": (Hom, 1, True, False),
    "(+)": (Oplus, 2, False, False),
    "(x)": (Tensor, 3, False, False),
}
_ARROW_OPS: dict[str, tuple[type, int, bool, bool]] = {
    "+": (Plus, 1, False, False),
    ".": (Compose, 2, False, False),
    ";": (Compose, 2, False, True),  # `f ; g` is `g . f`
    "(x)": (TensorMap, 3, False, False),
    "(+)": (OplusMap, 3, False, False),
}


class _Parser:
    """Recursive descent over the tokens of one text.

    Every node is built by `make` through an intern table keyed by the
    tuple that a node's constructor hashes, `(kind name, *fields)`: equal
    subterms are one object.  The table lives as long as the parser, which
    serves one parse.
    """

    def __init__(self, toks: list[tuple[str, str, int]], mode: Mode, defs: Defs):
        self.toks = toks
        #: operator text of each token, None for the others
        self.ops = [text if kind == "op" else None for kind, text, _ in toks]
        self.pos = 0
        self.defs = defs
        self.forbidden = _FORBIDDEN[mode]
        self.nodes: dict[tuple, _Node] = {}
        #: whether the result needs the mode-check walk: a kind the mode
        #: forbids was built, or a definition, perhaps from another mode,
        #: was substituted
        self.walk = False

    def make(self, cls: type, *fields) -> _Node:
        key = (cls.__name__, *fields)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*fields)
            if cls in self.forbidden:
                self.walk = True
        return node

    def advance(self) -> tuple[str, str, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        if self.ops[self.pos] != text:
            _, found, pos = self.toks[self.pos]
            raise ParseError(f"expected {text!r}, found {found or 'end of input'!r}", pos)
        self.pos += 1

    def expect_eof(self) -> None:
        kind, found, pos = self.toks[self.pos]
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {found!r}", pos)

    def expr(self, table: Mapping[str, tuple], min_prec: int = 1) -> Obj | Arrow:
        """Precedence climbing over the infix operators of one sort's
        `table`, from an atom of that sort; an operator looser than
        `min_prec` ends the operand."""
        left = self.object_atom() if table is _OBJ_OPS else self.arrow_atom()
        while True:
            op = table.get(self.ops[self.pos])
            if op is None or op[1] < min_prec:
                return left
            self.pos += 1
            kind, prec, right_assoc, flipped = op
            right = self.expr(table, prec if right_assoc else prec + 1)
            if flipped:
                left, right = right, left
            left = self.make(kind, left, right)

    def object_atom(self) -> Obj:
        kind, text, pos = self.advance()
        e: Obj
        if kind == "op" and text == "(":
            e = self.expr(_OBJ_OPS)
            self.expect_op(")")
        elif kind == "num":
            if text != "0":
                raise ParseError(f"unexpected number {text!r} in object", pos)
            e = self.make(Zero)
        elif kind == "ident":
            if text == "I":
                e = self.make(Unit)
            elif text in self.defs:
                e = self.defs[text]
                if not isinstance(e, Obj):
                    raise ParseError(f"{text!r} names an arrow, not an object", pos)
                self.walk = True
            elif is_reserved_word(text):
                raise ParseError(f"reserved word {text!r} cannot be an object", pos)
            else:
                e = self.make(Gen, text)
        else:
            raise ParseError(f"expected an object, found {text or 'end of input'!r}", pos)
        while self.ops[self.pos] == "*":
            self.pos += 1
            e = self.make(Dual, e)
        return e

    def _bracket_objects(self, low: int, high: int, what: str) -> list[Obj]:
        self.expect_op("[")
        objs = [self.expr(_OBJ_OPS)]
        while self.ops[self.pos] == ",":
            self.pos += 1
            objs.append(self.expr(_OBJ_OPS))
        self.expect_op("]")
        if not low <= len(objs) <= high:
            raise ParseError(f"{what} takes {low if low == high else f'{low} or {high}'}"
                             f" object arguments, got {len(objs)}", self.toks[self.pos][2])
        return objs

    def arrow_atom(self) -> Arrow:
        op = self.ops[self.pos]
        if op == "(":
            self.pos += 1
            e = self.expr(_ARROW_OPS)
            self.expect_op(")")
            return e
        if op == "[":
            self.pos += 1
            a = self.expr(_OBJ_OPS, 2)  # parenthesize '-o' heads
            self.expect_op("-o")
            g = self.expr(_ARROW_OPS)
            self.expect_op("]")
            return self.make(Whisker, a, g)
        kind, name, pos = self.advance()
        if kind != "ident":
            raise ParseError(f"expected an arrow, found {name or 'end of input'!r}", pos)
        arities = _KEYWORDS.get(name)
        if arities is not None:
            objs = self._bracket_objects(min(arities), max(arities), name)
            return self.make(arities[len(objs)], *objs)
        match name:
            case "hom":
                self.expect_op("(")
                f = self.expr(_ARROW_OPS)
                self.expect_op(",")
                g = self.expr(_ARROW_OPS)
                self.expect_op(")")
                return self.make(HomMap, f, g)
            case "dg":
                self.expect_op("(")
                f = self.expr(_ARROW_OPS)
                self.expect_op(")")
                return self.make(Dagger, f)
            case _:
                if name in self.defs:
                    d = self.defs[name]
                    if not isinstance(d, Arrow):
                        raise ParseError(f"{name!r} names an object, not an arrow", pos)
                    self.walk = True
                    return d
                raise ParseError(f"unknown arrow {name!r}", pos)


def parse_object(text: str, mode: Mode = Mode.SMCB, defs: Defs | None = None) -> Obj:
    """Parse an object formula, rejecting constructs illegal for `mode`."""
    p = _Parser(tokenize(text), mode, defs or {})
    e = p.expr(_OBJ_OPS)
    p.expect_eof()
    if p.walk:
        check_object_mode(e, mode)
    return e


def parse_arrow(text: str, mode: Mode = Mode.SMCB, defs: Defs | None = None) -> Arrow:
    """Parse an arrow term; the result is mode-legal and well-typed."""
    p = _Parser(tokenize(text), mode, defs or {})
    t = p.expr(_ARROW_OPS)
    p.expect_eof()
    if p.walk:
        check_mode(t, mode)
    infer_type(t)
    return t


# ---------------------------------------------------------------------------
# Printer.  parse(render(t)) is structurally equal to t.


#: infix kind -> (text with its spaces, precedence, right associative),
#: printed unflipped
_INFIX = {kind: (f" {text} ", prec, right_assoc)
          for table in (_OBJ_OPS, _ARROW_OPS)
          for text, (kind, prec, right_assoc, flipped) in table.items()
          if not flipped}


def render_text(t: Obj | Arrow) -> str:
    """Concrete syntax of an object or arrow; inverse of the parsers.  Its
    pieces go on a stack and are joined once, so no subterm's text is built
    apart.  A subterm's piece is `(subterm, precedence)`: it is parenthesized
    when it is an infix term whose operator binds more loosely."""
    out, stack = [], [(t, 1)]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        t, prec = piece
        infix = _INFIX.get(type(t))
        if infix is not None:
            text, p, right_assoc = infix
            left, right = [getattr(t, f) for f in t.__match_args__]
            s = [(left, p + 1 if right_assoc else p), text,
                 (right, p if right_assoc else p + 1)]
            stack += reversed(["(", *s, ")"] if p < prec else s)
            continue
        match t:
            case Gen(name):
                s = [name]
            case Unit():
                s = ["I"]
            case Zero():
                s = ["0"]
            case Dual(x):
                s = [(x, 4), "*"]  # tighter than every infix operator
            case Arrow(_kw=str() as kw):
                s = [f"{kw}[", *[y for a in node_objects(t) for y in ((a, 1), ",")]]
                s[-1] = "]"
            case Whisker(a, g):
                s = ["[", (a, 2), " -o ", (g, 1), "]"]
            case HomMap(f, g):
                s = ["hom(", (f, 1), ", ", (g, 1), ")"]
            case Dagger(f):
                s = ["dg(", (f, 1), ")"]
            case _:
                raise ValueError(f"unknown node {t!r}")
        stack += reversed(s)
    return "".join(out)


render_object = render_arrow = render_text
