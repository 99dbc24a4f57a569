"""Syntax of the diagram language: object formulas, typed arrow terms,
parsing, printing, type inference, and expansion of derived forms.

Everything here is immutable and pure.  Three dialects are supported (see
`Mode`); the trees themselves are mode-agnostic, legality is enforced by the
parsers and by `check_mode` / `check_object_mode`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator, Mapping


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
    """Base of object and arrow nodes: slotted frozen dataclasses whose
    structural hash is computed once and then read from a slot.

    The class name is part of the hash, so nodes of different kinds with
    equal fields (`Tensor(p,q)` and `Oplus(p,q)`) do not collide.  Writing
    the slot is idempotent, so concurrent first calls are harmless.
    """

    __slots__ = ("_h",)

    def __hash__(self) -> int:
        h = getattr(self, "_h", None)
        if h is None:
            h = hash((type(self).__name__,
                      *[getattr(self, f) for f in self.__match_args__]))
            object.__setattr__(self, "_h", h)
        return h


#: surface keyword of each generator -> {number of object arguments: class}
_KEYWORDS: dict[str, dict[int, type]] = {}


def _node(cls=None, *, kw: str | None = None):
    """Declare a term node: a frozen, slotted dataclass with a cached hash.

    The names of its object fields and of its arrow fields are recorded once,
    in declaration order, in `_objs` and `_arrows`; the tree helpers, the
    parser and the printer read them instead of naming each kind.  A
    generator passes its keyword `kw`; its arity is its number of object
    fields, so `eta[a]` and `eta[a,b]` are two classes under one keyword.
    """

    def declare(cls):
        cls = dataclass(frozen=True, slots=True)(cls)
        cls.__hash__ = _Node.__hash__
        # annotations are strings here (`from __future__ import annotations`)
        cls._objs = tuple(f.name for f in fields(cls) if f.type == "Obj")
        cls._arrows = tuple(f.name for f in fields(cls) if f.type == "Arrow")
        # `rebuild_arrow` passes the objects, then the arrows, positionally
        if cls._arrows and cls.__match_args__ != cls._objs + cls._arrows:
            raise TypeError(f"{cls.__name__}: object fields must come first")
        cls._kw = kw
        if kw is not None:
            _KEYWORDS.setdefault(kw, {})[len(cls._objs)] = cls
        return cls

    return declare if cls is None else declare(cls)


# ---------------------------------------------------------------------------
# Object formulas


class Obj(_Node):
    """An object formula."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_object(self)


@_node
class Gen(Obj):
    """A generator: any identifier that is not a reserved word."""

    name: str


@_node
class Unit(Obj):
    """The tensor unit, written `I`."""


@_node
class Zero(Obj):
    """The zero object, written `0`."""


@_node
class Tensor(Obj):
    left: Obj
    right: Obj


@_node
class Oplus(Obj):
    left: Obj
    right: Obj


@_node
class Hom(Obj):
    """Internal hom `left -o right` (smcb only)."""

    left: Obj
    right: Obj


@_node
class Dual(Obj):
    """Dual object `inner*` (ccb/dccb only)."""

    inner: Obj


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


def check_object_mode(a: Obj, mode: Mode) -> None:
    for sub in subobjects(a):
        if isinstance(sub, Hom) and mode is not Mode.SMCB:
            raise ModeViolation(f"'-o' not allowed in {mode} mode")
        if isinstance(sub, Dual) and mode is Mode.SMCB:
            raise ModeViolation("dual (*) not allowed in smcb mode")


# ---------------------------------------------------------------------------
# Arrow terms


class Arrow(_Node):
    """An arrow term.  Use `infer_type` for its source and target, which
    is cached in the `_ty` slot once the term is known to be well typed."""

    __slots__ = ("_ty",)

    def __str__(self) -> str:
        return render_arrow(self)


@_node(kw="id")
class Id(Arrow):
    """id[a] : a -> a"""

    obj: Obj


@_node(kw="alpha")
class Alpha(Arrow):
    """alpha[a,b,c] : a (x) (b (x) c) -> (a (x) b) (x) c"""

    a: Obj
    b: Obj
    c: Obj


@_node(kw="alpha'")
class AlphaInv(Arrow):
    """alpha'[a,b,c] : (a (x) b) (x) c -> a (x) (b (x) c)"""

    a: Obj
    b: Obj
    c: Obj


@_node(kw="lambda")
class Lambda(Arrow):
    """lambda[a] : I (x) a -> a"""

    a: Obj


@_node(kw="lambda'")
class LambdaInv(Arrow):
    """lambda'[a] : a -> I (x) a"""

    a: Obj


@_node(kw="sigma")
class Sigma(Arrow):
    """sigma[a,b] : a (x) b -> b (x) a"""

    a: Obj
    b: Obj


@_node(kw="eta")
class Eta(Arrow):
    """eta[a,b] : b -> a -o (a (x) b)   (smcb)"""

    a: Obj
    b: Obj


@_node(kw="eps")
class Eps(Arrow):
    """eps[a,b] : a (x) (a -o b) -> b   (smcb)"""

    a: Obj
    b: Obj


@_node(kw="eta")
class EtaC(Arrow):
    """eta[a] : I -> a* (x) a   (ccb; sugar in dccb)"""

    a: Obj


@_node(kw="eps")
class EpsC(Arrow):
    """eps[a] : a (x) a* -> I   (ccb/dccb)"""

    a: Obj


@_node(kw="inj1")
class Inj1(Arrow):
    """inj1[a,b] : a -> a (+) b"""

    a: Obj
    b: Obj


@_node(kw="inj2")
class Inj2(Arrow):
    """inj2[a,b] : b -> a (+) b"""

    a: Obj
    b: Obj


@_node(kw="proj1")
class Proj1(Arrow):
    """proj1[a,b] : a (+) b -> a"""

    a: Obj
    b: Obj


@_node(kw="proj2")
class Proj2(Arrow):
    """proj2[a,b] : a (+) b -> b"""

    a: Obj
    b: Obj


@_node(kw="zero")
class ZeroMap(Arrow):
    """zero[a,b] : a -> b"""

    src: Obj
    tgt: Obj


@_node
class Compose(Arrow):
    """`after . before`, the composite running `before` first."""

    after: Arrow
    before: Arrow


@_node
class Plus(Arrow):
    left: Arrow
    right: Arrow


@_node
class TensorMap(Arrow):
    left: Arrow
    right: Arrow


@_node
class OplusMap(Arrow):
    left: Arrow
    right: Arrow


@_node
class Whisker(Arrow):
    """`[a -o g]` : (a -o b) -> (a -o b') for g : b -> b'   (smcb)"""

    obj: Obj
    body: Arrow


@_node
class HomMap(Arrow):
    """hom(f,g) : (a' -o b) -> (a -o b') for f : a -> a', g : b -> b'.

    Derived form; `expand_derived` rewrites it into whiskers and caps.
    """

    contra: Arrow
    cov: Arrow


@_node
class Dagger(Arrow):
    """dg(f) : b -> a for f : a -> b   (dccb)"""

    inner: Arrow


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


def check_mode(t: Arrow, mode: Mode) -> None:
    """Reject node kinds that are not part of the given dialect.

    In dccb, `alpha'`, `lambda'`, unary `eta` and `inj1`/`inj2` are accepted
    as sugar (they are eliminated by `expand_derived`).
    """
    for sub in subarrows(t):
        match sub:
            case EtaC() | EpsC() if mode is Mode.SMCB:
                raise ModeViolation(f"unary eta/eps not allowed in {mode} mode")
            case Eta() | Eps() if mode is not Mode.SMCB:
                raise ModeViolation(f"binary eta/eps not allowed in {mode} mode")
            case Whisker() | HomMap() if mode is not Mode.SMCB:
                raise ModeViolation(f"'-o' on arrows not allowed in {mode} mode")
            case Dagger() if mode is not Mode.DCCB:
                raise ModeViolation(f"dagger not allowed in {mode} mode")
        for a in node_objects(sub):
            check_object_mode(a, mode)


# ---------------------------------------------------------------------------
# Type inference


def infer_type(t: Arrow) -> tuple[Obj, Obj]:
    """Source and target of a well-typed term.

    Raises `TypeMismatch` naming the offending subterm path when composition
    endpoints disagree or the sides of `+` have different types.
    """
    return _infer(t, None)


def _path_text(path: tuple | None) -> str:
    """Dotted field path of a subterm, or `top`.  `_infer` passes paths down
    as nested `(parent path, field)` pairs and renders one only for an error,
    since the text grows with the depth of the subterm."""
    fields = []
    while path is not None:
        path, field = path
        fields.append(field)
    return ".".join(reversed(fields)) or "top"


def _infer(t: Arrow, path: tuple | None) -> tuple[Obj, Obj]:
    # only well-typed subterms are cached, so a failing subterm is checked
    # again on every call and its message does not depend on earlier calls
    got = getattr(t, "_ty", None)
    if got is not None:
        return got
    match t:
        case Id(a):
            ty = (a, a)
        case Alpha(a, b, c):
            ty = (Tensor(a, Tensor(b, c)), Tensor(Tensor(a, b), c))
        case AlphaInv(a, b, c):
            ty = (Tensor(Tensor(a, b), c), Tensor(a, Tensor(b, c)))
        case Lambda(a):
            ty = (Tensor(Unit(), a), a)
        case LambdaInv(a):
            ty = (a, Tensor(Unit(), a))
        case Sigma(a, b):
            ty = (Tensor(a, b), Tensor(b, a))
        case Eta(a, b):
            ty = (b, Hom(a, Tensor(a, b)))
        case Eps(a, b):
            ty = (Tensor(a, Hom(a, b)), b)
        case EtaC(a):
            ty = (Unit(), Tensor(Dual(a), a))
        case EpsC(a):
            ty = (Tensor(a, Dual(a)), Unit())
        case Inj1(a, b):
            ty = (a, Oplus(a, b))
        case Inj2(a, b):
            ty = (b, Oplus(a, b))
        case Proj1(a, b):
            ty = (Oplus(a, b), a)
        case Proj2(a, b):
            ty = (Oplus(a, b), b)
        case ZeroMap(a, b):
            ty = (a, b)
        case Compose(g, f):
            fs, ft = _infer(f, (path, "before"))
            gs, gt = _infer(g, (path, "after"))
            if ft != gs:
                raise TypeMismatch(
                    f"cannot compose at {_path_text(path)}: 'before' ends at "
                    f"{render_object(ft)} but 'after' starts at {render_object(gs)}"
                )
            ty = (fs, gt)
        case Plus(l, r):
            ls = _infer(l, (path, "left"))
            rs = _infer(r, (path, "right"))
            if ls != rs:
                raise TypeMismatch(
                    f"cannot add at {_path_text(path)}: left is "
                    f"{render_object(ls[0])} -> {render_object(ls[1])} but right is "
                    f"{render_object(rs[0])} -> {render_object(rs[1])}"
                )
            ty = ls
        case TensorMap(l, r):
            ls, lt = _infer(l, (path, "left"))
            rs, rt = _infer(r, (path, "right"))
            ty = (Tensor(ls, rs), Tensor(lt, rt))
        case OplusMap(l, r):
            ls, lt = _infer(l, (path, "left"))
            rs, rt = _infer(r, (path, "right"))
            ty = (Oplus(ls, rs), Oplus(lt, rt))
        case Whisker(a, g):
            gs, gt = _infer(g, (path, "body"))
            ty = (Hom(a, gs), Hom(a, gt))
        case HomMap(f, g):
            fs, ft = _infer(f, (path, "contra"))
            gs, gt = _infer(g, (path, "cov"))
            ty = (Hom(ft, gs), Hom(fs, gt))
        case Dagger(f):
            fs, ft = _infer(f, (path, "inner"))
            ty = (ft, fs)
        case _:
            raise TypeMismatch(f"unknown arrow node {t!r}")
    object.__setattr__(t, "_ty", ty)
    return ty


# ---------------------------------------------------------------------------
# Derived forms


def expand_derived(t: Arrow, mode: Mode = Mode.SMCB) -> Arrow:
    """Rewrite derived node kinds into primitives for the given mode.

    `hom(f,g)` becomes the whisker/cap composite; in dccb mode the sugar
    arrows `alpha'`, `lambda'`, unary `eta` and `inj1`/`inj2` are expressed
    through the dagger.  Fixpoint on primitive-only input, where it returns
    `t` itself, so cached hashes and types carry over.
    """
    kids = arrow_children(t)
    if kids:
        new = tuple(expand_derived(k, mode) for k in kids)
        if any(n is not k for n, k in zip(new, kids)):
            t = rebuild_arrow(t, new)
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
_PUNCT_RE = re.compile("|".join(map(re.escape, _PUNCT)))


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "num" | "op" | "eof"
    text: str
    pos: int


def is_reserved_word(name: str) -> bool:
    """Whether an identifier is claimed by the grammar (primes ignored)."""
    return name.rstrip("'") in _RESERVED_BASE


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            break
        op = _PUNCT_RE.match(text, i)
        if op:
            toks.append(Token("op", op.group(), i))
            i = op.end()
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            while j < n and text[j] == "'":
                j += 1
            toks.append(Token("ident", text[i:j], i))
            i = j
        elif ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("num", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(Token("eof", "", n))
    return toks


# ---------------------------------------------------------------------------
# Parser

Defs = Mapping[str, "Obj | Arrow"]


class _Parser:
    def __init__(self, toks: list[Token], defs: Defs):
        self.toks = toks
        self.pos = 0
        self.defs = defs

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)

    # objects: -o (level 1, right assoc) < (+) (2) < (x) (3) < postfix * / atoms

    def object_expr(self, min_prec: int = 1) -> Obj:
        left = self.object_atom()
        while True:
            if self.at_op("-o") and min_prec <= 1:
                self.advance()
                left = Hom(left, self.object_expr(1))
            elif self.at_op("(+)") and min_prec <= 2:
                self.advance()
                left = Oplus(left, self.object_expr(3))
            elif self.at_op("(x)") and min_prec <= 3:
                self.advance()
                left = Tensor(left, self.object_expr(4))
            else:
                return left

    def object_atom(self) -> Obj:
        tok = self.advance()
        e: Obj
        if tok.kind == "op" and tok.text == "(":
            e = self.object_expr(1)
            self.expect_op(")")
        elif tok.kind == "num":
            if tok.text != "0":
                raise ParseError(f"unexpected number {tok.text!r} in object", tok.pos)
            e = Zero()
        elif tok.kind == "ident":
            if tok.text == "I":
                e = Unit()
            elif tok.text in self.defs:
                d = self.defs[tok.text]
                if not isinstance(d, Obj):
                    raise ParseError(f"{tok.text!r} names an arrow, not an object", tok.pos)
                e = d
            elif is_reserved_word(tok.text):
                raise ParseError(f"reserved word {tok.text!r} cannot be an object", tok.pos)
            else:
                e = Gen(tok.text)
        else:
            raise ParseError(f"expected an object, found {tok.text or 'end of input'!r}", tok.pos)
        while self.at_op("*"):
            self.advance()
            e = Dual(e)
        return e

    # arrows: + (level 1) < . ; (2) < (x) (+) (3) < atoms

    def arrow_expr(self, min_prec: int = 1) -> Arrow:
        left = self.arrow_atom()
        while True:
            if self.at_op("+") and min_prec <= 1:
                self.advance()
                left = Plus(left, self.arrow_expr(2))
            elif self.at_op(".") and min_prec <= 2:
                self.advance()
                left = Compose(left, self.arrow_expr(3))
            elif self.at_op(";") and min_prec <= 2:
                self.advance()
                left = Compose(self.arrow_expr(3), left)
            elif self.at_op("(x)") and min_prec <= 3:
                self.advance()
                left = TensorMap(left, self.arrow_expr(4))
            elif self.at_op("(+)") and min_prec <= 3:
                self.advance()
                left = OplusMap(left, self.arrow_expr(4))
            else:
                return left

    def _bracket_objects(self, low: int, high: int, what: str) -> list[Obj]:
        self.expect_op("[")
        objs = [self.object_expr(1)]
        while self.at_op(","):
            self.advance()
            objs.append(self.object_expr(1))
        self.expect_op("]")
        if not low <= len(objs) <= high:
            raise ParseError(f"{what} takes {low if low == high else f'{low} or {high}'}"
                             f" object arguments, got {len(objs)}", self.peek().pos)
        return objs

    def arrow_atom(self) -> Arrow:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            e = self.arrow_expr(1)
            self.expect_op(")")
            return e
        if tok.kind == "op" and tok.text == "[":
            self.advance()
            a = self.object_expr(2)  # parenthesize '-o' heads
            self.expect_op("-o")
            g = self.arrow_expr(1)
            self.expect_op("]")
            return Whisker(a, g)
        if tok.kind != "ident":
            raise ParseError(f"expected an arrow, found {tok.text or 'end of input'!r}", tok.pos)
        self.advance()
        name = tok.text
        arities = _KEYWORDS.get(name)
        if arities is not None:
            objs = self._bracket_objects(min(arities), max(arities), name)
            return arities[len(objs)](*objs)
        match name:
            case "hom":
                self.expect_op("(")
                f = self.arrow_expr(1)
                self.expect_op(",")
                g = self.arrow_expr(1)
                self.expect_op(")")
                return HomMap(f, g)
            case "dg":
                self.expect_op("(")
                f = self.arrow_expr(1)
                self.expect_op(")")
                return Dagger(f)
            case _:
                if name in self.defs:
                    d = self.defs[name]
                    if not isinstance(d, Arrow):
                        raise ParseError(f"{name!r} names an object, not an arrow", tok.pos)
                    return d
                raise ParseError(f"unknown arrow {name!r}", tok.pos)


def parse_object(text: str, mode: Mode = Mode.SMCB, defs: Defs | None = None) -> Obj:
    """Parse an object formula, rejecting constructs illegal for `mode`."""
    p = _Parser(tokenize(text), defs or {})
    e = p.object_expr(1)
    p.expect_eof()
    check_object_mode(e, mode)
    return e


def parse_arrow(text: str, mode: Mode = Mode.SMCB, defs: Defs | None = None) -> Arrow:
    """Parse an arrow term; the result is mode-legal and well-typed."""
    p = _Parser(tokenize(text), defs or {})
    t = p.arrow_expr(1)
    p.expect_eof()
    check_mode(t, mode)
    infer_type(t)
    return t


# ---------------------------------------------------------------------------
# Printer.  parse(render(t)) is structurally equal to t.


def render_object(a: Obj) -> str:
    return _robj(a, 1)


def _robj(a: Obj, prec: int) -> str:
    match a:
        case Gen(name):
            return name
        case Unit():
            return "I"
        case Zero():
            return "0"
        case Dual(x):
            return _robj(x, 4) + "*"
        case Tensor(l, r):
            s, p = f"{_robj(l, 3)} (x) {_robj(r, 4)}", 3
        case Oplus(l, r):
            s, p = f"{_robj(l, 2)} (+) {_robj(r, 3)}", 2
        case Hom(l, r):
            s, p = f"{_robj(l, 2)} -o {_robj(r, 1)}", 1
        case _:
            raise ValueError(f"unknown object node {a!r}")
    return f"({s})" if p < prec else s


def render_arrow(t: Arrow) -> str:
    return _rarr(t, 1)


def _rarr(t: Arrow, prec: int) -> str:
    match t:
        case Arrow(_kw=str() as kw):
            return f"{kw}[{','.join(map(render_object, node_objects(t)))}]"
        case Whisker(a, g):
            return f"[{_robj(a, 2)} -o {_rarr(g, 1)}]"
        case HomMap(f, g):
            return f"hom({_rarr(f, 1)}, {_rarr(g, 1)})"
        case Dagger(f):
            return f"dg({_rarr(f, 1)})"
        case Plus(l, r):
            s, p = f"{_rarr(l, 1)} + {_rarr(r, 2)}", 1
        case Compose(g, f):
            s, p = f"{_rarr(g, 2)} . {_rarr(f, 3)}", 2
        case TensorMap(l, r):
            s, p = f"{_rarr(l, 3)} (x) {_rarr(r, 4)}", 3
        case OplusMap(l, r):
            s, p = f"{_rarr(l, 3)} (+) {_rarr(r, 4)}", 3
        case _:
            raise ValueError(f"unknown arrow node {t!r}")
    return f"({s})" if p < prec else s


def render_text(t: Obj | Arrow) -> str:
    """Concrete syntax of an object or arrow; inverse of the parsers."""
    return render_object(t) if isinstance(t, Obj) else render_arrow(t)
