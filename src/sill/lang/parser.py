"""Concrete syntax for .sill files.

A file is a sequence of declarations:

    type N = SESSION_TYPE
    term N : FUNC_TYPE = TERM
    proc N : a:A, b:B |- c:C = PROCESS
    config N : GAMMA |- DELTA internal I = FACT, FACT, ...

Names refer to earlier declarations and are expanded during parsing, so the
resulting syntax trees are self-contained.  An instantiation ``p(a, b)``
renames the channels of p's body the way a running process is renamed: in
the environment of its code (``dynamics.dec_proc``).  Printing a parsed
module and parsing it again yields the same trees; source positions are not
compared, and neither are the names of bound channels: an instantiation
that would capture renames its binder apart to ``stem%k``, and '%' is a
reserved fresh mark (``rules.FRESH_MARKS``), so the printer names such a
binder by the least stem + number free in its scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import ast
from .errors import ParseError

__all__ = ["ParseError", "parse", "parse_type", "parse_term", "parse_proc",
           "module_to_str", "decl_to_str"]

KEYWORDS = {
    "case", "close", "config", "down", "fix", "hole", "internal", "msg",
    "proc", "rec", "recv", "send", "shift", "term", "type", "unfold", "up",
    "wait",
}
_PUNCT2 = ("|-", "->", "-o", "<-", "=>")
_PUNCT1 = set("(){}[]<>,;:.=|+&*\\^")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


# type operators, and how tightly each construct that waits for an operand
# binds it: a prefix at once, * before -o
_TYPE_OPS = {"*": ast.Tensor, "-o": ast.Lolli}
_TYPE_PREC = {ast.Down: 2, ast.Up: 2, ast.AndVal: 2, ast.ImpVal: 2, ast.Tensor: 1, ast.Lolli: 0}


@dataclass(frozen=True)
class Token:
    kind: str  # kw | ident | num | punct | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith(("fwd+", "fwd-"), i):
            toks.append(Token("kw", text[i:i + 4], line, col))
            i += 4
            col += 4
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            toks.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT1:
            toks.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.tdecls: dict[str, ast.SessionType] = {}
        self.termdecls: dict[str, ast.FuncTerm] = {}
        self.procdecls: dict[str, ast.ProcDecl] = {}

    # -- token plumbing

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def take(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("punct", "kw")

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.take()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected {text!r}, found {self.peek().text!r}")
        return self.take()

    def ident(self, what: str = "a name") -> str:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected {what}, found {t.text!r}")
        return self.take().text

    def label(self) -> str:
        t = self.peek()
        if t.kind not in ("ident", "num"):
            self.fail(f"expected a label, found {t.text!r}")
        return self.take().text

    # -- session types

    def type_expr(self, bound: frozenset) -> ast.SessionType:
        # An operand is prefixes (down, up, a value type, rec) before an
        # atom; operands are joined by * and -o, right-associative, -o
        # binding loosest.  Whatever waits for a type inside it waits on a
        # stack: a prefix or the left side of an operator for the operand
        # after it, a rec for its body, a bracket or a branch for the type
        # it holds.  So deep nesting costs no Python stack.
        waiting: list = []
        while True:
            t = self.take()
            word = t.text if t.kind in ("punct", "kw") else None
            if word == "down" or word == "up":
                waiting.append((ast.Down if word == "down" else ast.Up,))
                continue
            if word == "rec":
                v = self.ident("a type variable")
                self.expect(".")
                waiting.append((ast.Rec, v, bound))
                bound = bound | {v}
                continue
            if word == "[":
                ft = self.functype()
                self.expect("]")
                if self.eat("^"):
                    waiting.append((ast.AndVal, ft))
                else:
                    self.expect("=>")
                    waiting.append((ast.ImpVal, ft))
                continue
            if word == "(":
                waiting.append(("(",))
                continue
            if word == "+" or word == "&":
                cls = ast.Plus if word == "+" else ast.With
                self.expect("{")
                if not self.eat("}"):
                    waiting.append((cls, [], self.branch_label()))
                    continue
                a = cls(())
            elif t.kind == "num" and t.text == "1":
                a = ast.One()
            elif t.kind == "ident":
                a = self.tdecls[t.text] if t.text in self.tdecls and t.text not in bound \
                    else ast.TVar(t.text)
            else:
                self.fail(f"expected a type, found {t.text!r}", t)
            while True:
                # the operand is whole: what binds tighter than the
                # operator after it takes it
                nxt = self.peek()
                op = _TYPE_OPS.get(nxt.text) if nxt.kind == "punct" else None
                prec = -1 if op is None else _TYPE_PREC[op]
                while waiting and _TYPE_PREC.get(waiting[-1][0], -1) > prec:
                    cls, *parts = waiting.pop()
                    a = cls(*parts, a)
                if op is not None:
                    self.take()
                    waiting.append((op, a))
                    break
                # a whole type: the innermost rec, bracket or branch takes it
                if not waiting:
                    return a
                top = waiting.pop()
                if top[0] is ast.Rec:
                    a, bound = ast.Rec(top[1], a), top[2]
                elif top[0] == "(":
                    self.expect(")")
                else:
                    cls, branches, label = top
                    branches.append((label, a))
                    if self.eat(","):
                        waiting.append((cls, branches, self.branch_label()))
                        break
                    self.expect("}")
                    a = cls(tuple(branches))

    def branch_label(self) -> str:
        lab = self.label()
        self.expect(":")
        return lab

    # -- functional types

    def functype(self) -> ast.FuncType:
        left = self.functype_atom()
        if self.eat("->"):
            return ast.Arrow(left, self.functype())
        return left

    def functype_atom(self) -> ast.FuncType:
        if self.at("("):
            self.take()
            inner = self.functype()
            self.expect(")")
            return inner
        if self.at("{"):
            self.take()
            c = self.ident("a channel")
            self.expect(":")
            a = self.type_expr(frozenset())
            used = []
            if self.eat("<-") and not self.at("}"):
                while True:
                    d = self.ident("a channel")
                    self.expect(":")
                    used.append((d, self.type_expr(frozenset())))
                    if not self.eat(","):
                        break
            self.expect("}")
            return ast.ProcType((c, a), tuple(used))
        self.fail(f"expected a functional type, found {self.peek().text!r}")

    # -- terms

    def term(self, bound: frozenset) -> ast.FuncTerm:
        if self.at("\\"):
            self.take()
            x = self.ident("a variable")
            self.expect(":")
            t = self.functype()
            self.expect(".")
            return ast.Lam(x, t, self.term(bound | {x}))
        if self.at("fix"):
            self.take()
            x = self.ident("a variable")
            self.expect(".")
            return ast.Fix(x, self.term(bound | {x}))
        return self.term_app(bound)

    def term_app(self, bound: frozenset) -> ast.FuncTerm:
        e = self.term_atom(bound)
        while self.starts_term_atom():
            e = ast.FApp(e, self.term_atom(bound))
        return e

    def starts_term_atom(self) -> bool:
        t = self.peek()
        return (t.kind == "ident" or self.at("(")
                or (self.at("proc") and self.peek(1).text == "("))

    def term_atom(self, bound: frozenset) -> ast.FuncTerm:
        t = self.peek()
        if t.kind == "ident":
            name = self.take().text
            if name in bound:
                return ast.FVar(name)
            if name in self.termdecls:
                return self.termdecls[name]
            return ast.FVar(name)
        if self.at("("):
            self.take()
            inner = self.term(bound)
            self.expect(")")
            return inner
        if self.at("proc"):
            self.take()
            self.expect("(")
            c = self.ident("a channel")
            self.expect(":")
            a = self.type_expr(frozenset())
            used = []
            if self.eat(";"):
                while True:
                    d = self.ident("a channel")
                    self.expect(":")
                    used.append((d, self.type_expr(frozenset())))
                    if not self.eat(","):
                        break
            self.expect(")")
            self.expect("{")
            body = self.proc(bound)
            self.expect("}")
            return ast.Quote((c, a), body, tuple(used))
        self.fail(f"expected a term, found {t.text!r}")

    # -- processes

    def proc(self, bound: frozenset) -> ast.Process:
        # each prefix (x.l; and every form a process follows) waits on a
        # stack for that process: a long sequence costs no Python stack
        prefixes = []
        while isinstance(p := self.proc_step(bound), tuple):
            cls, fields, bound = p
            prefixes.append((cls, fields))
            self.expect(";")
        for cls, fields in reversed(prefixes):
            p = cls(*fields, p)
        return p

    def proc_step(self, bound: frozenset):
        """A process, or a prefix as (its construct, its fields before the
        process that follows, the names bound in that process)."""
        t = self.peek()
        if t.text in ("fwd+", "fwd-"):
            self.take()
            a = self.ident("a channel")
            self.expect("->")
            b = self.ident("a channel")
            return ast.FwdPos(a, b) if t.text == "fwd+" else ast.FwdNeg(a, b)
        if self.eat("close"):
            return ast.Close(self.ident("a channel"))
        if self.eat("wait"):
            return ast.Wait, (self.ident("a channel"),), bound
        if self.eat("case"):
            a = self.ident("a channel")
            self.expect("{")
            branches = []
            if not self.at("}"):
                while True:
                    lab = self.label()
                    self.expect("=>")
                    branches.append((lab, self.proc(bound)))
                    if not self.eat("|"):
                        break
            self.expect("}")
            return ast.Case(a, tuple(branches))
        if self.eat("send"):
            a = self.ident("a channel")
            if self.eat("<"):
                b = self.ident("a channel")
                self.expect(">")
                return ast.SendChan, (a, b), bound
            if self.eat("["):
                m = self.term(bound)
                self.expect("]")
                return ast.SendVal, (a, m), bound
            for word, cls in (("shift", ast.SendShift), ("unfold", ast.SendUnfold)):
                if self.eat(word):
                    return cls, (a,), bound
            self.fail("expected <channel>, [term], shift, or unfold after send")
        for word, cls in (("shift", ast.RecvShift), ("unfold", ast.RecvUnfold)):
            if self.eat(word):
                self.expect("<-")
                self.expect("recv")
                return cls, (self.ident("a channel"),), bound
        if self.at("["):
            self.take()
            x = self.ident("a variable")
            self.expect("]")
            self.expect("<-")
            self.expect("recv")
            return ast.RecvVal, (x, self.ident("a channel")), bound | {x}
        if t.kind != "ident":
            self.fail(f"expected a process, found {t.text!r}")
        name = self.take().text
        if self.eat("."):
            return ast.SendLabel, (name, self.label()), bound
        if self.eat(":"):
            ann = self.type_expr(frozenset())
            self.expect("<-")
            return ast.Cut, (name, ann, self.cut_left(name, bound)), bound
        if self.eat("<-"):
            if self.eat("recv"):
                return ast.RecvChan, (name, self.ident("a channel")), bound
            if self.eat("["):
                m = self.term(bound)
                self.expect("]")
                chans = []
                if self.eat("<-"):
                    while self.peek().kind == "ident":
                        chans.append(self.take().text)
                return ast.Unquote(name, m, tuple(chans))
            self.fail("expected recv or [term] after <-")
        self.fail(f"cannot parse a process starting at {name!r}", t)

    def cut_left(self, chan: str, bound: frozenset) -> ast.Process:
        if self.eat("{"):
            body = self.proc(bound)
            self.expect("}")
            return body
        name = self.ident("a process name")
        args = []
        self.expect("(")
        if not self.at(")"):
            while True:
                args.append(self.ident("a channel"))
                if not self.eat(","):
                    break
        self.expect(")")
        return self.instantiate(name, chan, args)

    def instantiate(self, name: str, offered: str, args: list[str]) -> ast.Process:
        decl = self.procdecls.get(name)
        if decl is None:
            self.fail(f"unknown process {name!r}")
        if len(args) != len(decl.used):
            self.fail(f"process {name!r} takes {len(decl.used)} channels, "
                      f"got {len(args)}")
        # dynamics imports lang, so lang imports it only when it runs
        from ..dynamics import dec_proc, proc_fact, rename_channels
        from ..msr.terms import Const

        rho = {Const(decl.offered[0]): Const(offered)}
        for (formal, _), actual in zip(decl.used, args):
            rho[Const(formal)] = Const(actual)
        # the body's code under its environment renamed, decoded: a binder
        # is renamed apart exactly where it would capture
        return dec_proc(*rename_channels(proc_fact(offered, decl.body), rho).args[1:])

    # -- declarations

    def chan_pairs(self) -> tuple:
        pairs = []
        while self.peek().kind == "ident" and self.peek(1).text == ":":
            c = self.take().text
            self.take()
            pairs.append((c, self.type_expr(frozenset())))
            if not self._pair_comma():
                break
        return tuple(pairs)

    def _pair_comma(self) -> bool:
        # a comma continues the channel list only when a `name :` follows;
        # otherwise it separates configuration facts
        if not self.at(","):
            return False
        if self.peek(1).kind == "ident" and self.peek(2).text == ":":
            self.take()
            return True
        return False

    def judgment(self) -> tuple[tuple, tuple[str, ast.SessionType]]:
        """Parse `used |- c : A` (the used side may be empty or absent)."""
        if self.eat("|-"):
            used = ()
        else:
            first = self.ident("a channel")
            self.expect(":")
            first_t = self.type_expr(frozenset())
            pairs = [(first, first_t)]
            while self.eat(","):
                c = self.ident("a channel")
                self.expect(":")
                pairs.append((c, self.type_expr(frozenset())))
            if not self.eat("|-"):
                if len(pairs) != 1:
                    self.fail("expected |- after the used channels")
                return (), pairs[0]
            used = tuple(pairs)
        c = self.ident("a channel")
        self.expect(":")
        return used, (c, self.type_expr(frozenset()))

    def config_fact(self):
        if self.eat("proc"):
            c = self.ident("a channel")
            if self.at("{"):
                self.take()
                body = self.proc(frozenset())
                self.expect("}")
                return ast.ProcF(c, body)
            name = self.ident("a process name")
            args = []
            self.expect("(")
            if not self.at(")"):
                while True:
                    args.append(self.ident("a channel"))
                    if not self.eat(","):
                        break
            self.expect(")")
            return ast.ProcF(c, self.instantiate(name, c, args))
        if self.eat("msg"):
            c = self.ident("a channel")
            self.expect("{")
            body = self.proc(frozenset())
            self.expect("}")
            return ast.MsgF(c, body)
        if self.eat("hole"):
            self.expect(":")
            used = self.chan_pairs()
            self.expect("|-")
            provided = self.chan_pairs()
            return ast.Interface(used=used, provided=provided)
        self.fail(f"expected proc, msg, or hole, found {self.peek().text!r}")

    def declaration(self) -> ast.Decl:
        t = self.peek()
        span = (t.line, t.col)
        if self.eat("type"):
            name = self.ident("a type name")
            self.expect("=")
            body = self.type_expr(frozenset())
            if name in self.tdecls:
                self.fail(f"type {name!r} declared twice", t)
            self.tdecls[name] = body
            return ast.TypeDecl(name, body, span)
        if self.eat("term"):
            name = self.ident("a term name")
            self.expect(":")
            ann = self.functype()
            self.expect("=")
            body = self.term(frozenset())
            if name in self.termdecls:
                self.fail(f"term {name!r} declared twice", t)
            self.termdecls[name] = body
            return ast.TermDecl(name, ann, body, span)
        if self.eat("proc"):
            name = self.ident("a process name")
            self.expect(":")
            used, offered = self.judgment()
            self.expect("=")
            body = self.proc(frozenset())
            decl = ast.ProcDecl(name, offered, used, body, span)
            if name in self.procdecls:
                self.fail(f"proc {name!r} declared twice", t)
            self.procdecls[name] = decl
            return decl
        if self.eat("config"):
            name = self.ident("a config name")
            self.expect(":")
            used = self.chan_pairs()
            self.expect("|-")
            provided = self.chan_pairs()
            internal = ()
            if self.eat("internal"):
                internal = self.chan_pairs()
            self.expect("=")
            facts: list[ast.ConfigFact] = []
            hole: Optional[ast.Interface] = None
            while True:
                item = self.config_fact()
                if isinstance(item, ast.Interface):
                    if hole is not None:
                        self.fail("a configuration may contain one hole")
                    hole = item
                else:
                    facts.append(item)
                if not self.eat(","):
                    break
            iface = ast.Interface(used=used, internal=internal,
                                  provided=provided)
            return ast.ConfigDecl(name, iface, tuple(facts), hole, span)
        self.fail(f"expected a declaration, found {t.text!r}")

    def module(self) -> ast.Module:
        decls = []
        while self.peek().kind != "eof":
            decls.append(self.declaration())
        return ast.Module(tuple(decls))


def parse(text: str) -> ast.Module:
    """Parse the text of a .sill file."""
    return _Parser(text).module()


def parse_type(text: str) -> ast.SessionType:
    p = _Parser(text)
    out = p.type_expr(frozenset())
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    return out


def parse_term(text: str) -> ast.FuncTerm:
    p = _Parser(text)
    out = p.term(frozenset())
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    return out


def parse_proc(text: str) -> ast.Process:
    p = _Parser(text)
    out = p.proc(frozenset())
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    return out


# -- printing and serialization ---------------------------------------------------


def _pairs_to_str(pairs) -> str:
    return ", ".join(f"{c}:{ast.type_to_str(t)}" for c, t in pairs)


def _source_apart(b: str, maps, names: list) -> str:
    """How the printer names a channel binder.  One holding the fresh mark
    '%' (an instantiation that would have captured renamed it apart), or
    one that would capture once a binder around it is renamed, becomes the
    least stem + number free in its scope: one that names, the channels
    free where it binds, holds not."""
    from ..dynamics import captures

    if "%" not in b and not captures(b, maps, names):
        return b
    stem, k = b.split("%")[0] or "x", 0
    while f"{stem}{k}" in names:
        k += 1
    return f"{stem}{k}"


def _printable(x):
    """A process or a term, its processes and those quoted in it decoded
    again with every channel binder a source identifier (``_source_apart``),
    so that its printed text parses."""
    # dynamics imports lang, so lang imports it only when it runs
    from ..dynamics import dec_proc, enc_proc

    def build(y, kids, ctx):
        y = ast._subst_build(y, kids, ctx)
        if isinstance(y, ast.Quote):
            return ast.Quote(y.offered, dec_proc(*enc_proc(y.body), _source_apart), y.used)
        return y

    y = ast.fold(x, ast._subst_kids, build, (ast._FUNC_ROLES, None, None, None, None))
    return y if type(y) not in ast.PROC_ROLES else dec_proc(*enc_proc(y), _source_apart)


def decl_to_str(d: ast.Decl) -> str:
    if isinstance(d, ast.TypeDecl):
        return f"type {d.name} = {ast.type_to_str(d.body)}"
    if isinstance(d, ast.TermDecl):
        return (f"term {d.name} : {ast.functype_to_str(d.ann)} = "
                f"{ast.term_to_str(_printable(d.body))}")
    if isinstance(d, ast.ProcDecl):
        c, a = d.offered
        left = _pairs_to_str(d.used)
        ctx = f"{left} |-" if left else "|-"
        return (f"proc {d.name} : {ctx} {c}:{ast.type_to_str(a)} = "
                f"{ast.proc_to_str(_printable(d.body))}")
    if isinstance(d, ast.ConfigDecl):
        iface = d.interface
        left = _pairs_to_str(iface.used)
        ctx = f"{left} |-" if left else "|-"
        head = f"config {d.name} : {ctx} {_pairs_to_str(iface.provided)}"
        if iface.internal:
            head += f" internal {_pairs_to_str(iface.internal)}"
        items = [str(type(f)(f.chan, _printable(f.proc))) for f in d.facts]
        if d.hole is not None:
            items.append(f"hole : {_pairs_to_str(d.hole.used)} |- "
                         f"{_pairs_to_str(d.hole.provided)}")
        return head + " = " + ", ".join(items)
    raise TypeError(f"not a declaration: {d!r}")


def module_to_str(m: ast.Module) -> str:
    return "\n\n".join(decl_to_str(d) for d in m.decls) + "\n"
