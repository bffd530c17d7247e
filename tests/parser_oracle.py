"""The process parser as it was when a case read its branches and a cut
its body in braces by recursion, kept verbatim as a test oracle.

``OldProcParser`` is ``sill.lang.parser._Parser`` with the old ``proc``,
``proc_step`` and ``cut_left``: a prefix waits on a list, and each case
branch and each cut body is read by a nested call of ``proc``.
Everything else (tokens, types, terms, named instances) is the current
parser's.
"""

from __future__ import annotations

from sill.lang import ast
from sill.lang.parser import _Parser


class OldProcParser(_Parser):
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
