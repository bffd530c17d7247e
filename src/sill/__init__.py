"""Fair multiset rewriting with a session-typed process language on top.

The package is organised in layers:

- ``sill.msr``: first-order multiset rewriting (states, rules, traces).
- ``sill.fairness``: fairness checking for lasso traces and the fair
  round-robin scheduler.
- ``sill.lang``: the process language (syntax, parsing, type checking).
- ``sill.dynamics``: its operational semantics as multiset rewriting.
- ``sill.obs``: observed communications and their simulation order.
- ``sill.equiv``: barbs, generated experiment families, equivalence checking.
"""

__version__ = "0.1.0"
