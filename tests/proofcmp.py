"""Compare proof trees while ignoring sort names, and number proof nodes by value.

Proofs can share subtrees and get deep, so the walks are iterative; only the
small per-node pieces (sequents, rule data) are rewritten recursively.
"""

from cycind.core import Record

SORT_NAMES = ("Nat", "Tree", "S", "*")


def erase_sorts(v):
    if isinstance(v, str):
        return "?" if v in SORT_NAMES else v
    if isinstance(v, tuple):
        return tuple(erase_sorts(u) for u in v)
    if isinstance(v, Record):
        return type(v)(**{f: erase_sorts(getattr(v, f)) for f in v._fields})
    return v


def equal_modulo_sorts(a, b) -> bool:
    stack = [(a, b)]
    seen = set()
    while stack:
        x, y = stack.pop()
        if (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if x.rule != y.rule or len(x.children) != len(y.children):
            return False
        if erase_sorts(x.seq) != erase_sorts(y.seq):
            return False
        if erase_sorts(x.data) != erase_sorts(y.data):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def value_numbers(root) -> dict[int, int]:
    """Number the distinct nodes of a proof bottom-up, keyed by ``id``: two
    nodes get the same number exactly when they are equal by value (rule,
    sequent, data, and children with the same numbers)."""
    number: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = [(root, False)]
    while stack:
        d, done = stack.pop()
        if id(d) in number:
            continue
        if not done:
            stack.append((d, True))
            stack.extend((c, False) for c in d.children)
            continue
        key = (d.rule, d.seq, d.data, tuple(number[id(c)] for c in d.children))
        number[id(d)] = table.setdefault(key, len(table))
    return number
