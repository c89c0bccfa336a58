"""Membership, derivations, enumeration, and shape checks for conjunctive grammars.

Derivability follows the logical reading: terminal axioms a(a) and the
empty axiom, a concatenation rule, and one inference per grammar rule
requiring every conjunct to derive the same string.
"""

import json
from typing import Optional

from .errors import BudgetError, GrammarError, UndeclaredSymbolError
from .grammars import ConjGrammar, Rule, chart_index
from .syntax import Record, inference, separated, tree_pieces

DEFAULT_ENUM_BUDGET = 2_000_000


def nullable_nonterminals(g: ConjGrammar) -> frozenset[str]:
    """Least fixpoint of "some rule has every conjunct built from nullable
    nonterminals (or empty)"."""
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for rule in g.rules:
            if rule.head in nullable:
                continue
            if all(all(sym in nullable for sym in body) for body in rule.conjuncts):
                nullable.add(rule.head)
                changed = True
    return frozenset(nullable)


# ---------------------------------------------------------------------------
# Derivation trees
# ---------------------------------------------------------------------------

class CGNode(Record):
    """One derivation node.

    Leaves are terminal axioms (`rule_index is None`, `children is None`)
    or the empty-string axiom (empty `symbol`).  Internal nodes cite a
    grammar rule and carry one child sequence per conjunct.
    """

    symbol: str
    span: tuple[int, int]
    rule_index: Optional[int] = None
    children: Optional[tuple[tuple["CGNode", ...], ...]] = None


class CGDerivation(Record):
    word: str
    root: CGNode

    def to_json(self, grammar: ConjGrammar) -> str:
        """The tree as one line of JSON with sorted keys: per node its
        `head` ("eps" for the empty-string axiom), `span`, `rule` (the
        grammar rule's text, null for a leaf) and `children` (one list per
        conjunct, null for a leaf)."""

        def expand(item):
            if isinstance(item, tuple):  # one conjunct's children
                return ["[", *separated(item, ", "), "]"]
            children, rule = ["null"], "null"
            if item.rule_index is not None:
                children = ["[", *separated(item.children, ", "), "]"]
                rule = json.dumps(str(grammar.rules[item.rule_index]))
            return ['{"children": ', *children,
                    ', "head": ', json.dumps(item.symbol if item.symbol else "eps"),
                    ', "rule": ', rule, ', "span": [%d, %d]}' % item.span]

        return "".join(tree_pieces(self.root, expand)) + "\n"

    def to_latex(self) -> str:
        """A rule's node infers its head from one inference per conjunct,
        each inferring the conjunct's body from that conjunct's children."""
        w = self.word

        def expand(item):
            if isinstance(item, tuple):  # a conjunct: (its body, its span, its children)
                body, span, group = item
                return inference(_proposition(body, w, span), group)
            if item.rule_index is None:
                return [_proposition(item.symbol, w, item.span)]
            return inference(_proposition(item.symbol, w, item.span), [
                ("".join(c.symbol for c in group), item.span, group)
                for group in item.children])

        return "".join(tree_pieces(self.root, expand))


def _proposition(symbol: str, w: str, span: tuple[int, int]) -> str:
    text = w[span[0]:span[1]]
    head = symbol if symbol else r"\varepsilon"
    return f"{head}({text if text else chr(92) + 'varepsilon'})"


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

# Marks a table entry whose computation is still on the call stack.
_PENDING = object()


class _Chart:
    """Demand-driven span table for `cg_member`: `derives(nt, i, j)` says
    whether `nt` derives `w[i:j]`; with `i == j` it answers nullability.
    Its rules come from the grammar's `_Recognizer`; trees, from `_Recognizer.tree`.

    A query on a span consults only that span and spans inside it, so
    spans never depend on each other cyclically, but the entries of one
    span can (unit conjuncts, nullable neighbours).  Each span is solved
    as one least fixpoint, driven by its outermost query.  An entry read
    while it is still being computed counts as false for now, and the
    outermost query runs again while its last pass both read such an
    entry and turned some entry of the span true.  Before it runs again,
    the span's negative entries, which may rest on a provisional "no",
    are forgotten, also when the query itself came out true.  Positive
    entries stand: each was proved from entries already true.

    A body's trailing terminals are matched first, as one string at the
    end of the span: a body that ends in `'a' 'c'` holds on `w[i:j]` only
    if `w[i:j]` ends in `ac`, and then only its core, the body without
    them, is split, over `w[i:j - 2]`.  So the core's last item ends at a
    known point, and a body like `'a' B 'a'` reads one entry of `B` in
    place of one per end point.

    The table maps `(nt, i, j)` (`nt` a nonterminal id) to True when `nt`
    derives `w[i:j]`, to None when it does not, and to `_PENDING` while
    the entry is being computed.

    On a right-recursive grammar a query recurses about as deep as the
    word is long, so a long enough word raises `RecursionError`;
    `cg_member` then answers from the recognizer.
    """

    def __init__(self, g: ConjGrammar, w: str):
        self.recognizer = chart_index(g, _Recognizer)
        self.cores = self.recognizer.cores
        self.alphabet = self.recognizer.alphabet
        self.w = w
        self.table: dict[tuple[int, int, int], object] = {}
        # The span of the innermost outermost query, and about its current
        # pass: whether it read a pending entry, whether an entry of the
        # span turned true, and which negative entries it stored.
        self.span: Optional[tuple[int, int]] = None
        self.read_pending = False
        self.grew = False
        self.negatives: list[tuple[int, int, int]] = []

    def derives(self, nt: str, i: int, j: int) -> bool:
        return self._derives(self.recognizer.ids[nt], i, j)

    def _derives(self, nt: int, i: int, j: int) -> bool:
        key = (nt, i, j)
        if key in self.table:
            entry = self.table[key]
            if entry is _PENDING:
                self.read_pending = True
                return False
            return entry is not None
        if (i, j) != self.span:
            # The outermost query on this span: run passes to the fixpoint.
            outer = self.span, self.read_pending, self.grew, self.negatives
            self.span = (i, j)
            while True:
                self.read_pending = self.grew = False
                self.negatives = []
                found = self._derives(nt, i, j)
                if not (self.read_pending and self.grew):
                    break
                for negative in self.negatives:
                    del self.table[negative]
                if found:
                    break
            self.span, self.read_pending, self.grew, self.negatives = outer
            return found
        # Some rule whose every conjunct splits under the entries known now.
        self.table[key] = _PENDING
        w = self.w
        for conjuncts in self.cores[nt]:
            for core, suffix in conjuncts:
                end = j
                if suffix:
                    if not w.endswith(suffix, i, j):
                        break
                    end -= len(suffix)
                if not self._splits(core, i, end):
                    break
            else:
                self.table[key] = True
                self.grew = True
                return True
        self.table[key] = None
        self.negatives.append(key)
        return False

    def _splits(self, body: tuple[int, ...], i: int, j: int) -> bool:
        """Does w[i:j] split into the body items?"""
        last = len(body) - 1
        table = self.table

        def walk(idx, pos):
            if idx > last:
                return pos == j
            item = body[idx]
            if item < 0:
                return pos < j and self.w[pos] == self.alphabet[~item] and walk(idx + 1, pos + 1)
            # the last item must end the span; no other end point completes it
            for mid in range(j if idx == last else pos, j + 1):
                # A settled entry is read in place: most lookups hit, and a
                # call each would cost more than the rest of the split search.
                entry = table.get((item, pos, mid), _PENDING)
                if entry is _PENDING:
                    found = self._derives(item, pos, mid)
                else:
                    found = entry is not None
                if found and walk(idx + 1, mid):
                    return True
            return False

        try:
            return walk(0, i)
        finally:
            del walk  # the closure refers to itself; leave no cycle behind


class _Recognizer:
    """Okhotin's per-start recognizer tables (Okhotin 2013, "Conjunctive
    and Boolean grammars: the true general case of the context-free
    grammars") for one grammar, stored as Python-int bitmasks.

    For a word `w` of length n, `ends[A][i]` is the mask of every `j`
    such that `A` derives `w[i:j]`.  Starts run from n down to 0; at
    start i a body's reach mask begins as bit i, a terminal `t` moves it
    by `(reach << 1) & mask[t]`, where `mask[t]` holds `p + 1` for every
    position `p` of `t`, and a nonterminal `B` replaces it by the OR of
    `ends[B][p]` over its bits `p`.  A rule adds the AND of its
    conjuncts' reach masks to its head's row.  A rule reads a row at its
    own start only through a nullable prefix, so the grammar's left-corner
    components, run in dependency order, settle each start; a cyclic one
    repeats until no row grows.  Conjunctive grammars are monotone, so
    the table is exact, and no step recurses.

    Everything that depends on the grammar alone is compiled here once:
    nonterminal ids, each head's rules, the nullable set, FIRST and LAST
    letter sets (of nonempty derived words), the cyclic left-corner
    components, and, for each letter, the plan of a start at that letter
    (`steps`): the rules whose FIRST set holds it, each compiled by its
    shape (`_compiled`).  An axiom `A -> 'a'` sets bit i + 1 of its head's
    row before any component runs.  The other rules run grouped by
    component, in dependency order: a division `A -> B C` ORs the rows of
    `C` over the bits of `ends[B][i]` that are also in `live[C]`, one
    index when one bit is left; a conjunction `A -> B & C & ...` of single
    nonterminals ANDs their rows at i; any other rule runs the body loop
    above, which ANDs `live[B]` into its reach before each nonterminal
    `B`.  `live[B]` is the mask of starts whose row of `B` is nonempty so
    far, set wherever a row is written.  Skipping the other starts leaves
    the table exact: a start lacks its bit only while its row is 0, and
    ORing a 0 row adds nothing; a row that a cyclic step grows at its own
    start gets its bit as it grows, before the step repeats.  So a
    division reads only nonempty rows: on the paper's three-block grammar
    at most one per start, not one for each end of an `a`-run, and
    categorial membership there takes time linear in the word's length.
    `fill` runs only the
    rules of the nonterminals its goal reaches: a goal's plans are
    restricted on its first query and kept in `goal_steps`.  Categorial
    membership and every derivation tree (`tree`) run on these tables.
    `cg_member` keeps `_Chart` until the benchmark's per-operation tally
    stops counting a faster chart as more memory, and asks here only when
    the chart's recursion overflows the stack: no step here recurses, so
    no word overflows it.
    """

    def __init__(self, g: ConjGrammar):
        self.names = names = sorted(g.nonterminals)
        self.ids = ids = {nt: k for k, nt in enumerate(names)}
        self.alphabet = sorted(g.terminals)
        self.letters = letters = {t: k for k, t in enumerate(self.alphabet)}
        nullable = nullable_nonterminals(g)
        self.nullable = tuple(ids[nt] for nt in sorted(nullable))
        first = _edge_letters(g, nullable, reverse=False)
        last = _edge_letters(g, nullable, reverse=True)
        self.first = [first[nt] for nt in names]
        self.last = [last[nt] for nt in names]

        # A rule as (head id, conjuncts); an item is a nonterminal id, or
        # ~k (negative) for the terminal with letter index k.
        rules = [(ids[rule.head],
                  tuple(tuple(ids[sym] if sym in ids else ~letters[sym] for sym in body)
                        for body in rule.conjuncts))
                 for rule in g.rules]
        rule_first = [frozenset.intersection(*(_body_letters(body, first, nullable, g.terminals)
                                               for body in rule.conjuncts))
                      for rule in g.rules]
        # left corners: the nonterminals a rule reads at its own start
        corners: list[set[int]] = [set() for _ in ids]
        for rule in g.rules:
            for body in rule.conjuncts:
                for sym in body:
                    if sym not in ids:
                        break
                    corners[ids[rule.head]].add(ids[sym])
                    if sym not in nullable:
                        break
        components = _components([tuple(sorted(c)) for c in corners])
        self.cyclic = frozenset(nt for comp in components for nt in comp
                                if len(comp) > 1 or comp[0] in corners[comp[0]])
        # by head id: its rules as (rule index, conjuncts), in declaration order
        self.by_head: list[list[tuple]] = [[] for _ in ids]
        for k, (head, conjuncts) in enumerate(rules):
            self.by_head[head].append((k, conjuncts))
        # by head id, for `_Chart`: its rules' conjuncts, each body as its
        # core and the string of the terminals that end it
        self.cores = [[tuple(_core_and_suffix(body, self.alphabet) for body in conjuncts)
                       for _, conjuncts in head_rules] for head_rules in self.by_head]
        # steps[letter]: the plan of a start at that letter, as its axioms'
        # heads and its steps, each a (cyclic, rules) pair of compiled
        # rules (`_compiled`); adjacent acyclic components share a step
        compiled = [_compiled(head, conjuncts) for head, conjuncts in rules]
        self.steps = []
        for letter in sorted(letters):
            axioms, steps = [], []
            for comp in components:
                cyclic = comp[0] in self.cyclic
                chosen = []
                for k in sorted(k for nt in comp for k, _ in self.by_head[nt]):
                    if letter not in rule_first[k]:
                        continue
                    if compiled[k][0] == _AXIOM:
                        axioms.append(compiled[k][1])
                    else:
                        chosen.append(compiled[k])
                if not chosen:
                    continue
                if steps and not cyclic and not steps[-1][0]:
                    steps[-1][1].extend(chosen)
                else:
                    steps.append((cyclic, chosen))
            self.steps.append((tuple(axioms), tuple((cyclic, tuple(chosen))
                                                    for cyclic, chosen in steps)))
        # by goal id: `steps` restricted to the rules the goal reaches
        self.goal_steps: dict[int, list] = {}

    def fill(self, w: str, goal: int) -> Optional[list[list[int]]]:
        """The table of `w` when nonterminal `goal` derives it, else None.
        Only the rules of the nonterminals `goal` reaches run, so only
        their rows are exact.  Every letter of `w` must be a terminal."""
        n = len(w)
        if n and (w[0] not in self.first[goal] or w[-1] not in self.last[goal]):
            return None
        steps = self.goal_steps.get(goal)
        if steps is None:
            # threads racing on a goal's first query may each compile its
            # steps; `setdefault` hands all of them the first one stored
            steps = self.goal_steps.setdefault(goal, self._restricted(goal))
        ends = self._run(w, steps)
        return ends if ends[goal][0] >> n & 1 else None

    def table(self, w: str) -> list[list[int]]:
        """`ends[A][i]` for every nonterminal id `A` and start `i` of `w`."""
        return self._run(w, self.steps)

    def _restricted(self, goal: int) -> list:
        """`steps` without the rules of nonterminals that `goal` does not
        reach; a step left without rules is dropped."""
        reached = {goal}
        pending = [goal]
        while pending:
            for _, conjuncts in self.by_head[pending.pop()]:
                for body in conjuncts:
                    for item in body:
                        if item >= 0 and item not in reached:
                            reached.add(item)
                            pending.append(item)
        out = []
        for axioms, steps in self.steps:
            kept = []
            for cyclic, rules in steps:
                rules = tuple(rule for rule in rules if rule[1] in reached)
                if rules:
                    kept.append((cyclic, rules))
            out.append((tuple(head for head in axioms if head in reached), tuple(kept)))
        return out

    def _run(self, w: str, plans: list) -> list[list[int]]:
        """The table of `w` under `plans`, `steps` or a goal's restriction."""
        n = len(w)
        ends = [[0] * (n + 1) for _ in self.ids]
        # live[A]: the starts whose row of `A` is nonempty so far
        live = [0] * len(self.ids)
        for nt in self.nullable:
            ends[nt] = [1 << i for i in range(n + 1)]
            live[nt] = (2 << n) - 1
        letters = self.letters
        codes = [letters[ch] for ch in w]
        masks = [0] * len(letters)
        for p, code in enumerate(codes):
            masks[code] |= 2 << p
        for i in range(n - 1, -1, -1):
            start = 1 << i
            axioms, steps = plans[codes[i]]
            for head in axioms:
                ends[head][i] |= start << 1
                live[head] |= start
            for cyclic, rules in steps:
                grew = True
                while grew:
                    grew = False
                    for shape, head, x, y in rules:
                        if shape == _DIVISION:
                            reach = ends[x][i] & live[y]
                            if not reach:
                                continue
                            row = ends[y]
                            if reach & (reach - 1):
                                got = 0
                                while reach:
                                    low = reach & -reach
                                    got |= row[low.bit_length() - 1]
                                    reach ^= low
                            else:
                                got = row[reach.bit_length() - 1]
                        elif shape == _CONJUNCTION:
                            got = -1
                            for member in x:
                                got &= ends[member][i]
                                if not got:
                                    break
                        else:
                            got = -1
                            for body in x:
                                reach = start
                                for item in body:
                                    if item < 0:
                                        reach = (reach << 1) & masks[~item]
                                    else:
                                        reach &= live[item]
                                        row = ends[item]
                                        acc = 0
                                        while reach:
                                            low = reach & -reach
                                            acc |= row[low.bit_length() - 1]
                                            reach ^= low
                                        reach = acc
                                    if not reach:
                                        break
                                got &= reach
                                if not got:
                                    break
                        if got:
                            row = ends[head]
                            if got & ~row[i]:
                                row[i] |= got
                                live[head] |= start
                                grew = cyclic
        return ends

    def tree(self, ends: list[list[int]], w: str, goal: int, build):
        """The derivation of `goal` over `w` in its finished table `ends`,
        from an explicit stack.  `build(item, i, j, rule, groups)` makes a
        letter leaf when `rule` is None, else the node of nonterminal
        `item` on `w[i:j]` citing `rule`, from its children per conjunct.

        A node cites its head's first rule, in declaration order, whose
        conjuncts all split, leftmost first, into table entries.  An entry
        on the node's own span counts only if it derives that span without
        the nonterminals above it there (`_avoiding`), so no tree closes a
        same-span cycle."""
        pending = [(goal, 0, len(w), frozenset())]
        steps = []
        while pending:
            nt, i, j, above = pending.pop()
            above |= {nt}
            counts = self._avoiding(ends, w, i, j, above) if nt in self.cyclic else self.cyclic
            rule, splits = self._premises(ends, w, nt, i, j, counts)
            steps.append((nt, i, j, rule, splits))
            for split in reversed(splits):
                for item, a, b in reversed(split):
                    if item >= 0:
                        pending.append((item, a, b, above if (a, b) == (i, j) else frozenset()))
        # `steps` lists the nodes in preorder; in reverse, each node's
        # children are built just before it, first child on top
        built = []
        for nt, i, j, rule, splits in reversed(steps):
            groups = tuple(tuple(built.pop() if item >= 0 else build(item, a, b, None, ())
                                 for item, a, b in split)
                           for split in splits)
            built.append(build(nt, i, j, rule, groups))
        return built[0]

    def _avoiding(self, ends, w, i, j, above) -> set[int]:
        """The cyclic nonterminals that derive `w[i:j]` without `above` on
        that span: a least fixpoint, each round splitting with the ones
        found so far, so the check never recurses.  Other entries count as
        they stand, which is exact for all that `above` reaches there."""
        found: set[int] = set()
        grew = True
        while grew:
            grew = False
            for nt in self.cyclic - above - found:
                if ends[nt][i] >> j & 1 and self._premises(ends, w, nt, i, j, found):
                    found.add(nt)
                    grew = True
        return found

    def _premises(self, ends, w, nt, i, j, counts) -> Optional[tuple[int, list]]:
        """The first rule of `nt` with the leftmost splits of its conjuncts
        over `w[i:j]`, or None; a cyclic entry on that span needs `counts`."""
        for rule, conjuncts in self.by_head[nt]:
            splits = [self._split(ends, w, body, i, j, counts) for body in conjuncts]
            if None not in splits:
                return rule, splits
        return None

    def _split(self, ends, w, body, i, j, counts) -> Optional[list]:
        """The leftmost split of `w[i:j]` into `(item, start, end)`, or None."""
        last = len(body) - 1

        def walk(k, pos):
            if k > last:
                return [] if pos == j else None
            item = body[k]
            if item >= 0:
                mids = ends[item][pos]
            else:
                mids = 2 << pos if pos < j and w[pos] == self.alphabet[~item] else 0
            # the last item must end the span; no other end point completes it
            mids &= 1 << j if k == last else (2 << j) - 1
            while mids:
                low = mids & -mids
                mids ^= low
                mid = low.bit_length() - 1
                if (pos, mid) == (i, j) and item in self.cyclic and item not in counts:
                    continue
                rest = walk(k + 1, mid)
                if rest is not None:
                    return [(item, pos, mid)] + rest
            return None

        try:
            return walk(0, i)
        finally:
            del walk  # the closure refers to itself; leave no cycle behind


# The shapes of a compiled rule (`_compiled`).
_AXIOM, _DIVISION, _CONJUNCTION, _GENERIC = range(4)


def _compiled(head: int, conjuncts: tuple[tuple[int, ...], ...]) -> tuple:
    """A rule as `(shape, head, x, y)`: an axiom `A -> 'a'` with x the
    letter's item, a division `A -> B C` with x = B and y = C, a
    conjunction `A -> B & C & ...` of single nonterminals with x their
    tuple, and any other rule with x its conjuncts."""
    body = conjuncts[0]
    if len(conjuncts) == 1 and len(body) == 1 and body[0] < 0:
        return _AXIOM, head, body[0], None
    if len(conjuncts) == 1 and len(body) == 2 and min(body) >= 0:
        return _DIVISION, head, body[0], body[1]
    if all(len(body) == 1 and body[0] >= 0 for body in conjuncts):
        return _CONJUNCTION, head, tuple(body[0] for body in conjuncts), None
    return _GENERIC, head, conjuncts, None


def _core_and_suffix(body: tuple[int, ...], alphabet: list[str]) -> tuple[tuple[int, ...], str]:
    """`body` without its run of trailing terminals, and that run's letters."""
    k = len(body)
    while k and body[k - 1] < 0:
        k -= 1
    return body[:k], "".join(alphabet[~item] for item in body[k:])


def _body_letters(body: tuple[str, ...], sets: dict[str, frozenset[str]],
                  nullable: frozenset[str], terminals: frozenset[str]) -> frozenset[str]:
    """The letters that can begin a nonempty word derived by `body`, given
    each nonterminal's set."""
    out: set[str] = set()
    for sym in body:
        if sym in terminals:
            out.add(sym)
            break
        out |= sets[sym]
        if sym not in nullable:
            break
    return frozenset(out)


def _edge_letters(g: ConjGrammar, nullable: frozenset[str],
                  reverse: bool) -> dict[str, frozenset[str]]:
    """FIRST (or, with `reverse`, LAST) letter sets of the nonempty words
    each nonterminal derives, as a least fixpoint; a rule's set is the
    intersection over its conjuncts."""
    sets = {nt: frozenset() for nt in g.nonterminals}
    bodies = [(rule.head, [body[::-1] if reverse else body for body in rule.conjuncts])
              for rule in g.rules]
    changed = True
    while changed:
        changed = False
        for head, conjuncts in bodies:
            got = frozenset.intersection(*(_body_letters(body, sets, nullable, g.terminals)
                                           for body in conjuncts))
            if not got <= sets[head]:
                sets[head] |= got
                changed = True
    return sets


def _components(edges: list[tuple[int, ...]]) -> list[list[int]]:
    """Strongly connected components of a graph on `range(len(edges))`,
    each after every component it reaches (Tarjan's algorithm, with an
    explicit stack)."""
    index: list[Optional[int]] = [None] * len(edges)
    low = [0] * len(edges)
    on_stack = [False] * len(edges)
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(len(edges)):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, k = work.pop()
            if k == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if k < len(edges[v]):
                work.append((v, k + 1))
                u = edges[v][k]
                if index[u] is None:
                    work.append((u, 0))
                elif on_stack[u]:
                    low[v] = min(low[v], index[u])
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return out


def check_letters(w: str, alphabet: frozenset[str]):
    """Raise `UndeclaredSymbolError` at the first letter of `w` outside
    the grammar's alphabet."""
    for ch in w:
        if ch not in alphabet:
            raise UndeclaredSymbolError(f"symbol {ch!r} is not in the grammar's alphabet")


def _checked_start(g: ConjGrammar, w: str, start: Optional[str]) -> str:
    check_letters(w, g.terminals)
    start = g.start if start is None else start
    if start not in g.nonterminals:
        raise GrammarError(f"unknown nonterminal {start!r}")
    return start


def cg_member(g: ConjGrammar, w: str, start: Optional[str] = None) -> bool:
    """Does the grammar derive `w` from `start` (default: the start symbol)?
    The answer comes from `_Chart`; when its recursion outgrows the stack,
    from the grammar's `_Recognizer`, which does not recurse, so a word of
    any length is answered."""
    start = _checked_start(g, w, start)
    chart = _Chart(g, w)
    try:
        return chart.derives(start, 0, len(w))
    except RecursionError:
        return chart.recognizer.fill(w, chart.recognizer.ids[start]) is not None


def cg_derivation(g: ConjGrammar, w: str,
                  start: Optional[str] = None) -> Optional[CGDerivation]:
    """A derivation tree for `w`, or None; raises on bad input as
    `cg_member` does.  It is read off the recognizer's table without
    recursion (`_Recognizer.tree`): each node cites the first rule, in
    declaration order and with the leftmost split, whose premises are
    derivable, a premise on the node's own span without the nonterminals
    above it there.  So no tree closes a same-span cycle, and every tree
    replays.
    """
    start = _checked_start(g, w, start)
    recognizer = chart_index(g, _Recognizer)
    goal = recognizer.ids[start]
    ends = recognizer.fill(w, goal)
    if ends is None:
        return None

    def build(nt, i, j, rule, groups):
        if rule is None:
            return CGNode(w[i], (i, j))
        return CGNode(recognizer.names[nt], (i, j), rule,
                      tuple(group or (CGNode("", (i, i)),) for group in groups))

    return CGDerivation(w, recognizer.tree(ends, w, goal, build))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def cg_enumerate(g: ConjGrammar, max_len: int,
                 budget: int = DEFAULT_ENUM_BUDGET,
                 start: Optional[str] = None) -> frozenset[str]:
    """All derivable strings of length at most `max_len`."""
    start = _checked_start(g, "", start)
    return frozenset(cg_languages(g, max_len, budget)[start])


def cg_languages(g: ConjGrammar, max_len: int,
                 budget: float = DEFAULT_ENUM_BUDGET) -> dict[str, set[str]]:
    """Each nonterminal's derivable strings of length at most `max_len`.

    Computed as the length-capped least fixpoint over per-nonterminal
    string sets; every proposition in a derivation concerns a substring
    of the derived string, so the cap loses nothing.  A `BudgetError`
    stops a fixpoint whose sets hold more than `budget` strings.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    languages: dict[str, set[str]] = {nt: set() for nt in g.nonterminals}

    def body_language(body: tuple[str, ...]) -> set[str]:
        out = {""}
        for sym in body:
            piece = {sym} if sym in g.terminals else languages[sym]
            out = {u + v for u in out for v in piece if len(u) + len(v) <= max_len}
            if not out:
                return out
        return out

    changed = True
    while changed:
        changed = False
        for rule in g.rules:
            derived = body_language(rule.conjuncts[0])
            for body in rule.conjuncts[1:]:
                if not derived:
                    break
                derived &= body_language(body)
            new = derived - languages[rule.head]
            if new:
                languages[rule.head].update(new)
                changed = True
        if sum(len(s) for s in languages.values()) > budget:
            raise BudgetError("enumeration exceeded its string budget")
    return languages


# ---------------------------------------------------------------------------
# Rule-shape check
# ---------------------------------------------------------------------------

class OddFormReport(Record):
    passed: bool
    violations: tuple[str, ...]

    def __str__(self):
        if self.passed:
            return "odd normal form: pass"
        return "odd normal form: FAIL\n" + "\n".join(f"  - {v}" for v in self.violations)


def check_odd_normal_form(g: ConjGrammar) -> OddFormReport:
    """Every rule must be A->a, a conjunction of N-terminal-N bodies, or a
    start rule S->aA, the latter only when S is never referenced."""
    violations = []
    referenced = {sym for rule in g.rules for body in rule.conjuncts
                  for sym in body if sym in g.nonterminals}
    for rule in g.rules:
        shape = _odd_form_shape(g, rule)
        if shape is None:
            violations.append(f"rule {rule}: not of any permitted shape")
        elif shape == "start" and rule.head != g.start:
            violations.append(
                f"rule {rule}: only the start symbol may have a symbol-"
                f"nonterminal rule")
        elif shape == "start" and g.start in referenced:
            violations.append(
                f"rule {rule}: start symbol is referenced in a rule body")
    return OddFormReport(not violations, tuple(violations))


def _odd_form_shape(g: ConjGrammar, rule: Rule) -> Optional[str]:
    """The odd-normal-form shape of `rule`: "terminal" for A->a, "triple"
    for a conjunction of N-terminal-N bodies, "start" for S->aA, else None."""
    body = rule.conjuncts[0]
    if len(rule.conjuncts) == 1 and len(body) == 1 and body[0] in g.terminals:
        return "terminal"
    if (len(rule.conjuncts) == 1 and len(body) == 2
            and body[0] in g.terminals and body[1] in g.nonterminals):
        return "start"
    if all(len(body) == 3 and body[0] in g.nonterminals and body[1] in g.terminals
           and body[2] in g.nonterminals for body in rule.conjuncts):
        return "triple"
    return None


# ---------------------------------------------------------------------------
# Independent replay of a derivation
# ---------------------------------------------------------------------------

def replay_derivation(g: ConjGrammar, d: CGDerivation, start: Optional[str] = None) -> bool:
    """Check a derivation against the rules, spans, and word, one node at
    a time from an explicit stack."""
    start = g.start if start is None else start
    w = d.word
    if d.root.symbol != start or d.root.span != (0, len(w)):
        return False
    pending = [d.root]
    while pending:
        node = pending.pop()
        i, j = node.span
        if node.rule_index is None:
            if not (node.symbol in g.terminals and j == i + 1 and w[i:j] == node.symbol):
                return False
            continue
        if not (0 <= node.rule_index < len(g.rules)):
            return False
        rule = g.rules[node.rule_index]
        if rule.head != node.symbol or len(node.children) != len(rule.conjuncts):
            return False
        for body, group in zip(rule.conjuncts, node.children):
            if not body:
                if len(group) != 1 or group[0].symbol != "" or group[0].span != (i, i):
                    return False
                continue
            if tuple(c.symbol for c in group) != body:
                return False
            pos = i
            for child in group:
                if child.span[0] != pos:
                    return False
                pos = child.span[1]
            if pos != j:
                return False
            pending.extend(group)
    return True
