"""Parser, linter and pretty-printer for the domain and evidence file formats.

Both formats are keyword-block UTF-8 text with s-expression proposition
literals and ``;`` comments. ``findall`` of one regular expression splits the
text into one list of token texts, with no object per token: a word is a run
of letters, digits and ``_-?.+/'*<!&%$#~^|\\`` that ``->`` ends, and the
parser tells tokens apart by their texts alone. The text is split in slices
of about 32 KiB, each ending right after a newline, which no token or comment
crosses, so that a list of fresh strings for the whole text never exists.
Each parse has one symbol table, through which every token text, proposition
and (proposition, level) pair is built: the token list holds one string per
distinct token, and equal positive propositions are one object. The table
belongs to the parse, so nothing outlives it. Whether a word is a number is
asked only where the parser needs to know (a number, a name, a predicate head,
a frame element mapped with ``->``), and ``float()`` is tried only on a word
that starts with ``+``, ``-``, ``.`` or a decimal digit (any ``str.isdecimal``
character), or that is ``inf``, ``nan`` or ``infinity`` in any case: every
spelling ``float()`` accepts is one of these, so other words are identifiers
without a raised ``ValueError``. Offsets are not kept: the first error of a
parse works them out with one ``finditer`` pass of the same expression, and
line and column from them, so clean input pays for neither. The parser
recovers from errors and reports everything it finds, each mistake once and at
its place: a rejected number at its own token, a rule a constructor owns (a
probability range, a mass subset) by that constructor. A statement with an
error is dropped whole and keeps its name declared, so references to it add no
error. It must survive arbitrary byte soup, so every failure path records a
diagnostic instead of raising.
``docs/grammar.md`` carries the full grammar.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ParseFailure
from .evidence import EvidenceSet, Frame, MassFunction
from .model import (
    CHOOSE_ONE,
    DO_ALL,
    PLANFAIL_BACKTRACK,
    PLANFAIL_REJECT_BRANCH,
    CausalRule,
    CompatibilityRelation,
    PlotEntry,
    ProbabilityRule,
    Proposition,
    ReductionOperator,
    patterns_unify,
)
from .planner import ReviewPolicy

TOP_KEYWORDS = {"levels", "goal", "review", "coverage", "compat", "rule", "operator"}
SLOT_KEYWORDS = {
    "level", "necessary", "satisfiable", "plot", "probability",
    "when", "default", "postconditions", "planfail",
}
EVIDENCE_KEYWORDS = {"frame", "mass"}
RESERVED = TOP_KEYWORDS | SLOT_KEYWORDS | EVIDENCE_KEYWORDS | {
    "not", "assert", "retract", "=>", "->", "recover", "rho",
    "choose-one", "do-all", "if", "then",
}

MAX_PROP_DEPTH = 64
MAX_ERRORS = 200


@dataclass(frozen=True, slots=True)
class ParseError:
    file: str
    line: int
    column: int
    message: str
    token: str = ""

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}: {self.message}"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """A lint finding; ``severity`` is 'error' or 'warning'."""

    severity: str
    message: str

    def __str__(self):
        return f"{self.severity}: {self.message}"


@dataclass(frozen=True, slots=True)
class DomainSpec:
    """A parsed planning domain."""

    n_levels: int
    operators: tuple
    causal_rules: tuple = ()
    compat: tuple = ()
    goal: str = ""
    goal_fulfilment: float = 1000.0
    review: ReviewPolicy = field(default_factory=ReviewPolicy)
    coverage_threshold: tuple = (0.0, 0.0)
    _by_name: dict = field(init=False, compare=False, repr=False)
    # The sorted predicates that some pattern of the domain names: the only
    # ones a search reads or writes. Kept per predicate, not per (level,
    # predicate), since a causal rule's level-less condition is read at
    # whatever level the change happened.
    relevant_predicates: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        by_name = {}
        for op in self.operators:
            by_name.setdefault(op.name, op)  # on duplicate names the first wins
        object.__setattr__(self, "_by_name", by_name)
        patterns = []
        for op in self.operators:
            patterns += [p for p, _ in op.necessary + op.satisfiable + op.postconditions]
            patterns += [p for entry in op.plot for _, p, _ in entry.edits]
            patterns += [p for rule in op.probability_rules for p, _ in rule.conditions]
        for rule in self.causal_rules:
            patterns += [rule.trigger, *(p for p, _ in rule.conditions),
                         *(p for _, p, _ in rule.effects)]
        for rel in self.compat:
            patterns += [rel.if_pattern, rel.then_pattern]
        object.__setattr__(self, "relevant_predicates",
                           tuple(sorted({p.predicate for p in patterns})))

    def operator(self, name: str) -> ReductionOperator:
        return self._by_name[name]

    def achievers(self, target: Proposition, level: int, min_level: int) -> list:
        """The operators that may serve as helpers for ``target`` at ``level``
        when the operator that needs it sits at abstraction level ``min_level``:
        those of equal or lower abstraction (level >= ``min_level``) with a
        postcondition at ``level`` that unifies with ``target``."""
        return [op for op in self.operators
                if op.abstraction_level >= min_level
                and any(post_level == level and patterns_unify(post, target)
                        for post, post_level in op.postconditions)]


# --- tokenizer -------------------------------------------------------------

# One match per token, whose single group is the token: whitespace and
# comments before it are skipped inside the match. A word is a run of word
# characters in which a ``-`` may stand anywhere but before ``>``; it has a
# branch of its own for a word that starts with ``-``, so that the common
# word is one run of the class. The fifth alternative is a run of bad
# characters, which start no token; ``\Z`` gives the empty eof token and
# stops a trailing comment from being backtracked into.
_TOKEN_RE = re.compile(r"""
    (?: \s+ | ;[^\n]* )*
    ( => | -> | [(){}@=]
    | [\w?.+/'*<!&%$#~^|\\]+ (?: -(?!>) [\w?.+/'*<!&%$#~^|\\]* )*
    | (?: -(?!>) [\w?.+/'*<!&%$#~^|\\]* )+
    | [^\s;(){}@=\w?.+/'*<!&%$#~^|\\-]+
    | \Z )
    """, re.VERBOSE)

# The text is tokenized in slices of at least this many characters, each
# ending right after a newline, which no token, comment or ``->`` crosses.
_SLICE_CHARS = 1 << 15

# The tokens that are not words, eof (``""``) among them.
_MARKS = frozenset({"=>", "->", "(", ")", "{", "}", "@", "=", ""})
# The characters besides ``str.isalnum`` ones (``\w`` less ``_``) that can
# start a token.
_TOKEN_STARTS = "_?.+/'*<!&%$#~^|\\-(){}@="

# The letters-only words ``float()`` accepts, lowercased; every other word it
# accepts starts with a sign, a point or a decimal digit.
_FLOAT_NAMES = frozenset({"inf", "infinity", "nan"})


def _number(word: str) -> float | None:
    """The value of ``word`` if it is a number, else None."""
    if word[0] in "+-." or word[0].isdecimal() or word.lower() in _FLOAT_NAMES:
        try:
            return float(word)
        except ValueError:
            pass
    return None


def _bad(token: str) -> bool:
    """Whether ``token`` is a run of characters that start no token."""
    first = token[:1]
    return not (first.isalnum() or first in _TOKEN_STARTS)  # "" is eof


def _where(text: str, pos: int) -> tuple:
    """The 1-based (line, column) of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str, filename: str, errors: list, symbols: dict) -> list:
    """The texts of the tokens of ``text``, each interned in ``symbols``,
    ending in two eof tokens. Runs of bad characters are reported to
    ``errors`` and dropped."""
    intern = symbols.setdefault
    texts = []
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE_CHARS - 1) + 1 or len(text)
        found = _TOKEN_RE.findall(text, start, end)
        while found and not found[-1]:  # the eof of the slice
            found.pop()
        texts += map(intern, found, found)
        start = end
    # A bad run's first character starts no other token, so the distinct
    # tokens show whether the text has one.
    if any(map(_bad, symbols)):
        texts = []
        for m in _TOKEN_RE.finditer(text):
            token = m.group(1)
            if not _bad(token):
                texts.append(intern(token, token))
            elif len(errors) < MAX_ERRORS:
                errors.append(ParseError(filename, *_where(text, m.start(1)),
                                         "unexpected characters", token[0]))
        while texts and not texts[-1]:
            texts.pop()
    # Two eof tokens, so that ``token(1)`` at the end needs no bounds check.
    texts += ("", "")
    return texts


# --- parser core ------------------------------------------------------------

class _Parser:
    """A cursor over the token list. A token is named by its index, and
    its offset is worked out only when an error is reported.

    Every token text, proposition, (proposition, level) pair and
    probability rule of a parse is built through ``symbols``, so that equal
    values are one object (a negation excepted: it wraps the shared
    proposition). Its keys cannot meet: a token is a string, a proposition
    is keyed by the tuple of its words, a pair by itself, a tuple that
    starts with a proposition, and a rule by its conditions and its value's
    repr, a tuple that starts with a tuple. The table is the parser's, and
    goes when the parse does."""

    def __init__(self, text: str, filename: str):
        self.source = text
        self.filename = filename
        self.errors: list = []
        # Names of statements reported and dropped: a later reference to one
        # is not reported again.
        self.rejected: set = set()
        self.symbols: dict = {}
        self.texts = _tokenize(text, filename, self.errors, self.symbols)
        # How many errors were reported, also past the ``MAX_ERRORS`` cap: a
        # statement whose parse reported one is dropped.
        self.reported = len(self.errors)
        self.offsets = None  # of each token, from the first error on
        self.pos = 0

    def token(self, ahead: int = 0) -> str:
        """The text of the token ``ahead`` (0 or 1) places on; eof past the end."""
        return self.texts[self.pos + ahead]

    def advance(self) -> str:
        """Consume the next token and return its text; at eof, stay there."""
        i = self.pos
        if self.texts[i]:  # not eof
            self.pos = i + 1
        return self.texts[i]

    def take(self, token: str) -> bool:
        """Consume the next token if its text is ``token``, which is not eof."""
        if self.texts[self.pos] == token:
            self.pos += 1
            return True
        return False

    def expect(self, token: str, message: str) -> bool:
        """Consume the next token if its text is ``token``, else report ``message``."""
        if self.take(token):
            return True
        self.error(message)
        return False

    def at_keyword(self, words) -> bool:
        return self.texts[self.pos] in words  # every keyword is a word

    def at_word(self) -> bool:
        return self.texts[self.pos] not in _MARKS

    def at_name(self) -> bool:
        """Whether the next token is a word that is neither reserved nor a number."""
        word = self.texts[self.pos]
        return word not in _MARKS and word not in RESERVED and _number(word) is None

    def offset(self, index: int) -> int:
        """The offset in the text of token ``index``."""
        if self.offsets is None:
            # The tokens ``_tokenize`` kept, and the eof it may have added.
            self.offsets = [m.start(1) for m in _TOKEN_RE.finditer(self.source)
                            if not _bad(m.group(1))]
            self.offsets += [len(self.source)] * (len(self.texts) - len(self.offsets))
        return self.offsets[index]

    def error(self, message: str, index: int | None = None):
        """Report ``message`` at token ``index``, by default the next one."""
        self.reported += 1
        if len(self.errors) < MAX_ERRORS:
            if index is None:
                index = self.pos
            self.errors.append(ParseError(self.filename,
                                          *_where(self.source, self.offset(index)),
                                          message, self.texts[index]))

    def build(self, index: int, make, *args, **kwargs):
        """``make(*args, **kwargs)``, or None once its ``ValueError`` is
        reported at token ``index``."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            self.error(str(exc), index)
            return None

    def skip_to(self, keywords):
        """Error recovery: drop tokens until a statement keyword or EOF."""
        while self.token() and not self.at_keyword(keywords):
            self.advance()

    def skip_group(self):
        """Drop tokens up to the ')' that closes the '(' at the cursor, or EOF."""
        opened = 0
        while self.token():
            opened += {"(": 1, ")": -1}.get(self.advance(), 0)
            if not opened:
                return

    def expect_ident(self, what: str) -> str | None:
        if self.at_name():
            return self.advance()
        self.error(f"expected {what}")
        return None

    def number(self) -> float | None:
        """The value of the next token if it is a number, else None."""
        word = self.texts[self.pos]
        return None if word in _MARKS else _number(word)

    def expect_number(self, what: str, rule: str | None = None, low: float = -math.inf,
                      high: float = math.inf, integer: bool = False):
        """The next token's number, consumed; else None. A token that is not
        a number is reported as ``expected {what}`` and left in place. A
        number that is not an integer when ``integer`` is set, or that lies
        outside [low, high] when a ``rule`` is given (NaN lies in no range),
        is reported at its own token, as ``{what} must be an integer`` or as
        ``rule``."""
        value = self.number()
        if value is None:
            self.error(f"expected {what}")
            return None
        if integer and not value.is_integer():  # also rejects inf and nan
            rule = f"{what} must be an integer"
        elif rule is None or low <= value <= high:
            self.advance()
            return int(value) if integer else value
        self.error(rule)
        self.advance()
        return None

    def expect_int(self, what: str, rule: str | None = None,
                   low: float = -math.inf) -> int | None:
        return self.expect_number(what, rule, low, integer=True)

    def parse_proposition(self, depth: int = 0) -> Proposition | None:
        if self.token() != "(":
            self.error("expected '(' starting a proposition")
            return None
        if depth > MAX_PROP_DEPTH:
            self.error("proposition nested too deeply")
            self.skip_group()
            return None
        self.advance()
        if self.take("not"):
            inner = self.parse_proposition(depth + 1)
            # A rejected inner one was reported already.
            if not self.take(")") and inner is not None:
                self.error("expected ')' closing (not ...)")
            return inner.negated() if inner else None
        if not self.at_name():
            self.error("expected predicate name")
            while self.token() not in (")", ""):
                self.advance()
            self.take(")")
            return None
        head = self.advance()
        args = []
        while self.at_word():
            args.append(self.advance())
        if not self.expect(")", "expected ')' closing proposition"):
            return None
        key = (head, *args)
        prop = self.symbols.get(key)
        if prop is None:
            prop = self.symbols[key] = Proposition(head, tuple(args))
        return prop

    def parse_level_suffix(self, missing: str | None = None) -> int | None:
        """An optional '@ <int>' after a proposition; if there is none,
        ``missing``, when given, is reported."""
        if self.take("@"):
            return self.expect_int("level index after '@'")
        if missing is not None:
            self.error(missing)
        return None

    def parse_prop_list(self, missing: str | None = None):
        """(proposition, level or None) pairs, until a non-'(' token."""
        out = []
        while self.token() == "(":
            prop = self.parse_proposition()
            level = self.parse_level_suffix(missing)
            if prop is not None:
                out.append((prop, level))
        return out


# --- domain parsing ---------------------------------------------------------

def parse_domain(text: str, filename: str = "<domain>") -> DomainSpec:
    """Parse a domain file; raises :class:`ParseFailure` with every error found."""
    p = _Parser(text, filename)
    n_levels = None  # 0 once a declaration's value is rejected: no level is checked
    goal = None
    goal_fulfilment = 1000.0
    rho = 0.1
    coverage = (0.0, 0.0)
    compat = []
    rules = []
    operators = []
    names = set()
    subgoal_refs = []   # (parent op, subgoal name, token index) for resolution
    recover_refs = []   # (op name, recovery name, token index)
    # (first token index, owner, levels used, own level) of each statement read
    # and not yet checked. Checks wait here only until n is known, not to the
    # end: holding one per operator raises the parse peak by about 0.2 MiB
    # on 1093 operators.
    level_checks = []

    while p.token():
        reported = p.reported
        if not p.at_keyword(TOP_KEYWORDS):
            p.error(f"expected a top-level keyword, found {p.token()!r}")
            p.skip_to(TOP_KEYWORDS)
            continue
        keyword = p.advance()
        start = p.pos
        if keyword == "levels":
            value = p.expect_int("level count after 'levels'", "level count must be >= 1", 1)
            if n_levels is None:
                n_levels = value or 0
            elif value is not None:
                p.error("duplicate levels declaration", start)
        elif keyword == "goal":
            name = p.expect_ident("goal operator name")
            if name is not None:
                if goal is not None:
                    p.error("duplicate goal declaration", start)
                else:
                    goal = (name, start)
            if p.number() is not None:
                value = p.expect_number("goal fulfilment", "goal fulfilment must be >= 0", 0)
                if value is not None:
                    goal_fulfilment = value
        elif keyword == "review":
            p.take("rho")
            value = p.expect_number("offset fraction after 'review rho'",
                                    "review rho must be >= 0", 0)
            if value is not None:
                rho = value
        elif keyword == "coverage":
            bounds = "coverage thresholds must lie in [0, 1]"
            s = p.expect_number("coverage support threshold", bounds, 0, 1)
            # A rejected support drops the statement with its plausibility unread.
            pl = None if s is None else p.expect_number(
                "coverage plausibility threshold", bounds, 0, 1)
            if pl is not None:
                coverage = (s, pl)
        elif keyword == "compat":
            rel = _parse_compat(p)
            if rel is not None:
                compat.append(rel)
                level_checks.append((start, f"compat relation {rel}",
                                     (rel.if_at_level, rel.then_at_level), None))
        elif keyword == "rule":
            rule = _parse_rule(p)
            if rule is not None:
                rules.append(rule)
                # A condition without a level is read at the level of the change.
                level_checks.append((start, f"rule {rule.name or f'#{len(rules)}'}",
                                     [level for _, level in rule.conditions]
                                     + [level for _, _, level in rule.effects], None))
        elif keyword == "operator":
            op = _parse_operator(p, subgoal_refs, recover_refs)
            if op is not None:
                if op.name in names:
                    p.error(f"duplicate operator name {op.name!r}", start)
                else:
                    names.add(op.name)
                    operators.append(op)
                    level_checks.append((start, f"operator {op.name!r}", [
                        level for pairs in (op.necessary, op.satisfiable, op.postconditions,
                                            *(rule.conditions for rule in op.probability_rules))
                        for _, level in pairs
                    ] + [level for entry in op.plot for _, _, level in entry.edits],
                        op.abstraction_level))
        if p.reported > reported:  # the statement is dropped up to the next one
            p.skip_to(TOP_KEYWORDS)
        if n_levels:
            _check_levels(p, level_checks, n_levels)

    # Resolution pass.
    if n_levels is None:
        p.error("missing levels declaration")
        n_levels = 1
    if n_levels:
        _check_levels(p, level_checks, n_levels)
    if goal is None:
        p.error("missing goal declaration")
    for parent, ref, tok in subgoal_refs:
        if ref not in names and ref not in p.rejected:
            p.error(f"plot of {parent!r} references undeclared operator {ref!r}", tok)
    for parent, ref, tok in recover_refs:
        if ref not in names and ref not in p.rejected:
            p.error(f"planfail of {parent!r} names undeclared operator {ref!r}", tok)
    if goal is not None:
        if goal[0] in names:
            goal_op = next(op for op in operators if op.name == goal[0])
            # A level outside 1..n is reported at the operator.
            if goal_op.abstraction_level != 1 and 1 <= goal_op.abstraction_level <= n_levels:
                p.error(f"goal operator {goal[0]!r} must be at abstraction level 1",
                        goal[1])
        elif goal[0] not in p.rejected:
            p.error(f"goal names undeclared operator {goal[0]!r}", goal[1])

    if p.errors:
        raise ParseFailure(p.errors)
    return DomainSpec(
        n_levels=n_levels,
        operators=tuple(operators),
        causal_rules=tuple(rules),
        compat=tuple(compat),
        goal=goal[0],
        goal_fulfilment=goal_fulfilment,
        review=ReviewPolicy(offset_fraction=rho),
        coverage_threshold=coverage,
    )


def _check_levels(p: _Parser, checks: list, n_levels: int):
    """Report each level of a waiting statement outside 1..n, its own or one
    it uses, at the statement's first token, and empty ``checks``."""
    for start, owner, levels, own_level in checks:
        if own_level is not None and not 1 <= own_level <= n_levels:
            p.error(f"{owner} is at level {own_level}, outside 1..{n_levels}", start)
        for level in levels:
            if level is not None and not 1 <= level <= n_levels:
                p.error(f"{owner} uses level {level}, outside 1..{n_levels}", start)
    checks.clear()


def _parse_compat(p: _Parser) -> CompatibilityRelation | None:
    tok, reported = p.pos, p.reported
    if_prop = p.parse_proposition()
    if_level = p.parse_level_suffix("compat antecedent needs an explicit '@ level'")
    if not p.expect("=>", "expected '=>' in compat relation"):
        return None
    then_prop = p.parse_proposition()
    then_level = p.parse_level_suffix("compat consequent needs an explicit '@ level'")
    if p.reported > reported:
        return None
    return p.build(tok, CompatibilityRelation, if_level, if_prop, then_level, then_prop)


def _parse_rule(p: _Parser) -> CausalRule | None:
    tok, reported = p.pos, p.reported
    name = ""
    if p.at_word() and p.number() is None and p.token() != "when":
        name = p.expect_ident("rule name") or ""
    if not p.expect("when", "expected 'when' in rule"):
        return None
    retract_trigger = p.take("retract")
    trigger = p.parse_proposition()
    if trigger is None:
        return None
    if retract_trigger:
        trigger = trigger.negated()
    conditions = []
    if p.take("if"):
        conditions = p.parse_prop_list()
    if not p.expect("then", "expected 'then' in rule"):
        return None
    effects = []
    while p.at_keyword({"assert", "retract"}):
        op = p.advance()
        prop = p.parse_proposition()
        level = p.parse_level_suffix("rule effects need an explicit '@ level'")
        effects.append((op, prop, level))
    if p.reported > reported:
        return None
    return p.build(tok, CausalRule, trigger, tuple(conditions), tuple(effects), name)


def _parse_operator(p: _Parser, subgoal_refs: list, recover_refs: list):
    name_tok, reported = p.pos, p.reported
    name = p.expect_ident("operator name")
    if name is None:
        return None
    level = None
    necessary = []
    satisfiable = []
    plot_mode = None
    plot_entries = []
    prob_rules = []  # (conditions, value, the value's token index)
    prob_default_seen = False
    prob_block_seen = False
    postconditions = []
    planfail = PLANFAIL_BACKTRACK

    while p.at_keyword(SLOT_KEYWORDS):
        slot = p.advance()
        if slot == "level":
            level = p.expect_int("abstraction level")
        elif slot == "necessary":
            necessary.extend(p.parse_prop_list())
        elif slot == "satisfiable":
            satisfiable.extend(p.parse_prop_list())
        elif slot == "plot":
            if p.take("choose-one"):
                plot_mode = CHOOSE_ONE
            else:
                p.expect("do-all", "expected 'choose-one' or 'do-all' after 'plot'")
                plot_mode = DO_ALL
            plot_entries.extend(_parse_plot_entries(p, name, subgoal_refs))
        elif slot == "probability":
            prob_block_seen = True
        elif slot == "when":
            if prob_default_seen:
                p.error("probability 'when' clause after 'default'", p.pos - 1)
            conds = p.parse_prop_list()
            p.expect("=>", "expected '=>' after probability condition")
            index = p.pos
            value = p.expect_number("probability value")
            if value is not None:
                prob_rules.append((tuple(conds), value, index))
        elif slot == "default":
            index = p.pos
            value = p.expect_number("default probability value")
            if value is not None:
                prob_rules.append(((), value, index))
                prob_default_seen = True
        elif slot == "postconditions":
            postconditions.extend(p.parse_prop_list())
        elif slot == "planfail":
            if p.take("backtrack"):
                planfail = PLANFAIL_BACKTRACK
            elif p.take("reject-branch"):
                planfail = PLANFAIL_REJECT_BRANCH
            elif p.take("recover"):
                tok = p.pos - 1
                target = p.expect_ident("recovery operator name")
                if target is not None:
                    planfail = target
                    recover_refs.append((name, target, tok))
            else:
                p.error("expected 'backtrack', 'reject-branch' or 'recover <name>'")

    # A level that was given but rejected has been reported already.
    if level is None and p.reported == reported:
        p.error(f"operator {name!r} is missing its abstraction level", name_tok)
    if not (prob_rules or prob_block_seen):
        prob_rules = [((), 1.0, name_tok)]

    def fill(pairs):
        filled = [(prop, level if lvl is None else lvl) for prop, lvl in pairs]
        return tuple(map(p.symbols.setdefault, filled, filled))

    def rule(conds, value, index):
        """The shared row, keyed by its value's repr: ``-0.0`` equals ``0.0``
        but prints apart. A new row is checked by its constructor, at its
        value."""
        conditions = fill(conds)
        key = (conditions, repr(value))
        shared = p.symbols.get(key)
        if shared is None:
            shared = p.build(index, ProbabilityRule, conditions, value)
            if shared is not None:
                p.symbols[key] = shared
        return shared

    rules = tuple(rule(*entry) for entry in prob_rules)
    op = None if p.reported > reported else p.build(
        name_tok,
        ReductionOperator,
        name=name,
        abstraction_level=level,
        necessary=fill(necessary),
        satisfiable=fill(satisfiable),
        plot_mode=plot_mode or DO_ALL,
        plot=tuple(plot_entries),
        probability_rules=rules,
        postconditions=fill(postconditions),
        planfail=planfail,
    )
    if op is None:
        p.rejected.add(name)
    return op


def _parse_plot_entries(p: _Parser, parent: str, subgoal_refs: list):
    entries = []
    while True:
        tok = p.pos
        if p.at_keyword(("assert", "retract")):
            op = p.advance()
            prop = p.parse_proposition()
            level = p.parse_level_suffix("plot edits need an explicit '@ level'")
            entries.append(PlotEntry("state-edit", edits=((op, prop, level),)))
        elif p.at_name():
            name = p.advance()
            fulfilment = p.expect_number(f"fulfilment after subgoal {name!r}",
                                         "fulfilment must be >= 0", 0)
            if fulfilment is not None:
                entries.append(PlotEntry("subgoal", subgoal_name=name, fulfilment=fulfilment))
                subgoal_refs.append((parent, name, tok))
        else:
            break
    return entries


# --- evidence parsing --------------------------------------------------------

def parse_evidence(text: str, filename: str = "<evidence>",
                   n_levels: int | None = None) -> EvidenceSet:
    """Parse an evidence file; raises :class:`ParseFailure` on any error.

    Given the domain's level count ``n_levels``, a mapping to a level outside
    1..n is one of those errors, reported at the mapping."""
    p = _Parser(text, filename)
    frames: list = []
    masses = []  # (frame name, [(subset, value)], token index)

    while p.token():
        reported = p.reported
        if not p.at_keyword(EVIDENCE_KEYWORDS):
            p.error(f"expected 'frame' or 'mass', found {p.token()!r}")
            p.skip_to(EVIDENCE_KEYWORDS)
            continue
        keyword = p.advance()
        if keyword == "frame":
            start = p.pos
            frame = _parse_frame(p, n_levels)
            if frame is not None:
                if any(f.name == frame.name for f in frames):
                    p.error(f"duplicate frame {frame.name!r}", start)
                else:
                    frames.append(frame)
        else:
            _parse_mass(p, masses)
        if p.reported > reported:  # the statement is dropped up to the next one
            p.skip_to(EVIDENCE_KEYWORDS)

    built_masses = []
    by_name = {f.name: f for f in frames}
    for frame_name, assignments, tok in masses:
        frame = by_name.get(frame_name)
        if frame is None:
            if frame_name not in p.rejected:
                p.error(f"mass references undeclared frame {frame_name!r}", tok)
            continue
        total = sum(v for _, v in assignments)
        if abs(total - 1.0) > 1e-6 or total <= 0:
            p.error(f"masses sum to {total:g}", tok)
            continue
        # Sorted as ``mass_function`` sorts, with any repeated subset kept
        # for the constructor to reject.
        mass = p.build(tok, MassFunction, frame, tuple(sorted(
            ((subset, value / total) for subset, value in assignments),
            key=lambda pair: sorted(pair[0]))))
        if mass is not None:
            built_masses.append(mass)

    if p.errors:
        raise ParseFailure(p.errors)
    return EvidenceSet(tuple(frames), tuple(built_masses))


def _parse_frame(p: _Parser, n_levels: int | None) -> Frame | None:
    tok, reported = p.pos, p.reported
    name = p.expect_ident("frame name")
    if name is None:
        return None
    if not p.expect("{", "expected '{' opening frame elements"):
        p.rejected.add(name)
        return None
    elements = []
    while p.at_word():
        elements.append(p.advance())
    p.expect("}", "expected '}' closing frame elements")
    mappings = []
    held = {}  # element -> the (fact, level) pairs its mappings so far give it
    while p.at_name() and p.token(1) == "->":
        element_tok = p.pos
        element = p.advance()
        p.advance()  # ->
        pairs = p.parse_prop_list("frame element propositions need an explicit '@ level'")
        outside = [level for _, level in pairs if n_levels is not None
                   and level is not None and not 1 <= level <= n_levels]
        facts = held.setdefault(element, set())
        clash = None
        for pair in pairs:
            prop, level = pair
            if clash is None and (prop.negated(), level) in facts:
                clash = pair
            facts.add(pair)
        if outside:
            p.error(f"frame {name!r} maps element {element!r} to level {outside[0]}, "
                    f"outside 1..{n_levels}", element_tok)
        elif clash is not None:
            # A level holding a fact and its negation reads as if neither held.
            prop, level = clash
            p.error(f"frame {name!r} maps element {element!r} to both "
                    f"{_format_prop_level(prop.negated(), level)} and "
                    f"{_format_prop_level(prop, level)}", element_tok)
        mappings.append((element, tuple(pairs)))
    frame = None if p.reported > reported else p.build(
        tok, Frame, name, tuple(elements), tuple(mappings))
    if frame is None:
        p.rejected.add(name)
    return frame


def _parse_mass(p: _Parser, masses: list):
    tok, reported = p.pos, p.reported
    frame_name = p.expect_ident("frame name after 'mass'")
    if frame_name is None:
        return
    assignments = []
    while p.take("{"):
        subset = []
        while p.at_word():
            subset.append(p.advance())
        if not (p.expect("}", "expected '}' closing mass subset")
                and p.expect("=", "expected '=' after mass subset")):
            break
        value = p.expect_number("mass value")
        if value is None:
            break
        assignments.append((frozenset(subset), value))
    if p.reported > reported:
        return
    if not assignments:
        p.error(f"mass declaration for {frame_name!r} assigns nothing", tok)
        return
    masses.append((frame_name, assignments, tok))


# --- linter -----------------------------------------------------------------

def _effect_change(op: str, prop: Proposition) -> Proposition:
    """The change literal an effect produces: retracts flip polarity."""
    return prop if op == "assert" else prop.negated()


def lint_domain(spec: DomainSpec) -> list:
    """Static checks beyond the grammar; returns :class:`Diagnostic` items."""
    out = []

    # Causal rules must be stratified or deduction may never terminate.
    rules = spec.causal_rules
    # Only a trigger of the change's predicate and polarity can unify with it.
    by_trigger = {}
    for j, rule in enumerate(rules):
        by_trigger.setdefault((rule.trigger.predicate, rule.trigger.polarity), []).append(j)
    edges = {i: set() for i in range(len(rules))}
    for i, ri in enumerate(rules):
        for op, prop, _level in ri.effects:
            change = _effect_change(op, prop)
            for j in by_trigger.get((change.predicate, change.polarity), ()):
                if patterns_unify(change, rules[j].trigger):
                    edges[i].add(j)
    state = {}  # 0 visiting, 1 done

    def cycle_from(start):
        """Depth-first from ``start``, with an explicit stack so that a
        long trigger chain cannot reach the recursion limit; returns the
        rule a back edge reaches, which is on a cycle, or None."""
        state[start] = 0
        stack = [(start, iter(edges[start]))]
        while stack:
            i, successors = stack[-1]
            for j in successors:
                if state.get(j) == 0:
                    return j
                if j not in state:
                    state[j] = 0
                    stack.append((j, iter(edges[j])))
                    break
            else:
                stack.pop()
                state[i] = 1
        return None

    for i in range(len(rules)):
        if i not in state and (j := cycle_from(i)) is not None:
            label = rules[j].name or f"rule #{j + 1}"
            out.append(Diagnostic(
                "error",
                f"causal rules are not stratifiable: {label} can re-trigger itself",
            ))
            break

    # Plot shape checks.
    for op in spec.operators:
        kinds = {e.kind for e in op.plot}
        if kinds == {"subgoal", "state-edit"}:
            out.append(Diagnostic("error", f"operator {op.name!r} mixes subgoals "
                                           "and state edits in one plot"))
        if op.plot_mode == CHOOSE_ONE:
            if "state-edit" in kinds:
                out.append(Diagnostic("error", f"operator {op.name!r} has state edits "
                                               "in a choose-one plot"))
            if len(op.plot) == 1:
                out.append(Diagnostic("warning", f"operator {op.name!r} has a "
                                                 "choose-one plot with a single entry"))
        if op.plot_mode == DO_ALL and not op.plot:
            out.append(Diagnostic("error", f"operator {op.name!r} has a do-all plot "
                                           "with no entries"))
        if "state-edit" in kinds and op.abstraction_level != spec.n_levels:
            out.append(Diagnostic("error", f"operator {op.name!r} edits the state but "
                                           "is not at the lowest abstraction level"))
        for entry in op.subgoal_entries():
            child = spec.operator(entry.subgoal_name)
            if child.abstraction_level < op.abstraction_level:
                out.append(Diagnostic(
                    "error",
                    f"plot of {op.name!r} (level {op.abstraction_level}) references "
                    f"{child.name!r} at the more abstract level {child.abstraction_level}",
                ))

    # Reachability from the goal: plots, recovery operators, and operators
    # usable as helpers for a reachable operator's satisfiable preconditions.
    reachable = {spec.goal}
    frontier = [spec.goal]
    while frontier:
        name = frontier.pop()
        op = spec.operator(name)
        referenced = [e.subgoal_name for e in op.subgoal_entries()]
        if op.planfail not in (PLANFAIL_BACKTRACK, PLANFAIL_REJECT_BRANCH):
            referenced.append(op.planfail)
        for target, level in op.satisfiable:
            referenced.extend(candidate.name for candidate in
                              spec.achievers(target, level, op.abstraction_level))
        for ref in referenced:
            if ref not in reachable:
                reachable.add(ref)
                frontier.append(ref)
    for op in spec.operators:
        if op.name not in reachable:
            out.append(Diagnostic("warning",
                                  f"operator {op.name!r} is unreachable from the goal"))
    return out


# --- pretty-printers ---------------------------------------------------------

def _format_prop_level(prop: Proposition, level: int | None) -> str:
    return f"{prop}@{level}" if level is not None else str(prop)


def format_domain(spec: DomainSpec) -> str:
    """Canonical text for a domain; reparsing it yields an equal DomainSpec."""
    lines = [f"levels {spec.n_levels}", f"goal {spec.goal} {spec.goal_fulfilment!r}",
             f"review rho {spec.review.offset_fraction!r}",
             f"coverage {spec.coverage_threshold[0]!r} {spec.coverage_threshold[1]!r}",
             ""]
    for rel in spec.compat:
        lines.append(f"compat {rel.if_pattern}@{rel.if_at_level} => "
                     f"{rel.then_pattern}@{rel.then_at_level}")
    if spec.compat:
        lines.append("")
    for rule in spec.causal_rules:
        head = "rule"
        if rule.name:
            head += f" {rule.name}"
        trigger = rule.trigger
        head += (f" when retract {trigger.negated()}" if not trigger.polarity
                 else f" when {trigger}")
        if rule.conditions:
            head += " if " + " ".join(
                _format_prop_level(c, lvl) for c, lvl in rule.conditions
            )
        head += " then " + " ".join(
            f"{op} {prop}@{lvl}" for op, prop, lvl in rule.effects
        )
        lines.append(head)
    if spec.causal_rules:
        lines.append("")
    for op in spec.operators:
        lines.append(f"operator {op.name}")
        lines.append(f"  level {op.abstraction_level}")
        for label, pairs in (("necessary", op.necessary),
                             ("satisfiable", op.satisfiable)):
            if pairs:
                lines.append(f"  {label} " + " ".join(
                    _format_prop_level(prop, lvl) for prop, lvl in pairs
                ))
        mode = "choose-one" if op.plot_mode == CHOOSE_ONE else "do-all"
        if op.plot:
            lines.append(f"  plot {mode}")
            for entry in op.plot:
                if entry.kind == "subgoal":
                    lines.append(f"    {entry.subgoal_name} {entry.fulfilment!r}")
                else:
                    for edit_op, prop, lvl in entry.edits:
                        lines.append(f"    {edit_op} {prop}@{lvl}")
        lines.append("  probability")
        for rule in op.probability_rules:
            if rule.conditions:
                conds = " ".join(_format_prop_level(c, lvl) for c, lvl in rule.conditions)
                lines.append(f"    when {conds} => {rule.value!r}")
            else:
                lines.append(f"    default {rule.value!r}")
        if op.postconditions:
            lines.append("  postconditions " + " ".join(
                _format_prop_level(prop, lvl) for prop, lvl in op.postconditions
            ))
        if op.planfail in (PLANFAIL_BACKTRACK, PLANFAIL_REJECT_BRANCH):
            lines.append(f"  planfail {op.planfail}")
        else:
            lines.append(f"  planfail recover {op.planfail}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def format_evidence(ev: EvidenceSet) -> str:
    """Canonical text for an evidence set."""
    lines = []
    for frame in ev.frames:
        lines.append(f"frame {frame.name} {{{' '.join(frame.elements)}}}")
        for element, pairs in frame.to_propositions:
            if pairs:
                body = " ".join(f"{prop}@{lvl}" for prop, lvl in pairs)
                lines.append(f"  {element} -> {body}")
        for m in ev.masses:
            if m.frame.name == frame.name:
                parts = " ".join(
                    f"{{{' '.join(sorted(subset))}}}={mass!r}"
                    for subset, mass in m.masses
                )
                lines.append(f"mass {frame.name} {parts}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
