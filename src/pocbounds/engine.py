"""Bound computation for probabilities of causation.

The evaluator walks a canonical query through eight theorem dispatchers:
four closed forms for a single counterfactual term (joint with an observed
outcome, an observed treatment, or both) and four recursive forms for
conjunctions of terms. An event with no term left, observed evidence only,
is a point leaf. Every theorem is a max over lower-bound candidates
against a min over upper-bound candidates; the recursion consumes the final
clamped bounds of its subqueries, each evaluated once per call and cached on
its canonical key, so `stats_evaluated` is the number of distinct subqueries.

Traces record every candidate value before clamping (lower-bound branches go
negative routinely), which branch won, and the child subquery traces. The
candidate values live on the BoundTrace records only: to_json, and so
`bound --trace`, prints the winning branches and the clamped ends.
Conditional queries trace the joint event; the result interval is the joint
interval divided by the evidence probability.

Leave-one-out pruning. For each term t of a k-term node, T5-T8 could also
bound the event through the (k-1)-term plain subquery `rest` that leaves t
out: lo(rest) + partner(t) - 1 from below, where partner(t) is P(t) in T5 and
the lower end of t's pair node in T6-T8, and hi(rest) from above. Evaluating
every `rest` makes the recursion grow like 2^(k+2). The engine drops the
upper form and evaluates the lower one only where it can win, and neither
step changes an interval:

* Upper. hi(rest) is never strictly below the node's other upper candidates
  (each P(term), P(evidence), each pair(term), decomp). If it is some P(t')
  it is one of them. Otherwise it is the decomp sum of rest, whose summands
  are arm intervals clamped to >= 0; float addition is monotone, so the sum
  is at least each summand. In T6 and T8 take the evidence arm x_p: each
  upper candidate of (rest, x_p) is a candidate of the node or dominates
  one, since P(x_p) >= P(x_p, y_q) and the T3 pair (t', x_p) dominates the
  T4 pair (t', x_p, y_q). In T5 and T7 compare the two decomp sums arm by
  arm, in the same order: each arm of rest has fewer terms or less evidence
  than the node's arm, or the node skips that arm, and computed hi only
  shrinks as terms or evidence are added.
* Lower. lo(rest) <= hi(rest) <= min of P(t') over rest, since each P(t')
  is an upper candidate of rest. Float rounding is monotone, so the cap
  min(P(t')) + partner(t) - 1.0, computed with the same operations in the
  same order as the candidate, is at least the candidate. The pair and
  decomp children are evaluated first; `rest` is evaluated only when its
  cap exceeds the best lower value found so far, so a skipped candidate
  could at most have tied it.

The one gap is float noise: make_interval swaps raw ends that cross by at
most EPS_NUM, which can lift a node's hi by as much and break "hi only
shrinks". tests/data/engine_corpus.json holds intervals computed
with the full recursion, and the engine still reproduces them bit for bit.
Skipped subqueries leave no trace and do not count in `stats_evaluated`.
"""

from __future__ import annotations

from typing import NamedTuple

from .frechet import EPS_NUM, Interval, make_interval
from .model import Dataset
from .queryir import (
    ZERO,
    Query,
    UnsupportedQuery,
    canonicalize,
    parse_query,
    restrict_to_arm,
    subquery_label,
    validate_indices,
)

# Without leave-one-out pruning the distinct subqueries of a k-term query grow
# like 2^(k+2); with it an 8-term query on an 8x4 table visits 65. The limit
# guards the unpruned worst case.
MAX_TERMS = 8


class ZeroEvidenceProbability(ValueError):
    """Conditioning on evidence whose probability is (numerically) zero."""

    def __init__(self, label: str, value: float):
        super().__init__(f"evidence {label} has probability {value!r}; cannot condition on it")


class BoundTrace(NamedTuple):
    """One derivation node: which theorem ran and which branches won.

    Candidate lists keep the raw branch values before clamping, negative
    lower-bound candidates included. to_json leaves them out: it gives the
    winning branches, the clamped ends and the children.
    """

    query: str
    theorem: str  # T1..T8, Exact, Zero
    lower_branch: str
    upper_branch: str
    lo: float
    hi: float
    lower_candidates: tuple[tuple[str, float], ...]
    upper_candidates: tuple[tuple[str, float], ...]
    children: tuple["BoundTrace", ...]

    def to_json(self) -> dict:
        return {
            "query": self.query,
            "theorem": self.theorem,
            "lower_branch": self.lower_branch,
            "upper_branch": self.upper_branch,
            "lo": self.lo,
            "hi": self.hi,
            "children": [child.to_json() for child in self.children],
        }


class BoundResult(NamedTuple):
    interval: Interval
    trace: BoundTrace
    stats_evaluated: int


class _Evaluator:
    """Joint-event recursion over (terms, evidence_x, evidence_y) keys."""

    def __init__(self, dataset: Dataset):
        self.ds = dataset
        self.memo: dict = {}

    def eval(self, terms, ex, ey) -> tuple[Interval, BoundTrace]:
        key = (terms, ex, ey)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._dispatch(terms, ex, ey)
        return hit

    def _dispatch(self, terms, ex, ey):
        if not terms:
            return self._evidence_point(ex, ey)
        if len(terms) == 1:
            term = terms[0]
            if ex is None and ey is None:
                return self._exact_point(term)
            if ex is None:
                if ey == term.outcome:
                    return self._t1(term)
                return self._t2(term, ey)
            if ey is None:
                return self._t3(term, ex)
            return self._t4(term, ex, ey)
        if ex is None and ey is None:
            return self._t5(terms)
        if ey is None:
            return self._evidence_node(terms, ex, None, "T6")
        if ex is None:
            return self._evidence_node(terms, None, ey, "T7")
        return self._evidence_node(terms, ex, ey, "T8")

    def _node(self, terms, ex, ey, theorem, lower, upper, children):
        lo_label, lo_raw = max(lower, key=lambda cand: cand[1])
        hi_label, hi_raw = min(upper, key=lambda cand: cand[1])
        interval = make_interval(lo_raw, hi_raw, lo_label, hi_label)
        trace = BoundTrace(
            query=subquery_label(terms, ex, ey),
            theorem=theorem,
            lower_branch=lo_label,
            upper_branch=hi_label,
            lo=interval.lo,
            hi=interval.hi,
            lower_candidates=tuple(lower),
            upper_candidates=tuple(upper),
            children=tuple(children),
        )
        return interval, trace

    # -- single-term forms ------------------------------------------------

    def _exact_point(self, t):
        v = self.ds.p_do(t.treatment, t.outcome)
        label = f"P(y{t.outcome}_x{t.treatment})"
        return self._node((t,), None, None, "Exact", [(label, v)], [(label, v)], ())

    def _evidence_point(self, ex, ey):
        v = self.ds.p_evidence(ex, ey)
        label = subquery_label((), ex, ey)
        return self._node((), ex, ey, "Exact", [(label, v)], [(label, v)], ())

    def _t1(self, t):
        # P(y_i under x_j, joint with observed Y = y_i)
        ds, j, i = self.ds, t.treatment, t.outcome
        lower = [
            (f"P(x{j},y{i})", ds.p_joint(j, i)),
            (f"P(y{i}_x{j})+P(y{i})-1", ds.p_do(j, i) + ds.p_y(i) - 1.0),
        ]
        upper = [
            (f"P(y{i}_x{j})", ds.p_do(j, i)),
            (f"P(y{i})", ds.p_y(i)),
        ]
        return self._node((t,), None, i, "T1", lower, upper, ())

    def _t2(self, t, q):
        # P(y_i under x_j, joint with observed Y = y_q), q != i
        ds, j, i = self.ds, t.treatment, t.outcome
        base = ds.p_do(j, i) - 1.0 + ds.p_x(j) - ds.p_joint(j, i)
        # Per-p clamp sits inside the sum, as the formula is printed.
        dual = sum(
            max(0.0, base + ds.p_joint(p, q))
            for p in range(1, ds.space.m + 1)
            if p != j
        )
        lower = [
            ("0", 0.0),
            (f"P(y{i}_x{j})+P(y{q})-1", ds.p_do(j, i) + ds.p_y(q) - 1.0),
            ("sum_p", dual),
        ]
        upper = [
            (f"P(y{i}_x{j})-P(x{j},y{i})", ds.p_do(j, i) - ds.p_joint(j, i)),
            (f"P(y{q})-P(x{j},y{q})", ds.p_y(q) - ds.p_joint(j, q)),
        ]
        return self._node((t,), None, q, "T2", lower, upper, ())

    def _t3(self, t, p):
        # P(y_i under x_j, joint with observed X = x_p), p != j
        ds, j, i = self.ds, t.treatment, t.outcome
        lower = [
            ("0", 0.0),
            (
                f"P(y{i}_x{j})-P(x{j},y{i})-1+P(x{j})+P(x{p})",
                ds.p_do(j, i) - ds.p_joint(j, i) - 1.0 + ds.p_x(j) + ds.p_x(p),
            ),
        ]
        upper = [
            (f"P(y{i}_x{j})-P(x{j},y{i})", ds.p_do(j, i) - ds.p_joint(j, i)),
            (f"P(x{p})", ds.p_x(p)),
        ]
        return self._node((t,), p, None, "T3", lower, upper, ())

    def _t4(self, t, p, q):
        # P(y_i under x_j, joint with observed X = x_p and Y = y_q), p != j
        ds, j, i = self.ds, t.treatment, t.outcome
        lower = [
            ("0", 0.0),
            (
                f"P(y{i}_x{j})+P(x{p},y{q})-1+P(x{j})-P(x{j},y{i})",
                ds.p_do(j, i) + ds.p_joint(p, q) - 1.0 + ds.p_x(j) - ds.p_joint(j, i),
            ),
        ]
        upper = [
            (f"P(y{i}_x{j})-P(x{j},y{i})", ds.p_do(j, i) - ds.p_joint(j, i)),
            (f"P(x{p},y{q})", ds.p_joint(p, q)),
        ]
        return self._node((t,), p, q, "T4", lower, upper, ())

    # -- multi-term forms --------------------------------------------------

    @staticmethod
    def _term_label(t):
        return f"y{t.outcome}_x{t.treatment}"

    def _t5(self, terms):
        pes = [self.ds.p_do(t.treatment, t.outcome) for t in terms]
        frechet = sum(pes) - (len(terms) - 1)
        children = []
        lower = [("0", 0.0), ("frechet", frechet)]
        upper = [(f"P({self._term_label(t)})", pe) for t, pe in zip(terms, pes)]
        dec_lo, dec_hi = self._decomp(terms, None, children)
        lower += self._loo_lower(terms, pes, pes, max(0.0, frechet, dec_lo), children)
        lower.append(("decomp", dec_lo))
        upper.append(("decomp", dec_hi))
        return self._node(terms, None, None, "T5", lower, upper, children)

    def _evidence_node(self, terms, ex, ey, theorem):
        """T6-T8: k terms jointly with observed x_p, y_q, or both."""
        pes = [self.ds.p_do(t.treatment, t.outcome) for t in terms]
        p_ev = self.ds.p_evidence(ex, ey)
        frechet = sum(pes) + p_ev - len(terms)
        children = []
        lower = [("0", 0.0), ("frechet", frechet)]
        upper = [(f"P({self._term_label(t)})", pe) for t, pe in zip(terms, pes)]
        upper.append((subquery_label((), ex, ey), p_ev))
        pair_los = []
        for t in terms:
            pair_iv, pair_tr = self.eval((t,), ex, ey)
            children.append(pair_tr)
            pair_los.append(pair_iv.lo)
            upper.append((f"pair({self._term_label(t)})", pair_iv.hi))
        best = max(0.0, frechet)
        dec_lower = []
        if ex is None:
            dec_lo, dec_hi = self._decomp(terms, ey, children)
            best = max(best, dec_lo)
            dec_lower = [("decomp", dec_lo)]
            upper.append(("decomp", dec_hi))
        lower += self._loo_lower(terms, pes, pair_los, best, children) + dec_lower
        return self._node(terms, ex, ey, theorem, lower, upper, children)

    def _decomp(self, terms, q, children):
        """Law of total probability over X, with observed outcome y_q or none.

        Each summand pins one treatment arm, and restrict_to_arm gives its
        event: a term on that arm collapses into evidence, and a summand whose
        event is impossible adds 0.
        """
        dec_lo = dec_hi = 0.0
        for p in range(1, self.ds.space.m + 1):
            arm = restrict_to_arm(terms, p, q)
            if arm is None:
                continue
            sub_iv, sub_tr = self.eval(arm[0], p, arm[1])
            children.append(sub_tr)
            dec_lo += sub_iv.lo
            dec_hi += sub_iv.hi
        return dec_lo, dec_hi

    def _loo_lower(self, terms, pes, partners, best, children):
        """Leave-one-out lower candidates lo(rest) + partner - 1 that can win.

        `partners[idx]` pairs with the terms other than terms[idx]: P(term)
        in T5, the pair interval's lo in T6-T8. Since lo(rest) <= min P over
        rest, the same sum taken with that minimum caps the candidate, and
        rest is evaluated only when the cap exceeds `best`, the largest lower
        value so far.
        """
        cands = []
        for idx, (t, partner) in enumerate(zip(terms, partners)):
            cap = min(pes[:idx] + pes[idx + 1 :])
            if cap + partner - 1.0 <= best:
                continue
            sub_iv, sub_tr = self.eval(terms[:idx] + terms[idx + 1 :], None, None)
            children.append(sub_tr)
            value = sub_iv.lo + partner - 1.0
            cands.append((f"loo({self._term_label(t)})", value))
            best = max(best, value)
        return cands


def _evidence_divisor(dataset: Dataset, ex, ey) -> float:
    """P(x_ex, y_ey), P(x_ex) or P(y_ey) as a divisor.

    The one rule for conditioning, in bound and the oracle:
    evidence below EPS_NUM raises ZeroEvidenceProbability.
    """
    divisor = dataset.p_evidence(ex, ey)
    if divisor < EPS_NUM:
        raise ZeroEvidenceProbability(subquery_label((), ex, ey), divisor)
    return divisor


# The trace of every ZERO query: its one candidate, 0, is both ends.
_ZERO_TRACE = BoundTrace(
    "P(impossible event)", "Zero", "0", "0", 0.0, 0.0, (("0", 0.0),), (("0", 0.0),), ()
)


def bound(dataset: Dataset, query: Query | str) -> BoundResult:
    """Bound a probability of causation on a dataset.

    Accepts a query object or query text. Data that fail validation raise
    Infeasible, for every query, as tight_bounds does. Zero queries give
    [0, 0]; queries that reduce to observational content give a point
    interval; everything else runs the theorem recursion. Conditional queries
    divide the joint interval by the evidence probability and raise
    ZeroEvidenceProbability when that probability is below EPS_NUM.
    """
    if isinstance(query, str):
        query = parse_query(query, dataset.space)
    else:
        validate_indices(query, dataset.space)
    cq = canonicalize(query)
    dataset.check_consistent()

    if len(cq.terms) > MAX_TERMS:
        raise UnsupportedQuery(
            f"{len(cq.terms)} counterfactual terms exceed the limit of {MAX_TERMS}; "
            "unpruned, the recursion grows like 2^(k+2)"
        )
    if cq.kind == ZERO:
        interval, trace, evaluated = Interval(0.0, 0.0), _ZERO_TRACE, 1
    else:
        evaluator = _Evaluator(dataset)
        interval, trace = evaluator.eval(cq.terms, cq.evidence_x, cq.evidence_y)
        evaluated = len(evaluator.memo)
    if cq.conditional:
        interval = interval.scaled_by(_evidence_divisor(dataset, cq.divisor_x, cq.divisor_y))
    return BoundResult(interval, trace, evaluated)
