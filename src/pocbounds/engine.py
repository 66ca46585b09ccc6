"""Bound computation for probabilities of causation.

The paper's eight theorems bound one counterfactual term jointly with an
observed outcome (T1, T2), an observed treatment (T3) or both (T4), and a
conjunction of terms jointly with no evidence (T5), an observed treatment
(T6), outcome (T7) or both (T8). The evaluator has one body per formula:
one for T1-T4, which differ only in where the evidence meets the term's
own arm, and one for T5-T8. A term with no evidence, or observed evidence
alone, is an exact point leaf. Every node is a max over lower-bound
candidates against a min over upper-bound candidates; the conjunction
consumes the final clamped bounds of its subqueries, each evaluated once
per call and cached on its canonical key, so `stats_evaluated` is the
number of distinct subqueries.

Every candidate is a sum of table cells with integer coefficients, so the
evaluator computes each one exactly, as a numerator over the dataset's
common denominator den: cells and marginals are read from Dataset.do,
joint, px and py, the constant 1 is den, and a node's interval is a pair of
ints clamped to [0, den]. bound rounds each end once, dividing it by
queryir.divisor: den, or the evidence numerator for a conditional query;
int / int true division rounds correctly. Every candidate is a valid
bound, and consistent data admit a model, so no node's lower end exceeds
its upper end.

Traces are built on request. bound's default, trace=True, gives a
BoundTrace per node; with trace=False each body computes the same integer
candidates and builds no label, BoundTrace or children, so the interval and
stats_evaluated are the same and the result's trace is None. The program's
callers that read only the interval (run_simulation, `reproduce`, `bound`
without --trace) ask for none. A trace records every lower candidate's
value before clamping, as its numerator over den (lower-bound branches go
negative routinely), which branches won, and the child subquery traces.
The candidate values live on the BoundTrace records only: to_json, and so
`bound --trace`, prints the winning branches and the clamped ends as
probabilities. Conditional queries trace the joint event; the result
interval is the joint interval divided by the evidence probability.

T1-T4 are tight. Take the term y_i_x_j with evidence e, P(y_q), P(x_p) or
P(x_p, y_q), p != j, and write D = P(y_i_x_j) - P(x_j, y_i) >= 0. Split e
on X = x_j: e_j = P(x_j, y_q) when only y_q is observed, else 0, and
e_out = e - e_j. Inside arm x_j the event is observed: it has mass
a = e_j if q = i (T1), else 0. Outside it is Frechet, so the body gives
[a + max(0, D + e_out - 1 + P(x_j)), a + min(D, e_out)]. In
oracle._closed_form with one term, the arms A the event meets are x_p, or
every arm when only y_q is observed, less x_j when q != i (T2). Each arm
c != j of A has cap_c = P(x_c, y_q) or P(x_c), summing to e_out, and
theta_c = P(x_c) - cap_c >= 0. Arm x_j is in A only in T1, with
cap_j = e_j = a and theta_j = -a. The max is min(sum_A cap_c, D + cap_j)
if x_j is in A, else min(sum_A cap_c, D): a + min(e_out, D) either way.
For the min, only theta_j can be negative, so the cost constants sum to
a, and arm c != j frees min(theta_c, P(x_c)) = theta_c in A and P(x_c)
outside it, so the one-term cut gives F* = min(D, 1 - P(x_j) - e_out) and
the min is a + D - F* = a + max(0, D + e_out - 1 + P(x_j)). Both ends lie
in [0, a + e_out] and a + e_out <= e <= 1, so the clamp keeps them, and
bound and tight_bounds divide the same ints by queryir.divisor: the
intervals are equal bit for bit, conditional queries included.

Pair dominance. A conjunction's upper candidates are each term's pair
(t, evidence), the node of t alone with the same evidence, and decomp.
No canonical term shares the evidence treatment, so the pair is T1-T4,
and its hi is at most a + D <= P(t) and at most a + e_out <= e, since
a <= P(x_j, y_i) and a <= e_j. The clamp to [0, den] is monotone and
keeps P(t) and P(evidence), so neither, as a candidate beside pair(t),
could be a strict minimum, and T6-T8 leave them out. With no evidence
(T5) the pair is the term itself: its candidate is P(t) and no node is
evaluated.

Leave-one-out pruning. For each term t of a k-term node, T5-T8 could also
bound the event through the (k-1)-term plain subquery `rest` that leaves t
out: lo(rest) + lo(pair(t)) - 1 from below and hi(rest) from above.
Evaluating every `rest` makes the recursion grow like 2^(k+2). The engine
drops the upper form and evaluates the lower one only where it can win,
and neither step changes an interval:

* Upper. hi(rest) is never strictly below the node's own upper
  candidates. rest has no evidence, so hi(rest) is some P(t') or the
  decomp sum of rest. P(t') is a T5 candidate, and in T6-T8 it is at least
  pair(t') by pair dominance. The decomp sum's summands are arm intervals
  clamped to >= 0, so the sum is at least each summand. In T6 and T8 take
  the evidence arm (rest, x_p): its hi is the T3 node (t', x_p) or a min
  over such pairs. In T6 each is a pair of the node; in T8 each dominates
  the node's T4 pair (t', x_p, y_q), since P(x_p) >= P(x_p, y_q). In T5
  and T7 compare the two decomp sums arm by arm: each arm of rest has
  fewer terms or less evidence than the node's arm, or the node skips that
  arm, and hi only shrinks as terms or evidence are added.
* Lower. lo(rest) <= hi(rest) <= min of P(t') over rest, since each P(t')
  is an upper candidate of rest, so the cap min(P(t')) + lo(pair(t)) - 1 is
  at least the candidate. The pair and decomp children are evaluated first;
  `rest` is evaluated only when its cap exceeds the best lower value found
  so far, so a skipped candidate could at most have tied it.

Skipped subqueries leave no trace and do not count in `stats_evaluated`.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import Dataset, Interval
from .queryir import (
    ZERO,
    Query,
    UnsupportedQuery,
    canonicalize,
    divisor,
    parse_query,
    restrict_to_arm,
    subquery_label,
    validate_indices,
)

# Without leave-one-out pruning the distinct subqueries of a k-term query grow
# like 2^(k+2); with it an 8-term query on an 8x4 table visits 65. The limit
# guards the unpruned worst case.
MAX_TERMS = 8


class BoundTrace(NamedTuple):
    """One derivation node: which theorem ran and which branches won.

    lower_candidates keeps the raw lower-bound values before clamping,
    negative ones included, as exact numerators over the dataset's den; lo
    and hi are the clamped ends divided by den. to_json leaves the
    candidates out: it gives the winning branches, the ends and the children.
    """

    query: str
    theorem: str  # T1..T8, Exact, Zero
    lower_branch: str
    upper_branch: str
    lo: float
    hi: float
    lower_candidates: tuple[tuple[str, int], ...]
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
    """The interval, its derivation trace (None unless bound was asked for
    one) and the number of distinct subqueries evaluated."""

    interval: Interval
    trace: BoundTrace | None
    stats_evaluated: int


class _Evaluator:
    """Joint-event recursion over (terms, evidence_x, evidence_y) keys.

    Each body computes its integer candidates once. Labels, BoundTrace
    records and children are built only when `trace` is true; otherwise
    every node's trace is None.
    """

    def __init__(self, dataset: Dataset, trace: bool):
        self.ds = dataset
        self.trace = trace
        self.memo: dict = {}

    def eval(self, terms, ex, ey) -> tuple[tuple[int, int], BoundTrace | None]:
        key = (terms, ex, ey)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._dispatch(terms, ex, ey)
        return hit

    def _dispatch(self, terms, ex, ey):
        if len(terms) > 1:
            return self._conjunction(terms, ex, ey)
        if terms and (ex is not None or ey is not None):
            return self._single(terms[0], ex, ey)
        return self._point(terms, ex, ey)

    def _ends(self, lo, hi):
        """lo and hi, each clamped to [0, den]."""
        den = self.ds.den
        return min(den, max(0, lo)), min(den, max(0, hi))

    def _node(self, query, theorem, lower, lo_labels, upper, hi_labels, children):
        """The _ends of max(lower) and min(upper), with their trace; the labels
        name `lower` and `upper` in order.

        The winning branch is the first candidate with the winning value.
        """
        lo_raw, hi_raw = max(lower), min(upper)
        lo, hi = self._ends(lo_raw, hi_raw)
        den = self.ds.den
        trace = BoundTrace(
            query=query,
            theorem=theorem,
            lower_branch=lo_labels[lower.index(lo_raw)],
            upper_branch=hi_labels[upper.index(hi_raw)],
            lo=lo / den,
            hi=hi / den,
            lower_candidates=tuple(zip(lo_labels, lower)),
            children=tuple(children),
        )
        return (lo, hi), trace

    # -- single-term forms ------------------------------------------------

    def _point(self, terms, ex, ey):
        # A bare term is its experimental cell, evidence alone its observed one.
        if terms:
            value = self.ds.do[terms[0].treatment - 1][terms[0].outcome - 1]
        else:
            value = self.ds.evidence(ex, ey)
        if not self.trace:
            return self._ends(value, value), None
        label = subquery_label(terms, ex, ey)
        return self._node(label, "Exact", [value], [label], [value], [label], ())

    def _single(self, t, ex, ey):
        """T1-T4: term y_i_x_j jointly with observed y_q (T1 if q = i, else
        T2), x_p (T3) or both (T4), p != j.

        The event has mass a inside arm x_j and meets the evidence e_out
        outside it by Frechet: a + [max(0, D + e_out - 1 + P(x_j)),
        min(D, e_out)], with D = P(y_i_x_j) - P(x_j, y_i). The module
        docstring proves this tight.
        """
        ds, j, i = self.ds, t.treatment, t.outcome
        d = ds.do[j - 1][i - 1] - ds.joint[j - 1][i - 1]
        e_out, a = ds.evidence(ex, ey), 0
        if ex is None:
            # Only y_q is observed, and P(x_j, y_q) of it lies in arm x_j.
            e_j = ds.joint[j - 1][ey - 1]
            e_out -= e_j
            if ey == i:
                # The event holds on all of e_j = P(x_j, y_i), so a + D = P(y_i_x_j).
                a = e_j
        lower = [a, a + d + e_out - ds.den + ds.px[j - 1]]
        upper = [a + d, a + e_out]
        if not self.trace:
            return self._ends(max(lower), min(upper)), None
        out, a_label, d_label = subquery_label((), ex, ey), "0", f"P(y{i}_x{j})-P(x{j}, y{i})"
        if ex is not None:
            theorem = "T3" if ey is None else "T4"
        elif ey == i:
            theorem, a_label, d_label = "T1", f"P(x{j}, y{i})", f"P(y{i}_x{j})"
        else:
            theorem, out = "T2", f"{out}-P(x{j}, y{ey})"
        lo_labels = [a_label, f"P(y{i}_x{j})+{out}-1+P(x{j})-P(x{j}, y{i})"]
        query = subquery_label((t,), ex, ey)
        return self._node(query, theorem, lower, lo_labels, upper, [d_label, out], ())

    # -- multi-term forms --------------------------------------------------

    @staticmethod
    def _term_label(t):
        return f"y{t.outcome}_x{t.treatment}"

    def _conjunction(self, terms, ex, ey):
        """T5-T8: k terms, jointly with no evidence, observed x_p, y_q, or both."""
        ds, trace = self.ds, self.trace
        pes = [ds.do[t.treatment - 1][t.outcome - 1] for t in terms]
        children = [] if trace else None
        if ex is None and ey is None:
            # Each term's pair is the term itself: no node to evaluate. upper
            # is a copy, since it gains the decomp candidate.
            theorem, p_ev, partners, upper = "T5", ds.den, pes, list(pes)
        else:
            theorem = "T6" if ey is None else "T7" if ex is None else "T8"
            p_ev, partners, upper = ds.evidence(ex, ey), [], []
            for t in terms:
                (pair_lo, pair_hi), pair_tr = self.eval((t,), ex, ey)
                if trace:
                    children.append(pair_tr)
                partners.append(pair_lo)
                upper.append(pair_hi)
        frechet = sum(pes) + p_ev - len(terms) * ds.den
        lower = [0, frechet]
        best = max(0, frechet)
        dec = ()
        if ex is None:
            dec_lo, dec_hi = self._decomp(terms, ey, children)
            best = max(best, dec_lo)
            upper.append(dec_hi)
            dec = (dec_lo,)
        loo = self._loo_lower(terms, pes, partners, best, children)
        lower += [value for _, value in loo]
        lower += dec
        if not trace:
            return self._ends(max(lower), min(upper)), None
        labels = [self._term_label(t) for t in terms]
        if theorem == "T5":
            hi_labels = [f"P({label})" for label in labels]
        else:
            hi_labels = [f"pair({label})" for label in labels]
        lo_labels = ["0", "frechet"] + [f"loo({labels[idx]})" for idx, _ in loo]
        if dec:
            hi_labels.append("decomp")
            lo_labels.append("decomp")
        query = subquery_label(terms, ex, ey)
        return self._node(query, theorem, lower, lo_labels, upper, hi_labels, children)

    def _decomp(self, terms, q, children):
        """Law of total probability over X, with observed outcome y_q or none.

        Each summand pins one treatment arm, and restrict_to_arm gives its
        event: a term on that arm collapses into evidence, and a summand whose
        event is impossible adds 0. When tracing, child traces go to
        `children`.
        """
        dec_lo = dec_hi = 0
        for p in range(1, self.ds.space.m + 1):
            arm = restrict_to_arm(terms, p, q)
            if arm is None:
                continue
            (sub_lo, sub_hi), sub_tr = self.eval(arm[0], p, arm[1])
            if self.trace:
                children.append(sub_tr)
            dec_lo += sub_lo
            dec_hi += sub_hi
        return dec_lo, dec_hi

    def _loo_lower(self, terms, pes, partners, best, children):
        """Leave-one-out lower candidates lo(rest) + partner - 1 that can win,
        as (index of the term left out, value) pairs.

        `partners[idx]` pairs with the terms other than terms[idx]: the lo of
        its pair node, which is P(term) in T5. Since lo(rest) <= min P over
        rest, the same sum taken with that minimum caps the candidate, and
        rest is evaluated only when the cap exceeds `best`, the largest lower
        value so far. When tracing, child traces go to `children`.
        """
        den = self.ds.den
        cands = []
        for idx, partner in enumerate(partners):
            cap = min(pes[:idx] + pes[idx + 1 :])
            if cap + partner - den <= best:
                continue
            (sub_lo, _), sub_tr = self.eval(terms[:idx] + terms[idx + 1 :], None, None)
            if self.trace:
                children.append(sub_tr)
            value = sub_lo + partner - den
            cands.append((idx, value))
            best = max(best, value)
        return cands


# The trace of every ZERO query: its one candidate, 0, is both ends.
_ZERO_TRACE = BoundTrace("P(impossible event)", "Zero", "0", "0", 0.0, 0.0, (("0", 0),), ())


def bound(dataset: Dataset, query: Query | str, *, trace: bool = True) -> BoundResult:
    """Bound a probability of causation on a dataset.

    Accepts a query object or query text. Data that fail validation raise
    Infeasible, for every query, as tight_bounds does. Zero queries give
    [0, 0]; queries that reduce to observational content give a point
    interval; everything else runs the theorem recursion. Conditional queries
    divide the joint interval by the evidence probability, and
    queryir.divisor raises ZeroEvidenceProbability when that probability is
    below EPS_NUM.

    With trace=False no derivation is built and the result's trace is None;
    the interval and stats_evaluated are the same as with the trace.
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
    divide_by = divisor(dataset, cq)
    if cq.kind == ZERO:
        return BoundResult(Interval(0.0, 0.0), _ZERO_TRACE if trace else None, 1)
    evaluator = _Evaluator(dataset, trace)
    (lo, hi), root = evaluator.eval(cq.terms, cq.evidence_x, cq.evidence_y)
    return BoundResult(Interval(lo / divide_by, hi / divide_by), root, len(evaluator.memo))
