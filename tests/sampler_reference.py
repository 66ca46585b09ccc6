"""The scalar-draw simulation sampler, kept as a test reference.

simgen._draw_attempt takes each attempt's thirteen uniforms by bare
random() calls, the eight cuts first. The functions below draw them one
uniform() call at a time; the batched draw must give the same masses and
the same tables, reject the draws that fail all twelve inequalities of the
consistency envelope checked in floats, and leave the generator in the
same state.
"""

from __future__ import annotations


def _draw_fractions(rng):
    """Nine response-type masses from eight sorted uniforms."""
    edges = [0.0, *sorted(rng.uniform(0.0, 1.0) for _ in range(8)), 1.0]
    return [b - a for a, b in zip(edges, edges[1:])]


def _experimental_from_fractions(f) -> list[list[float]]:
    # f[3*a + b] is the mass of the response type mapping x1 -> y_{a+1},
    # x2 -> y_{b+1}; marginalizing gives the two do-rows.
    do_x1 = [f[0] + f[1] + f[2], f[3] + f[4] + f[5], f[6] + f[7] + f[8]]
    do_x2 = [f[0] + f[3] + f[6], f[1] + f[4] + f[7], f[2] + f[5] + f[8]]
    return [do_x1, do_x2]


def _observational_cells(rng, exp: list[list[float]]) -> list[list[float]]:
    """The six observational cells of one draw, with no consistency check."""
    p_y1_x1, p_y2_x1 = exp[0][0], exp[0][1]
    p_x1y1 = rng.uniform(0.0, p_y1_x1)
    p_x1y2 = rng.uniform(0.0, p_y2_x1)
    lo = p_x1y1 + p_x1y2
    hi = min(p_x1y1 + 1.0 - p_y1_x1, p_x1y2 + 1.0 - p_y2_x1)
    # lo <= hi always: their difference is bounded by P(y1|do(x1)) +
    # P(y2|do(x1)) - 1 <= 0, so this draw cannot fail.
    p_x1 = rng.uniform(lo, hi)
    p_x1y3 = p_x1 - p_x1y1 - p_x1y2
    p_x2 = 1.0 - p_x1
    p_x2y1 = rng.uniform(0.0, min(exp[1][0], p_x2))
    p_x2y2 = rng.uniform(0.0, min(exp[1][1], p_x2 - p_x2y1))
    p_x2y3 = p_x2 - p_x2y1 - p_x2y2
    return [[p_x1y1, p_x1y2, p_x1y3], [p_x2y1, p_x2y2, p_x2y3]]


def _draw_observational(rng, exp: list[list[float]]) -> list[list[float]] | None:
    """The six cells, or None unless all twelve envelope inequalities hold."""
    obs = _observational_cells(rng, exp)
    for j in range(2):
        p_xj = sum(obs[j])
        for i in range(3):
            if not (obs[j][i] <= exp[j][i] <= obs[j][i] + 1.0 - p_xj):
                return None
    return obs


def common_scale_sample(rng):
    """generate_sample with every cell over the two tables' largest denominator.

    The simulation writes the do-rows over 2**53 and the observational table
    over its own largest denominator instead; the rationals, and so the
    exact accessors and the report, must be the same.
    """
    from pocbounds.model import dataset_from_counts
    from pocbounds.simgen import _draw_attempt

    while True:
        f, exp, obs = _draw_attempt(rng)
        if obs is None:
            continue
        ratios = [max(0.0, v).as_integer_ratio() for row in exp + obs for v in row]
        scale = max(d for _, d in ratios)
        c = [p * (scale // d) for p, d in ratios]
        dataset = dataset_from_counts([c[0:3], c[3:6]], [c[6:9], c[9:12]])
        if dataset.validation.ok:
            return f, dataset
