"""Pure-Python campaign kernel: the reference float-mode sampler.

The compiled kernel in _ckernel.c evaluates the same expressions, in the
same operand order, over batches of samples.  Both must produce
bit-identical results, so any change to an arithmetic expression here has to
be mirrored there; the extension is compiled with FMA contraction disabled
for the same reason.  This module stays self-contained (no package imports)
so the two files can be compared side by side.
"""

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53

# equational-constraint codes
EQ_NONE, EQ_H1, EQ_H5 = 0, 1, 2
# conclusion codes
IRRELEVANT, NO_CONFOUNDING = 0, 1


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget):
    """Evaluate samples [start, start+count) of one constrained campaign.

    rep[j] is the slot whose drawn value slot j takes (identity when
    unconstrained); eq and conclusion use this module's integer codes.
    Returns (max_violation, failures, exhausted), where failures counts
    samples with violation > tol and exhausted counts samples whose
    equational solve never landed in [0, 1] within the redraw budget.
    Raises ValueError unless rep is 7 slot indices in 0..6.
    """
    if len(rep) != 7 or not all(0 <= r <= 6 for r in rep):
        raise ValueError("rep must be 7 slot indices in 0..6")
    rep1, rep2, rep3, rep4, rep5, rep6 = rep[1], rep[2], rep[3], rep[4], rep[5], rep[6]
    draw_slots = (0, 1, 3, 4, 5, 6) if model == 3 else (0, 1, 2, 3, 4, 5, 6)
    q = [0.0] * 7
    max_violation = 0.0
    failures = 0
    exhausted = 0
    for i in range(start, start + count):
        state = _mix((seed + (i + 1) * _GOLDEN) & _MASK64)
        accepted = False
        for _ in range(budget + 1):
            for j in draw_slots:
                state = (state + _GOLDEN) & _MASK64
                z = _mix(state)
                q[j] = 0.01 + ((z >> 11) * _DOUBLE_SCALE) * 0.98
            v0 = q[0]
            v1 = q[rep1]
            v2 = q[rep2]
            v3 = q[rep3]
            v4 = q[rep4]
            v5 = q[rep5]
            v6 = q[rep6]
            if eq == EQ_H1:
                if model == 1:
                    e0 = v1 * (1.0 - v0)
                    e1 = v2 * v0
                    n0 = (1.0 - v1) * (1.0 - v0)
                    n1 = (1.0 - v2) * v0
                    obs = (v3 * n0 + v4 * n1) / (n0 + n1)
                    v6 = (obs * (e0 + e1) - v5 * e0) / e1
                elif model == 2:
                    obs = v3 * (1.0 - v1) + v4 * v1
                    v6 = (obs - v5 * (1.0 - v2)) / v2
                else:
                    obs = v3 * (1.0 - v1) + v4 * v1
                    v6 = (obs - v5 * (1.0 - v1)) / v1
                if 0.0 <= v6 <= 1.0:
                    accepted = True
                    break
            elif eq == EQ_H5:
                if model == 1:
                    v5 = (v6 * v2 + v4 * (1.0 - v2) - v3 * (1.0 - v1)) / v1
                elif model == 2:
                    target = (v6 * v2 * v0 + v4 * v1 * (1.0 - v0)) / (
                        v2 * v0 + v1 * (1.0 - v0)
                    )
                    mass0 = (1.0 - v2) * v0 + (1.0 - v1) * (1.0 - v0)
                    v5 = (target * mass0 - v3 * (1.0 - v1) * (1.0 - v0)) / (
                        (1.0 - v2) * v0
                    )
                else:
                    v5 = v6 + (v4 - v3) * (1.0 - v0) / v0
                if 0.0 <= v5 <= 1.0:
                    accepted = True
                    break
            else:
                accepted = True
                break
        if not accepted:
            exhausted += 1
            continue
        if model == 1:
            tb = 1.0 - v0
            p0 = tb * v1 * (1.0 - v5)
            p1 = tb * v1 * v5
            p2 = v0 * v2 * (1.0 - v6)
            p3 = v0 * v2 * v6
            p4 = tb * (1.0 - v1) * (1.0 - v3)
            p5 = tb * (1.0 - v1) * v3
            p6 = v0 * (1.0 - v2) * (1.0 - v4)
            p7 = v0 * (1.0 - v2) * v4
        elif model == 2:
            ab = 1.0 - v0
            p0 = v0 * (1.0 - v2) * (1.0 - v5)
            p1 = v0 * (1.0 - v2) * v5
            p2 = v0 * v2 * (1.0 - v6)
            p3 = v0 * v2 * v6
            p4 = ab * (1.0 - v1) * (1.0 - v3)
            p5 = ab * (1.0 - v1) * v3
            p6 = ab * v1 * (1.0 - v4)
            p7 = ab * v1 * v4
        else:
            ab = 1.0 - v0
            tb = 1.0 - v1
            p0 = v0 * tb * (1.0 - v5)
            p1 = v0 * tb * v5
            p2 = v0 * v1 * (1.0 - v6)
            p3 = v0 * v1 * v6
            p4 = ab * tb * (1.0 - v3)
            p5 = ab * tb * v3
            p6 = ab * v1 * (1.0 - v4)
            p7 = ab * v1 * v4
        pe = p0 + p1 + p2 + p3
        pu = p4 + p5 + p6 + p7
        obs = (p5 + p7) / pu
        if conclusion == NO_CONFOUNDING:
            violation = (p1 + p3) / pe - obs
        else:
            violation = (
                (p5 / (p4 + p5)) * ((p0 + p1) / pe)
                + (p7 / (p6 + p7)) * ((p2 + p3) / pe)
                - obs
            )
        if violation < 0.0:
            violation = -violation
        if violation > tol:
            failures += 1
        if violation > max_violation:
            max_violation = violation
    return max_violation, failures, exhausted
