"""Beyond qutrits: the same construction at d = 5, with d = 7, 11 and 13 spot checks.

With d settings on d-level systems the operator has d**(N-1) terms and the
same exact eigenvalue law. The per-site uniform factors generalize A, B, C;
for d = 5 the largest is about 4.6898. At N = 2 every factor row obeys
Parseval's identity, which proves the all-ones point classically optimal
at every d without scanning an assignment.
"""

from qudit_mermin import (
    GeneralConfig,
    build_general_mermin,
    conjecture_search,
    expand_general_identity,
    general_uniform_value,
    uniform_factors,
    verify_general_eigenvalue,
)

# ---- eigenvalues and term counts ---------------------------------------------

print("Eigenvalues d**(N-1), verified exactly:")
for d, n in ((3, 4), (5, 2), (5, 3), (7, 2), (11, 3), (13, 3)):
    cfg = GeneralConfig(d, n)
    value = verify_general_eigenvalue(cfg)
    terms = build_general_mermin(cfg).term_count
    print(f"  d={d}, N={n}: eigenvalue {value}, {terms} terms")

# ---- the identity survival rule -------------------------------------------------

report = expand_general_identity(GeneralConfig(5, 2))
print(
    f"\nProduct-form identity at d=5, N=2: {report.n_surviving} of "
    f"{report.n_words} words survive, match={report.matches}"
)

# ---- uniform factors -------------------------------------------------------------

for d in (3, 5, 7, 11, 13):
    factors = uniform_factors(d)
    mags = ", ".join(f"{m:.4f}" for m in factors.magnitudes())
    total = sum(m * m for m in factors.magnitudes())
    print(f"\nd={d} uniform factors: {mags}")
    print(f"  largest {factors.largest:.5g}; squared magnitudes sum to {total:.6g}")

print("\nUniform classical value at d=5:")
for n in (2, 3, 4):
    print(f"  N={n}: {general_uniform_value(5, n):.6g}  (quantum {5 ** (n - 1)})")

# ---- is the all-ones point optimal at N = 2? ---------------------------------------

print("\nClassical maximum over all d**(2(d-1)) ratio assignments at N=2, in closed form:")
for d in (5, 7, 11, 13):
    report = conjecture_search(d, 2)
    verdict = (
        "attains the maximum"
        if report.uniform_is_max
        else f"misses the maximum by {report.gap:.6g}"
    )
    print(
        f"  d={d}: max |v| = {report.max_magnitude:.6g} "
        f"({report.num_maximizers} maximizers of {report.assignments_scanned}); "
        f"the all-ones point {verdict}."
    )
