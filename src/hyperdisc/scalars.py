"""The tolerance table, one named constant per float verdict.

Every float verdict reads its tolerance from the table below, and no other
module holds a tolerance literal (tests/test_hygiene.py checks both).
Change a value only together with a failing case that shows why: a verdict
that fails on correct input is a fault to find, not a tolerance to loosen.
"""

# "rel" means the tolerance is scaled by max(1, the magnitudes the verdict
# compares).
ROOT_RESIDUAL_TOL = 1e-9  # real_roots: companion r kept if |p(r)| <= tol max|c| max(1, |r|)^deg
ROOT_IMAG_TOL = 1e-7  # real_roots: companion roots tried only if every |Im r| <= tol, rel
BISECT_WIDTH_TOL = 1e-6  # _refine_root: bisection stops at bracket width <= tol, rel
BRACKET_SLACK_TOL = 1e-9  # _refine_root: the Newton root may leave its bracket by tol
CERTIFY_SLACK_TOL = 1e-9  # kadison_singer_search: certified <= bound + tol, rel, passes
ISOTROPY_TOL = 1e-9  # effective_resistance_family: the vectors sum to vec(I) within tol
CHAIN_STEP_TOL = 1e-8  # barrier chain: a step passes if quantity <= bound + tol
VARIANCE_MIX_TOL = 1e-6  # barrier chain: the variance mix norm may exceed 1 by tol
SQRT2_STEP_TOL = 0.0  # barrier chain: Phi^i <= sqrt(2) is checked with no slack

