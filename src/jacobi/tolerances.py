"""Every threshold the package judges against, in one table.

Each verdict reads an exact statement through one of these numbers:
admissibility is det(Sch - (tr Sch / n) Id) != 0, the normalized
curvatures satisfy prod |k_i - kbar| = 1, equivalence is equality of the
reduced invariants (Sigma, K) up to sign conjugation, and flat curves have
a vanishing Schwarzian.  The first comment line above each entry says what
it gates and how it scales: scale-free (a ratio, or a bound on an
invariant), relative to the size named, or absolute (a rescaled parameter
t = a u or a conformal symplectic map can change the verdict).  The CLI's
--tol-* defaults are entries of this table.
"""

# -- the screen (geom) --------------------------------------------------------

# |det(Sch - (tr/n) Id)| at a node, below it NotAdmissible; absolute
ADM_TOL = 1e-10
# smallest eigen-gap of the spectrum over its diameter; scale-free
EIG_GAP_TOL = 1e-7
# normalization defect |prod |k_i - kbar| - 1| of the curvatures; scale-free
NORM_TOL = 1e-5
# asymmetry of S' Sch over max(1, max|S' Sch|); relative
RICCI_SYM_TOL = 1e-6

# -- the frame and the reduced invariant (frames) ----------------------------

# |cos| of consecutive eigenvectors, below it EigenCrossing; scale-free
MIN_OVERLAP = 0.2
# |Sigma_ij| that fixes a sign of the canonical Sigma; absolute on Sigma
SIGN_TOL = 1e-6
# largest deviation of k and of Sigma for equivalence; absolute
EQUIV_TOL = 1e-4
# slack of the ends of the compared arclength overlap; absolute
OVERLAP_SLACK = 1e-12

# -- symplectic linear algebra (symspace) ------------------------------------

# condition number above which a matrix counts as singular; scale-free
COND_MAX = 1e12
# a norm bound on a condition number at most COND_MAX / CERT_MARGIN passes
# the COND_MAX gate without a spectrum or SVD; the margin covers the
# roundoff of the bound and of the rule it stands in for, so it decides
# which rule runs, never a verdict.  Scale-free
CERT_MARGIN = 4.0
# asymmetry of a `cycle --points` matrix over max(1, max|S|); relative
SYM_TOL = 1e-10
# max|F^T J F - J| of a frame, absolute; over max|g|^2 for a transform g
FRAME_TOL = 1e-8
# |s| of g^T J g = s J over max|g|^2, below it s = 0; scale-free
CSP_SCALE_MIN = 1e-12

# -- curves and their nodes (matcurve, cli) ----------------------------------

# asymmetry of an evaluator's jet over max(1, max|S|); relative
JET_SYM_TOL = 1e-8
# defect of node spacing, and of a query snapped to a node, over max(1, h)
NODE_TOL = 1e-9
# slack of --t0/--t1 when a window is snapped to table nodes; absolute
WINDOW_SLACK = 1e-12

# -- reconstruction (reconstruct) --------------------------------------------

# frame symplecticity residual over max(1, max|F|^2); relative
RESID_MAX = 1e-6
# k, Sigma (absolute) and frame (relative) deviation of a round trip
ROUNDTRIP_TOL = 1e-3
# Cayley step radius |Omega^2|_inf^(1/2), above it StepTooCoarse; absolute.
# It bounds Omega's spectral radius (equal if Sigma = 0); at 1, cay(Omega)
# is within 2% of exp, and an eigenvalue 2 is singular
STEP_MAX = 1.0
# max|Sigma + Sigma^T| of a prescription, above it a warning; absolute
SKEW_TOL = 1e-10

# -- flat curves and cycles (cycles) -----------------------------------------

# sup |Schwarzian| of a flat curve; absolute
FLAT_TOL = 1e-8
# Moebius fit residuals, of S from lambda D and of lambda from the map, over
# max(1, max|S|); relative
FIT_TOL = 1e-8
# cycle membership residual over max(1, scale of the line); relative
MEMBER_TOL = 1e-8
# a direction below it is zero; absolute
ZERO_FLOOR = 1e-300

# -- the CLI ------------------------------------------------------------------

# --strict multiplies every --tol-* value by this
STRICT_FACTOR = 0.1
