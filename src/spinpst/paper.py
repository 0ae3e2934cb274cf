"""Published values of the source paper, shared by ``reproduce`` and the tests.

Table 1a: N=10 homogeneous dipolar chain, n_s = n_r = 3, k = 2, keyed by
n_er, as (tau0, lambda_min); ``PAPER_ROOTS`` lists all three |lambda| roots
at each tau0.  Table 2: homogeneous chains with n_er = 5, keyed by N, and
the N=42 chain with the couplings of its two end bonds on each side set by
``N42_OVERRIDES`` (1-based bond i joins sites i and i + 1).
``TABLE_2_WINDOWS`` is the upper end of each scan window, which starts at
tau = 0.  A reproduction matches when its registration time is within
``TAU0_TOL`` of the published one and each |lambda| within ``LAMBDA_TOL``,
half a unit in the last published digit.
"""

TAU0_TOL = 1e-9
LAMBDA_TOL = 5e-4

PAPER_TABLE_1A = {4: (12.493, 0.435), 5: (14.391, 0.597), 6: (14.132, 0.714)}
PAPER_ROOTS = {
    4: (0.435, 0.660, 0.828),
    5: (0.597, 0.794, 0.866),
    6: (0.714, 0.888, 0.931),
}
PAPER_TABLE_2 = {20: (26.506, 0.265), 30: (37.393, 0.136), 40: (52.846, 0.079)}
PAPER_TABLE_2_N42 = (57.267, 0.467)
N42_OVERRIDES = {1: 0.3005, 2: 0.5311, 40: 0.5311, 41: 0.3005}
TABLE_2_WINDOWS = {20: 30.0, 30: 45.0, 40: 60.0, 42: 65.0}
