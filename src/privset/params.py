"""Structural parameters and cost formulas for the retrieval schemes.

All quantities are exact: integers or Fractions.  The stage profile of the
query-table scheme is produced by a backward recursion anchored at the top
round; the per-database cost ledger (D1, U1, U2, D2) and the closed-form
download/randomness costs of the linear scheme are derived from it.

Identities that must hold exactly (and are re-checked by tests across the
whole parameter grid):

    D1 = N*U1 + (N-1)*D2                 rate identity, gives R = 1 - 1/N
    U1 + D2 = (D1 - U1)/(N-1)            randomness identity
    (N-1)*alpha_j = sum_p C(P,p)*alpha_{j+p}   for j <= K-P   side-info balance

``alpha_profile``, ``repetition_factor`` and ``cost_ledger`` are pure and cached:
each argument tuple is computed, and its identities checked, once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, gcd, isqrt, lcm


class ParamError(ValueError):
    """Raised for parameter combinations outside a scheme's domain."""


class InfeasibleError(ParamError):
    """Raised when no achievable scheme exists (e.g. a single database)."""


# A symbol travels as one byte, so the field modulus is a prime no larger than 256.
_MODULI = frozenset(q for q in range(2, 257) if all(q % d for d in range(2, isqrt(q) + 1)))


def check_modulus(q: int) -> None:
    """Raise ParamError unless F_q is a field whose symbols fit in a wire byte."""
    if type(q) is not int or q not in _MODULI:
        raise ParamError(f"q must be a prime <= 256 (one byte per symbol on the wire), got {q!r}")


@dataclass(frozen=True)
class SchemeParams:
    """Shared parameter bundle: K messages, P desired, N databases, length L, field q."""

    K: int
    P: int
    N: int
    L: int = 1
    q: int = 2

    def __post_init__(self):
        if self.K < 1:
            raise ParamError("K must be >= 1")
        if not 1 <= self.P <= self.K:
            raise ParamError("P must satisfy 1 <= P <= K")
        if self.N < 1:
            raise ParamError("N must be >= 1")
        if self.L < 1:
            raise ParamError("L must be >= 1")
        check_modulus(self.q)

    def check_desired(self, desired) -> tuple[int, ...]:
        """``desired`` in ascending order, once it is checked to be P distinct messages in [0, K)."""
        out = tuple(sorted(desired))
        if len(out) != self.P or len(set(out)) != self.P or any(not 0 <= m < self.K for m in out):
            raise ParamError(f"desired must be P={self.P} distinct messages in [0, {self.K})")
        return out


@dataclass(frozen=True)
class AlphaProfile:
    """Stage counts per round, integerized.

    ``alpha[j-1] / scale`` is the exact rational stage count of round j.
    ``scale`` is 1 whenever the recursion lands on integers (it does for all
    the worked examples; a few grid points with N >= 4 need scaling).
    """

    K: int
    P: int
    N: int
    alpha: tuple[int, ...]
    scale: int

    def rational(self, j: int) -> Fraction:
        """Exact stage count of round j (1-based)."""
        return Fraction(self.alpha[j - 1], self.scale)

    def rationals(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.scale) for a in self.alpha)


@cache
def alpha_profile(K: int, P: int, N: int) -> AlphaProfile:
    """Stage profile of the query-table scheme.

    Top round K gets (N-1)^(K-P) stages.  When the desired set covers more
    than half the messages (2P > K), rounds K-P+1 .. K-1 are skipped
    entirely: sums there would mix desired symbols with undesired blocks
    that no earlier round supplies.  Every other round j is pinned by
    side-information conservation,

        alpha_j = (1/(N-1)) * sum_{p=1}^{min(P, K-j)} C(P,p) * alpha_{j+p},

    each undesired j-sum generated at one database being consumed exactly
    once at each of the other N-1.
    """
    if N < 2:
        raise InfeasibleError("at least two databases are required")
    if P == K:
        raise ParamError("P == K has no retrieval rounds; use the download-all path")
    if not 1 <= P <= K - 1:
        raise ParamError("need 1 <= P <= K-1")

    a: dict[int, Fraction] = {K: Fraction((N - 1) ** (K - P))}
    for j in range(K - 1, 0, -1):
        if 2 * P > K and K - P + 1 <= j <= K - 1:
            a[j] = Fraction(0)
        else:
            s = sum(comb(P, p) * a[j + p] for p in range(1, min(P, K - j) + 1))
            a[j] = Fraction(s, N - 1)

    values = [a[j] for j in range(1, K + 1)]
    scale = lcm(*(v.denominator for v in values))
    alpha = tuple(int(v * scale) for v in values)
    return AlphaProfile(K=K, P=P, N=N, alpha=alpha, scale=scale)


@cache
def repetition_factor(K: int, P: int, N: int) -> int:
    """Number of repetitions needed for a symmetric scheme.

    nu_0 is the smallest integer making alpha_K * N * nu_0 / P an integer
    (equal fresh-symbol counts per desired message); nu_k for
    1 <= k <= min(P, K-P) is the smallest integer making
    C(P,k) * alpha_k * nu_k / (N-1) an integer (integer per-database quota
    of plainly served randomness in round k).  The result is their lcm.
    """
    profile = alpha_profile(K, P, N)
    alpha_k_top = profile.rational(K)
    num = alpha_k_top.numerator * N
    den = alpha_k_top.denominator * P
    g = gcd(num, den)
    nu = den // g  # nu_0

    for k in range(1, min(P, K - P) + 1):
        val = comb(P, k) * profile.rational(k) / (N - 1)
        nu = lcm(nu, val.denominator)
    return nu


@dataclass(frozen=True)
class CostLedger:
    """Per-database, per-repetition download accounting, as exact rationals.

    D1: all sums downloaded; U1: sums with no desired symbol; U2: sums made
    only of desired symbols; D2: plainly downloaded randomness symbols.
    """

    K: int
    P: int
    N: int
    D1: Fraction
    U1: Fraction
    U2: Fraction
    D2: Fraction

    @property
    def rate(self) -> Fraction:
        return Fraction(self.D1 - self.U1, self.D1 + self.D2)

    @property
    def randomness(self) -> Fraction:
        """Distinct randomness symbols per database per repetition (U1 + D2)."""
        return self.U1 + self.D2

    @property
    def message_length_per_rep(self) -> Fraction:
        """Fresh desired symbols per message per repetition, over all N databases."""
        return Fraction(self.N * (self.D1 - self.U1), self.P)


@cache
def cost_ledger(K: int, P: int, N: int) -> CostLedger:
    al = alpha_profile(K, P, N).rationals()
    D1 = sum((comb(K, k) * al[k - 1] for k in range(1, K + 1)), Fraction(0))
    U1 = sum((comb(K - P, k) * al[k - 1] for k in range(1, K - P + 1)), Fraction(0))
    U2 = sum((comb(P, k) * al[k - 1] for k in range(1, min(P, K - P) + 1)), Fraction(0))
    D2 = Fraction(U2, N - 1)
    ledger = CostLedger(K=K, P=P, N=N, D1=D1, U1=U1, U2=U2, D2=D2)
    # Internal consistency; violations would mean the profile is malformed.
    if ledger.D1 != N * ledger.U1 + (N - 1) * ledger.D2:
        raise ParamError(f"rate identity violated for (K={K}, P={P}, N={N})")
    if ledger.U1 + ledger.D2 != Fraction(ledger.D1 - ledger.U1, N - 1):
        raise ParamError(f"randomness identity violated for (K={K}, P={P}, N={N})")
    return ledger


def mm_spir_capacity(K: int, P: int, N: int, hs_per_symbol: Fraction | int) -> Fraction:
    """Jointly retrieving P of K messages: achievable rate ceiling.

    1 when P == K (download everything, no shared randomness needed);
    1 - 1/N when 1 <= P <= K-1, N >= 2 and the databases share at least
    P/(N-1) randomness symbols per desired symbol; 0 otherwise.
    """
    if K < 1 or not 1 <= P <= K or N < 1:
        raise ParamError("need K >= 1, 1 <= P <= K, N >= 1")
    if P == K:
        return Fraction(1)
    if N >= 2 and Fraction(hs_per_symbol) >= Fraction(P, N - 1):
        return 1 - Fraction(1, N)
    return Fraction(0)


def lspir_cost(P: int, N: int, L: int) -> tuple[int, int]:
    """Download and shared-randomness cost for fixed message length L.

    D = ceil(N*P*L/(N-1)) symbols downloaded, HS = ceil(P*L/(N-1)) shared
    symbols consumed; D = P*L + HS always.
    """
    if N < 2:
        raise InfeasibleError("at least two databases are required")
    if P < 1 or L < 1:
        raise ParamError("need P >= 1 and L >= 1")
    D = -(-N * P * L // (N - 1))
    HS = -(-P * L // (N - 1))
    assert D == P * L + HS
    return D, HS


def psi_direction_cost(P: int, N: int, K: int | None) -> int:
    """Download cost when the side holding P of K elements initiates against N databases.

    The initiator retrieves one bit per element of its own set.  An empty set
    sends no query and costs 0.  A full set downloads all K bits from one
    database with no shared randomness (MM-SPIR capacity 1).  Any other set
    costs ceil(N*P/(N-1)) and needs N >= 2, else InfeasibleError.
    """
    if P == 0:
        return 0
    if P == K:
        return K
    return lspir_cost(P, N, 1)[0]


def psi_optimal_cost(P1: int, N1: int, P2: int, N2: int, K: int | None = None) -> tuple[int, int]:
    """Optimal download cost for intersecting two stored sets of K possible elements.

    Either side may initiate against the other side's databases.  Returns
    (cost, initiator), the cheapest feasible ``psi_direction_cost``, where
    initiator is 1 or 2; ties go to entity 1.  K is optional only for the
    four-argument form, which treats no set as full.
    """
    candidates: list[tuple[int, int]] = []
    for P, N, initiator in ((P1, N2, 1), (P2, N1, 2)):
        try:
            candidates.append((psi_direction_cost(P, N, K), initiator))
        except InfeasibleError:
            pass
    if not candidates:
        raise InfeasibleError("both entities have a single database; no private scheme exists")
    return min(candidates)
