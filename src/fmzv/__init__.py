"""Finite multiple zeta value toolkit.

Truncated multiple harmonic sums mod p, Bernoulli values mod p, exact
generating-function machinery, and verification sweeps for the
identities relating them.

Importing the package leaves the exact-arithmetic layer (``fmzv.symbolic``,
with ``polys``, ``fractions`` and ``decimal``) unloaded: the mod-p sweeps
never use it.  Its public names here import ``fmzv.symbolic`` on first
access.
"""

from .errors import (
    AllSamplesSkippedError,
    DegenerateParametersError,
    InfeasibleFamilyError,
    PoleCancellationError,
    VonStaudtPoleError,
)
from .indices import (
    Index,
    iter_admissible_indices,
    iter_all_indices,
)
from .modfield import (
    PrimeCtx,
    binom_mod,
    is_prime,
    prime_ctx,
    primes_in_range,
)
from .harmonic import (
    family_sum_alt_strict,
    family_sum_star,
    family_sum_star_unrestricted,
    mhs_star,
    mhs_strict,
)
from .bernoulli import (
    alternating_power_sum,
    bernoulli_mod,
    check_euler_congruence,
    zeta_residue,
)
from .records import VerificationRecord
from .verify import (
    verify_antipode,
    verify_ao,
    verify_height_sum,
    verify_lemma,
    verify_lm,
    verify_reversal,
)

# The names of fmzv.symbolic, which ``__getattr__`` resolves on first access.
_SYMBOLIC = frozenset((
    "anl_form_agreement",
    "gauss_terminating_check",
    "gf_coeff_series",
    "gf_coefficient_check",
    "hypergeom_congruence_check",
    "pochhammer_poly",
    "pole_weight",
    "pole_weight_product_form",
    "polylog_star_coeff",
))

__version__ = "0.1.0"

__all__ = [
    "AllSamplesSkippedError",
    "DegenerateParametersError",
    "Index",
    "InfeasibleFamilyError",
    "PoleCancellationError",
    "PrimeCtx",
    "VerificationRecord",
    "VonStaudtPoleError",
    "alternating_power_sum",
    "anl_form_agreement",
    "bernoulli_mod",
    "binom_mod",
    "check_euler_congruence",
    "family_sum_alt_strict",
    "family_sum_star",
    "family_sum_star_unrestricted",
    "gauss_terminating_check",
    "gf_coeff_series",
    "gf_coefficient_check",
    "hypergeom_congruence_check",
    "is_prime",
    "iter_admissible_indices",
    "iter_all_indices",
    "mhs_star",
    "mhs_strict",
    "pochhammer_poly",
    "pole_weight",
    "pole_weight_product_form",
    "polylog_star_coeff",
    "prime_ctx",
    "primes_in_range",
    "verify_antipode",
    "verify_ao",
    "verify_height_sum",
    "verify_lemma",
    "verify_lm",
    "verify_reversal",
    "zeta_residue",
]


def __getattr__(name):
    # PEP 562: called only for a name the module does not hold
    if name in _SYMBOLIC:
        from . import symbolic
        return getattr(symbolic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SYMBOLIC)
