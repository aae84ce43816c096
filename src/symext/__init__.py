"""Exact decomposition of symmetric and exterior powers of group characters.

The package computes, for a finite group given by its character table, the
multiplicities of every irreducible inside the symmetric powers S^i(V) and
exterior powers of a representation V - as truncated tables and as exact
rational generating functions in t - together with closed-form shortcuts
for one-dimensional characters and for linear characters of a normal
subgroup extended by zero (coset-action characters among them).
"""

from .exactnum import Cyclotomic, NotRationalError, Rational, binom
from .groupdata import (
    CharacterTable,
    ClassData,
    ClassFunction,
    NonIntegralMultiplicityError,
    NonRationalMultiplicityError,
    adams,
    decompose,
    inner_product,
    integral_multiplicities,
    regular_character,
    validate_table,
)
from .lambdaops import (
    LambdaSequence,
    ProductForm,
    char_poly,
    exterior_powers,
    is_periodic,
    product_form,
    sym_series_at_class,
    symmetric_powers,
)
from .genfun import (
    MultiplicityTable,
    RationalFunction,
    genfun_rational,
    genfun_rationals,
    genfun_series,
    multiplicity_table,
    series_of_rational,
)
from .closedforms import (
    CentralCharSpec,
    CentralForms,
    NormalSubgroupSpec,
    OneDimForms,
    QuotientTransfer,
    binomial_series,
    burnside_regular_forms,
    central_char_spec,
    central_forms,
    coset_order,
    expand_product_form,
    one_dim_forms,
    quotient_pullback,
    subgroup_spec,
)
from .permgroup import (
    CapExceededError,
    GeneratedGroup,
    Permutation,
    class_data,
    enumerate_group,
    standard_characters,
)
from .catalog import (
    family_closed_form,
    get_group,
    get_group_by_selector,
    get_perm_model,
    named_subgroups,
    tau_prime,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
