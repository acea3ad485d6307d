"""Finite noncommutative geometry toolkit.

Constructs and verifies finite spectral triples, full C*-categories with
self-adjoint domain sections, and Fell bundles over finite pair groupoids;
implements the equivalences between the three presentations; and runs a
1-D lattice demonstration of the classical limit of transport operators.
"""

from .matops import (DEFAULT_TOL, SubspaceBasis, Tolerance, adjoint,
                     frobenius, hermitian_spectrum, is_partial_isometry,
                     matrix_from_json, operator_norm)
from .groupoid import (Bisection, LocalBisection, PairGroupoid,
                       all_bisections, all_local_bisections,
                       compose_bisections, is_local_bisection)
from .report import AxiomCheck, AxiomReport
from .fellbundle import (BlockStructure, FellBundleFD, SemidirectBundle,
                         UnitaryField, bundle_from_json, bundle_to_json,
                         check_bundle, check_fell_axioms, check_saturated,
                         check_unital, full_morita_bundle, linking_algebra,
                         semidirect_bundle)
from .cstarcat import (CStarCategoryFD, DomainSection, NormaliserClass,
                       bisection_to_normaliser, category_from_bundle,
                       conditional_expectation, is_domain_section,
                       is_normaliser_bruteforce, normaliser_support)
from .sptriple import (FiniteSpectralTriple, build_triple_from_mass_matrix,
                       check_even_axioms, check_poincare, check_real_axioms,
                       check_so_real, check_triple, extract_mass_matrix,
                       standard_operators, triple_from_json, triple_to_json)
from .geometry import (FellBundleTriple, FluctuationTerm,
                       SpectralCStarCategoryFD, apply_path_lifting,
                       categorify, fell_bundle_triple,
                       fell_triple_from_category, fluctuate, one_form,
                       spectral_category, triple_from_category)
from .climit import (ConvergenceReport, LatticeConfig, Profile,
                     convergence_report, flat_lattice_dirac, gauge_unitary,
                     gauge_covariance_check, parse_profile)
from .errors import (AxiomRefusalError, ConsistencyError, DomainSectionError,
                     InputError, NcgError, ShapeError, StructureError,
                     UnsupportedConfigurationError)

__version__ = "0.1.0"
