"""Bloch invariants of hyperbolic 3-manifolds from ideal triangulation data.

Computes the pre-Bloch class of a triangulation, certifies Bloch-group
membership, evaluates volume and Chern-Simons through the Rogers-dilogarithm
flattening formula, deforms triangulations through hyperbolic Dehn filling,
and evaluates Borel regulator vectors with integer-relation detection.
"""

__version__ = "0.1.0"

from .numfield import (NumberField, FieldElement, EmbeddingSet, field_make,
                       embeddings)
from .dilog import (li2, bloch_wigner, rogers, volume_of_prebloch,
                    RhoRepresentative)
from .prebloch import (PreBlochElement, Infinity, cross_ratio,
                       six_fold_normalize, five_term, wedge, is_bloch,
                       multiplicative_relations, WedgeElement,
                       BlochCertificate, parse_element, serialize_element)
from .triang import (Triangulation, GluingCombinatorics, parse_triangulation,
                     serialize_triangulation, edge_equations, infer_d,
                     bloch_invariant)
from .surgery import (FillingSpec, FilledSystem, SolveResult, filled_system,
                      newton_solve, core_length, solution_volume)
from .chern_simons import (FlatteningSolution, CSResult, solve_flattening,
                           cs_formula, rho_of_beta, eta_from_cs,
                           rationalize_mod_pi2)
from .borel import (RegulatorVector, RelationReport, borel_regulator,
                    detect_relation, per_root_values, conjugate_family,
                    rank_witness)
from .scissors import (IdealPolyhedron, cone_decomposition, polyhedron_class,
                       cycle_move, decomposition_class, parse_polyhedron)

__all__ = [
    "NumberField", "FieldElement", "EmbeddingSet", "field_make", "embeddings",
    "li2", "bloch_wigner", "rogers",
    "volume_of_prebloch", "RhoRepresentative", "PreBlochElement", "Infinity",
    "cross_ratio", "six_fold_normalize", "five_term", "wedge", "is_bloch",
    "multiplicative_relations", "WedgeElement", "BlochCertificate",
    "parse_element", "serialize_element", "Triangulation",
    "GluingCombinatorics", "parse_triangulation", "serialize_triangulation",
    "edge_equations", "infer_d", "bloch_invariant", "FillingSpec",
    "FilledSystem", "SolveResult", "filled_system", "newton_solve",
    "core_length", "solution_volume", "FlatteningSolution", "CSResult",
    "solve_flattening", "cs_formula", "rho_of_beta", "eta_from_cs",
    "rationalize_mod_pi2", "RegulatorVector", "RelationReport",
    "borel_regulator", "detect_relation", "per_root_values",
    "conjugate_family", "rank_witness", "IdealPolyhedron",
    "cone_decomposition", "polyhedron_class", "cycle_move",
    "decomposition_class", "parse_polyhedron",
]
