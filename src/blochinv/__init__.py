"""Bloch invariants of hyperbolic 3-manifolds from ideal triangulation data.

Computes the pre-Bloch class of a triangulation, certifies Bloch-group
membership, evaluates volume and Chern-Simons through the Rogers-dilogarithm
flattening formula, deforms triangulations through hyperbolic Dehn filling,
and evaluates Borel regulator vectors with integer-relation detection.

Importing the package is cheap: each public name imports its defining
module on first access (PEP 562), so a caller pays only for what it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "numfield": ("NumberField", "FieldElement", "EmbeddingSet", "field_make",
                 "embeddings"),
    "dilog": ("li2", "bloch_wigner", "rogers"),
    "prebloch": ("PreBlochElement", "Infinity", "cross_ratio",
                 "six_fold_normalize", "five_term", "wedge", "is_bloch",
                 "multiplicative_relations", "WedgeElement",
                 "BlochCertificate", "parse_element", "serialize_element",
                 "volume_of_prebloch", "bloch_invariant"),
    "triang": ("Triangulation", "GluingCombinatorics", "parse_triangulation",
               "serialize_triangulation", "edge_equations", "infer_d"),
    "surgery": ("FilledSystem", "SolveResult", "filled_system",
                "newton_solve", "core_length", "solution_volume"),
    "chern_simons": ("FlatteningSolution", "CSResult", "solve_flattening",
                     "cs_formula", "rationalize_mod_pi2"),
    "borel": ("RegulatorVector", "RelationReport", "borel_regulator",
              "detect_relation", "per_root_values", "rank_witness"),
    "scissors": ("IdealPolyhedron", "cone_decomposition", "polyhedron_class",
                 "cycle_move", "decomposition_class", "parse_polyhedron"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
