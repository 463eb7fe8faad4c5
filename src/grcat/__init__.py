"""Exact classification of twisted associativity and braiding data on
graded vector spaces over a finite abelian group.

Everything is computed in exact arithmetic: group elements as exponent
tuples, roots of unity as rationals modulo 1, linear algebra over the
integers via Smith normal form.
"""

from .braidings import (QuasiBicharacter, braiding_count, braiding_exists,
                        braiding_function_table, brute_force_braidings,
                        brute_force_full_function_space, enumerate_braidings,
                        eval_R, verify_hexagons)
from .cocycles import (CocycleParams, CocycleTable, build_table, enumerate_params,
                       eval_cocycle, params_from_json, params_to_json,
                       table_from_json, table_to_json, verify_normalized,
                       verify_pentagon, verify_symmetry_last_two)
from .cohomology import (CoboundaryWitness2, TensorCochain3,
                         all_ones_cochain, bar_coboundary_table, classify,
                         h3_order, is_bar_coboundary, is_tensor_coboundary,
                         is_tensor_cocycle, pullback_to_tensor,
                         reduce_to_normal_form, representative_cochain,
                         tensor_coboundary, trivial_witness)
from .complexes import (BarGenerator, ChainVector, GroupRingElement,
                        TensorGenerator, apply_chain_map, bar_differential,
                        bar_generator, chain_map, norm_element, phi,
                        pullback_3cochain, single, t_element,
                        tensor_differential, tensor_to_bar, verify_chain_map,
                        verify_tensor_to_bar)
from .groups import Group, GroupElement, carry, remainder
from .intlinalg import SmithDecomposition, smith_normal_form, solve_mod1
from .roots import Root, canonical_root

__all__ = [
    "BarGenerator", "ChainVector", "CoboundaryWitness2", "CocycleParams",
    "CocycleTable", "Group", "GroupElement", "GroupRingElement",
    "QuasiBicharacter", "Root", "SmithDecomposition", "TensorCochain3",
    "TensorGenerator", "all_ones_cochain", "apply_chain_map",
    "bar_coboundary_table", "bar_differential", "bar_generator",
    "braiding_count", "braiding_exists", "braiding_function_table",
    "brute_force_braidings", "brute_force_full_function_space",
    "build_table", "canonical_root", "carry", "chain_map", "classify",
    "enumerate_braidings", "enumerate_params", "eval_R", "eval_cocycle",
    "h3_order", "is_bar_coboundary", "is_tensor_coboundary",
    "is_tensor_cocycle", "norm_element", "params_from_json",
    "params_to_json", "phi", "pullback_3cochain", "pullback_to_tensor",
    "reduce_to_normal_form", "remainder", "representative_cochain",
    "single", "smith_normal_form", "solve_mod1", "t_element",
    "table_from_json", "table_to_json", "tensor_coboundary",
    "tensor_differential", "tensor_to_bar", "trivial_witness",
    "verify_chain_map", "verify_hexagons", "verify_normalized",
    "verify_pentagon", "verify_symmetry_last_two", "verify_tensor_to_bar",
]
