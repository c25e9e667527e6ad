"""Workbench for operadic algebra: terms and trees over a signature,
operad composition in three flavors, bounded equality saturation,
weakened categorical structures, and their strictification."""

from .finmaps import (FinFunction, FinMapError, block_compose,
                      block_permutation, comb_compose, compose, direct_sum,
                      fn, identity, inverse, perm, select)
from .terms import (App, Equation, GENERAL, LINEAR, Presentation,
                    PresentationError, STRONGLY_REGULAR, Signature, Term,
                    TermError, Var, classify_equation, classify_presentation,
                    classify_term, closure_saturate, enumerate_terms,
                    format_presentation, format_term, label_fn,
                    parse_presentation, parse_term, substitute, support,
                    term_size, var_seq)
from .trees import (FPTree, Leaf, Node, PermutedTree, Tree, TreeError,
                    compose_fp, enumerate_fp_trees, enumerate_permuted_trees,
                    enumerate_trees, format_fp_tree, format_object,
                    format_tree, graft, parse_fp_tree, parse_permuted_tree,
                    parse_tree, to_object, to_term, to_term_alpha, to_tree,
                    tree_arity, tree_size)
from .operads import (CheckReport, CommMonoidFPOperad, EndOperad, FiniteOp,
                      FreeOperad, InitialOperad, IntPolyFPOperad,
                      Interpretation, Operad, OperadError, Poly,
                      SymmetryOperad, TerminalPlainOperad,
                      TerminalSymmetricOperad, builtin_operad,
                      default_assignment, eval_tree, op_from_callable,
                      operad_axiom_check, parse_poly,
                      validate_interpretation)
from .clones import (Clone, CloneError, CloneFromFP, EndClone, FPFromClone,
                     clone_axiom_check, clone_roundtrip_check,
                     roundtrip_check)
from .weakening import (FP_REJECTION, AgreementReport, Decision, WeakClass,
                        WeakeningContext, WeakeningError,
                        WeakeningFlavorError, biased_unbiased_agreement)
from .weakcat import (Arrow, FiniteCategory, Functor, WeakPCategoryData,
                      WeakPFunctorData, WeakcatError, cell_key,
                      check_weak_functor, coherence_check,
                      indiscrete_monoid_instance, key_of, load_weakcat,
                      save_weakcat, unkey)
from .strictify import (StArrow, StObject, StrictPCategory, StrictifyError,
                        check_equivalence, check_strictness, strictify,
                        universal_property_check)

__all__ = [name for name in dir() if not name.startswith("_")]
