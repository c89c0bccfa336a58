"""Conjunctive grammars, conjunctive categorial grammars, Lambek-style
sequent provers with additives, and the translations between them."""

from .errors import (BudgetError, CalculusError, GrammarError, ParseError,
                     UndeclaredSymbolError)
from .grammars import (CALCULI, CCG, Calculus, ConjGrammar, L, L_STAR,
                       LambekGrammar, MALC, MALC_STAR, QuotientBundle, Rule,
                       ccg, conj_grammar, lambek_grammar)
from .syntax import (And, Atom, BOT, Category, Const, Formula, LDiv,
                     MacllSequent, ONE, Or, Par, Plus, Prim, Prod, RDiv,
                     Sequent, TOP, Times, With, ZERO, category_str,
                     conjunct_members, formula_str, hat_translate,
                     is_bcat, is_bcat_conj, is_conjunct, macll_image,
                     macll_negate, macll_substitute, make_conjunct,
                     parse_category, parse_formula, parse_macll_sequent,
                     parse_sequent, sequent_str, subexpressions,
                     substitute_primitive)
from .conj import (CGDerivation, CGNode, cg_derivation, cg_enumerate,
                   cg_member, check_odd_normal_form, nullable_nonterminals)
from .ccg import (CCGDerivation, CCGNode, ccg_derive, ccg_enumerate,
                  ccg_extend, ccg_languages, ccg_member, ccg_universe)
from .prover import (DEFAULT_BUDGET, ProofTree, SearchCache,
                     categories_equivalent, derivable, lambek_enumerate,
                     lambek_member, macll_derivable, prove, prove_macll)
from .transforms import (Homomorphism, add_empty_string,
                         bundle_to_ccg, ccg_to_cg, ccg_to_malc, image_member,
                         relative_double_negation, to_disjunction_grammar,
                         verify_bundle)
from .cvp import (Circuit, Input, Nor, csp_member, cvp_grammar,
                  cvp_homomorphism, encode_circuit, enumerate_circuits,
                  eval_circuit)
from .fileformat import (dump_bundle, dump_grammar, dumps_bundle,
                         dumps_grammar, load_bundle, load_grammar,
                         loads_bundle, loads_grammar)
