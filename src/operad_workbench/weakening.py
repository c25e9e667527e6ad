"""The weakened structure over a presented theory, as a decision procedure.

Objects at arity n are the trees of that arity over the presentation's
signature (plain trees, or permuted trees for the symmetric flavor).
Between two objects there is at most one invertible 2-cell, and it
exists exactly when the generator map identifies them. With a target
interpretation this is decidable by evaluation; without one, bounded
saturation of the equations gives a sound yes/unknown procedure. The
hom structure is never stored, only decided.

The finite-product flavor is rejected outright: duplication and
deletion actions force every interchange component at a repeated
object, the map usually written tau_{A,A}, to be an identity, so
nothing genuinely weak survives. Use plain or symmetric flavor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .operads import CheckReport, Interpretation
from .terms import (MAX_STEPS, MAX_TERM_SIZE, Presentation, RewriteStep,
                    SaturationResult, Term, closure_saturate, format_term,
                    term_size, validate_term)
from .trees import (FPTree, PermutedTree, Tree,
                    enumerate_permuted_trees, enumerate_trees, format_object,
                    to_term, to_term_alpha, tree_arity)

FP_REJECTION = (
    "finite-product weakening is degenerate: the duplication action forces "
    "every interchange component at a repeated object (tau_{A,A}) to be an "
    "identity, so no genuinely weak structure remains; use plain or "
    "symmetric flavor")


class WeakeningError(ValueError):
    pass


class WeakeningFlavorError(WeakeningError):
    def __init__(self):
        super().__init__(FP_REJECTION)


WeakObject = Tree | PermutedTree


def _term_of(t: WeakObject) -> Term:
    if isinstance(t, PermutedTree):
        return to_term(t)
    return to_term_alpha(t, tuple(range(1, tree_arity(t) + 1)))


@dataclass(frozen=True)
class Decision:
    answer: str
    reason: str
    trace: tuple[RewriteStep, ...] | None = None

    @property
    def yes(self) -> bool:
        return self.answer == "yes"


@dataclass(frozen=True)
class WeakClass:
    """One equivalence class of objects; element is the shared target
    value in evaluable mode, None in closure mode."""

    arity: int
    element: object | None
    members: tuple[WeakObject, ...]


class WeakeningContext:
    """A presented theory with optional target interpretation and the
    budgets for the saturation fallback."""

    def __init__(self, presentation: Presentation,
                 interpretation: Interpretation | None = None,
                 max_term_size: int = MAX_TERM_SIZE,
                 max_steps: int = MAX_STEPS):
        if presentation.flavor == "fp":
            raise WeakeningFlavorError()
        if interpretation is not None \
                and interpretation.presentation is not presentation:
            raise WeakeningError(
                "interpretation belongs to a different presentation")
        self.presentation = presentation
        self.interpretation = interpretation
        self.max_term_size = max_term_size
        self.max_steps = max_steps
        self._terms: dict[WeakObject, Term] = {}  # objects read and checked
        self._saturations: dict[int, SaturationResult] = {}

    @property
    def evaluable(self) -> bool:
        return self.interpretation is not None

    @property
    def flavor(self) -> str:
        return self.presentation.flavor

    def object_arity(self, t: WeakObject) -> int:
        """Validate an object against the flavor and return its arity."""
        if isinstance(t, PermutedTree):
            if self.flavor != "symmetric":
                raise WeakeningError(
                    "permuted trees are objects of the symmetric flavor only")
            return t.arity
        if isinstance(t, FPTree):
            raise WeakeningError(FP_REJECTION)
        # under the symmetric flavor a bare tree stands for itself with
        # the identity permutation
        return tree_arity(t)

    def object_term(self, t: WeakObject) -> Term:
        """The object's term, converted and checked by validate_term at its
        first read and then remembered; a refused object is not remembered,
        so it is refused again with the same TermError."""
        term = self._terms.get(t)
        if term is None:
            term = _term_of(t)
            validate_term(term, self.presentation.signature)
            self._terms[t] = term
        return term

    def format_object(self, t: WeakObject) -> str:
        return format_object(t)

    def eval_object(self, t: WeakObject):
        if not self.evaluable:
            raise WeakeningError("no target interpretation to evaluate in")
        self.object_arity(t)
        return self.interpretation.eval_tree(t)

    def saturation(self, arity: int) -> SaturationResult:
        """The closure of one arity, built on first use, over the
        flavor's universe: the runs for a plain theory, the linear terms
        for a symmetric one. Symmetric equations keep a term's variables
        and plain ones keep them in order, and every object term is
        linear, a plain one a run (its leaves are x1..xn in order), so no
        object's class ever leaves that universe. The flavor picks it,
        not the equations' class: a symmetric theory whose equations are
        all strongly regular still has permuted objects, which are not
        runs."""
        if arity not in self._saturations:
            self._saturations[arity] = closure_saturate(
                self.presentation, arity, self.max_term_size, self.max_steps)
        return self._saturations[arity]

    def two_cell(self, t1: WeakObject, t2: WeakObject) -> Decision:
        """Decide whether the unique invertible 2-cell t1 -> t2 exists.
        Objects of different arities are told apart by their arities;
        otherwise object_term refuses an operation that the signature
        lacks, or takes with another arity, by a TermError naming it,
        before either object is evaluated or saturated."""
        n1 = self.object_arity(t1)
        n2 = self.object_arity(t2)
        if n1 != n2:
            return Decision("no", f"different arities {n1} and {n2}")
        term1, term2 = self.object_term(t1), self.object_term(t2)
        if self.evaluable:
            e1 = self.eval_object(t1)
            e2 = self.eval_object(t2)
            if e1 == e2:
                return Decision(
                    "yes", "both evaluate to "
                    + self.interpretation.operad.format_element(e1))
            return Decision(
                "no", self.interpretation.operad.format_element(e1)
                + " differs from "
                + self.interpretation.operad.format_element(e2))
        return self._closure_decision(term1, term2, n1)

    def _closure_decision(self, term1: Term, term2: Term,
                          arity: int) -> Decision:
        # an object term is a run (plain) or a linear term (symmetric), so
        # it lies in its flavor's universe exactly when it fits the size
        # bound, and an over-bound side is answered before saturating
        for term in (term1, term2):
            if term_size(term) > self.max_term_size:
                return Decision(
                    "unknown",
                    f"{format_term(term)} exceeds the saturation size bound "
                    f"{self.max_term_size}")
        sat = self.saturation(arity)
        if sat.same(term1, term2):
            steps = sat.explain(term1, term2)
            return Decision("yes", f"merged in {len(steps)} rewrite steps",
                            tuple(steps))
        suffix = "; saturation budget exhausted" if sat.exhausted else ""
        return Decision(
            "unknown",
            f"not merged within size {self.max_term_size}{suffix}")

    def enumerate_objects(self, arity: int, max_size: int) -> list[WeakObject]:
        """The objects of the arity within the size bound, in (size,
        text) order."""
        if self.flavor == "symmetric":
            return list(enumerate_permuted_trees(
                self.presentation.signature, arity, max_size))
        return list(enumerate_trees(self.presentation.signature, arity, max_size))

    def enumerate_classes(self, arity: int, max_size: int) -> list[WeakClass]:
        """All objects of the arity within the size bound, partitioned by
        two_cell. Evaluable mode keys classes by target element; closure
        mode groups by saturation merges (unknown pairs stay apart).

        The objects come in (size, text) order and each class is keyed
        at its first member, so the members of a class, and the classes
        by their first members, come out in that order too. One memo for
        the call evaluates each distinct plain subtree once."""
        objects = self.enumerate_objects(arity, max_size)
        if self.evaluable:
            memo: dict = {}
            buckets: dict = {}
            for obj in objects:
                buckets.setdefault(self.interpretation.eval_tree(obj, memo),
                                   []).append(obj)
            return [WeakClass(arity, value, tuple(members))
                    for value, members in buckets.items()]
        sat = self.saturation(arity)
        roots: dict = {}
        for obj in objects:
            # built from the signature, so neither checked nor remembered
            term = _term_of(obj)
            anchor = sat.anchor(term) if sat.in_universe(term) else term
            roots.setdefault(anchor, []).append(obj)
        return [WeakClass(arity, None, tuple(members))
                for members in roots.values()]


@dataclass
class AgreementReport(CheckReport):
    """The realized elements of each side, sorted, per arity."""

    arities: dict[int, tuple[list[str], list[str]]] = field(
        default_factory=dict)


def biased_unbiased_agreement(ctx_a: WeakeningContext, ctx_b: WeakeningContext,
                              arities: Sequence[int],
                              max_size: int) -> AgreementReport:
    """Compare the partitions two presentations of one theory induce on
    the elements of their shared target.

    For each arity, both contexts partition their own trees by target
    element; agreement means the same element sets are realized. Each
    element heads exactly one class on each side by construction, since
    evaluable enumerate_classes buckets the trees by their element.
    Trees themselves are not compared across contexts since the
    signatures differ.
    """
    if not (ctx_a.evaluable and ctx_b.evaluable):
        raise WeakeningError("agreement needs evaluable contexts on both sides")
    op_a = ctx_a.interpretation.operad
    op_b = ctx_b.interpretation.operad
    if op_a.name != op_b.name or op_a.flavor != op_b.flavor:
        raise WeakeningError(
            f"contexts target different operads: {op_a.name} vs {op_b.name}")
    report = AgreementReport()
    for arity in arities:
        classes_a = ctx_a.enumerate_classes(arity, max_size)
        classes_b = ctx_b.enumerate_classes(arity, max_size)
        keys_a = sorted(op_a.format_element(c.element) for c in classes_a)
        keys_b = sorted(op_b.format_element(c.element) for c in classes_b)
        report.arities[arity] = (keys_a, keys_b)
        report.note("arity")
        if keys_a != keys_b:
            report.fail(
                f"arity {arity}: realized elements {keys_a} vs {keys_b}")
    return report
