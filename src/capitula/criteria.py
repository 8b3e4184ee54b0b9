"""Certified capitulation verdicts for abelian fields of prime conductor.

Each decision rule is a pure function returning a small "fragment" dict
(rule name, inputs, and what it certifies).  classify() applies the rules in
a fixed order — no-potential, parity, imaginary bounds, and finally the
eigenspace computation from the Fitting ideals of the field's characters —
and returns the strongest certified verdict together with the full
certificate chain.  Undetermined is an honest output: the engine never
guesses beyond certified rules; a handful of ad hoc resolutions live in an
explicit fixture table.
"""

import json
from dataclasses import dataclass
from math import gcd, prod

from .arith import factor, p_valuation
from .errors import HypothesisNotMet, InsufficientData
from .iwasawa import (capitulation_module, eigenspace_class_invariants,
                      maximal_capitulation)

REAL_KINDS = ("quadratic-real", "cyclic-cubic", "cyclic")


@dataclass(frozen=True)
class FieldDescriptor:
    kind: str  # quadratic-real | quadratic-imaginary | cyclic-cubic | cyclic
    conductor: int
    degree: int
    roots_of_unity_count: int = 2


def quadratic_real_field(ell) -> FieldDescriptor:
    return FieldDescriptor("quadratic-real", ell, 2)


def quadratic_imaginary_field(d) -> FieldDescriptor:
    if d >= 0:
        raise ValueError("discriminant must be negative")
    w = {-3: 6, -4: 4}.get(d, 2)
    return FieldDescriptor("quadratic-imaginary", -d, 2, w)


def cyclic_cubic_field(ell) -> FieldDescriptor:
    return FieldDescriptor("cyclic-cubic", ell, 3)


@dataclass(frozen=True)
class CapitulationVerdict:
    field: FieldDescriptor
    p: int
    kernel_order: object  # int, or (lo, hi) interval
    kernel_invariants: tuple  # or None when only an order/interval is known
    status: str  # full | partial | none | no-potential | undetermined
    certificates: tuple  # of (rule_name, ((key, value), ...))

    def to_json(self) -> str:
        kernel = {"order": list(self.kernel_order)
                  if isinstance(self.kernel_order, tuple)
                  else self.kernel_order}
        kernel["invariants"] = (list(self.kernel_invariants)
                                if self.kernel_invariants is not None else None)
        doc = {
            "field": {
                "kind": self.field.kind,
                "conductor": self.field.conductor,
                "degree": self.field.degree,
                "roots_of_unity_count": self.field.roots_of_unity_count,
            },
            "p": self.p,
            "status": self.status,
            "kernel": kernel,
            "certificates": [
                {"rule": name, **dict(inputs)} for name, inputs in self.certificates
            ],
        }
        return json.dumps(doc)


def _euler_phi(n):
    out = n
    for q in factor(n).primes():
        out = out // q * (q - 1)
    return out


def _torsion_subgroup(invariants, m):
    """Invariants of the subgroup of elements of order dividing m."""
    return tuple(g for g in (gcd(d, m) for d in invariants) if g > 1)


# ---------------------------------------------------------------------------
# decision rules


def potential_capitulation(class_order, n, d) -> bool:
    """A class of order class_order can capitulate in Q(zeta_n) only if its
    order divides phi(n)/d (d the degree of the base field)."""
    phi = _euler_phi(n)
    if phi % d:
        raise ValueError("degree must divide phi(conductor)")
    return (phi // d) % class_order == 0


def lemma4_i(p_part_F, p_part_L, ell, a, ramification_ok):
    """Degree-ell^a extension F -> L with no nontrivial unramified
    subextension and ell not dividing h_L/h_F: the capitulation kernel is
    exactly the classes of order dividing ell^a."""
    inv_F = (p_part_F,) if isinstance(p_part_F, int) else tuple(p_part_F)
    inv_L = (p_part_L,) if isinstance(p_part_L, int) else tuple(p_part_L)
    if not ramification_ok:
        raise HypothesisNotMet("unramified subextension not excluded")
    hF, hL = prod(inv_F), prod(inv_L)
    if hL % hF or (hL // hF) % ell == 0:
        raise HypothesisNotMet(f"{ell} divides h_L/h_F")
    kernel = _torsion_subgroup(inv_F, ell**a)
    return {
        "rule": "lemma4_i",
        "kernel_order": prod(kernel),
        "kernel_invariants": kernel,
        "exact": True,
        "inputs": (("ell", ell), ("a", a)),
    }


def lemma4_ii(f, k, ell):
    """ell odd, degree-ell extension, ell-part of C_L cyclic of order
    ell^k, ell-part of C_F of order ell^f with f < k: then f = k - 1 and
    the map C_F -> C_L is injective (no capitulation)."""
    if ell == 2:
        raise HypothesisNotMet("ell must be odd")
    if not f < k:
        raise HypothesisNotMet("requires f < k")
    if f != k - 1:
        raise HypothesisNotMet("f < k forces f = k - 1; inputs inconsistent")
    return {
        "rule": "lemma4_ii",
        "kernel_order": 1,
        "kernel_invariants": (),
        "exact": True,
        "inputs": (("f", f), ("k", k), ("ell", ell)),
    }


def lemma4_iii(ell, class_part_L):
    """ell odd, degree-ell extension, ell-part of C_L = (Z/ell)^2: all
    classes of order ell in F become principal in L."""
    if ell == 2:
        raise HypothesisNotMet("ell must be odd")
    if tuple(class_part_L) != (ell, ell):
        raise HypothesisNotMet(f"class part of L must be ({ell},{ell})")
    return {
        "rule": "lemma4_iii",
        "capitulates_order": ell,
        "inputs": (("ell", ell),),
    }


def imaginary_bound(field, class_invariants):
    """Bounds for an imaginary quadratic field with units {+-1}: any
    capitulating class has order dividing 4 (so order > 4 elements are
    certified non-capitulating), and exponent-2 class groups capitulate
    fully by genus theory.  Exponent-4 groups are left undetermined."""
    inv = tuple(class_invariants)
    exponent = max(inv, default=1)
    order = prod(inv)
    if exponent == 1:
        return {"rule": "imaginary_bound", "status": "none",
                "kernel_order": 1, "kernel_invariants": (),
                "inputs": (("invariants", inv),)}
    if exponent == 2:
        return {"rule": "genus_capitulation", "status": "full",
                "kernel_order": order, "kernel_invariants": inv,
                "inputs": (("invariants", inv),)}
    bound = _torsion_subgroup(inv, 4)
    if exponent == 4:
        return {"rule": "cor2_bound", "status": "undetermined",
                "kernel_order": (1, prod(bound)),
                "kernel_invariants": None,
                "inputs": (("invariants", inv), ("bound", bound))}
    return {"rule": "cor2_bound", "status": "undetermined",
            "kernel_order": (1, prod(bound)), "kernel_invariants": None,
            "non_capitulating": True,
            "inputs": (("invariants", inv), ("bound", bound))}


def parity_obstruction(p, relative_degree_real):
    """Totally real base of prime conductor: the class map into Q(zeta_l)+
    is injective on the 2-part when the relative degree is odd (and the
    further step to Q(zeta_l) is injective).  Neutral otherwise."""
    if p == 2 and relative_degree_real % 2 == 1:
        return {"rule": "parity_obstruction", "status": "none",
                "kernel_order": 1, "kernel_invariants": (),
                "inputs": (("relative_degree", relative_degree_real),)}
    return None


# fixture resolutions for fields the general rules leave undetermined
FIXTURES = {
    ("quadratic-imaginary", 39): {
        "rule": "fixture", "status": "full",
        "inputs": (("field", "Q(sqrt(-39))"), ("resolution", "full")),
    },
}


# ---------------------------------------------------------------------------
# classifier


def _cert(frag):
    return (frag["rule"], tuple(frag.get("inputs", ())))


def eigenspace_class_part(ideals) -> tuple:
    """Invariants of the direct sum of the eigenspaces R/(I + (T)) of the
    ideals, ascending."""
    return tuple(sorted(d for I in ideals
                        for d in eigenspace_class_invariants(I)))


def classify(field, p, class_invariants=None, ideals=()) -> CapitulationVerdict:
    """Verdict for the p-part of the class group of `field` capitulating in
    its minimal cyclotomic field.  Rules are applied in a fixed order:
    no-potential, parity, imaginary bounds (+fixtures), then the eigenspace
    computation.  Exact eigenspace kernels win over intervals.

    ideals holds the Fitting ideal I of each of the field's characters at p.
    The p-class part is the direct sum of the eigenspaces R/(I + (T)), read
    off the ideals when class_invariants is None, and the capitulation
    kernel is the direct sum of their kernels.  A trivial eigenspace is the
    unit ideal, which adds kernel 1.
    """
    certs = []
    if class_invariants is None and ideals:
        class_invariants = eigenspace_class_part(ideals)
        certs.append(("eigenspace_class_part",
                      (("invariants", class_invariants),)))
    if class_invariants is None:
        raise InsufficientData("no class part and no Fitting ideal supplied")
    inv = tuple(class_invariants)
    order = prod(inv)

    def verdict(kernel_order, kernel_invariants, status):
        return CapitulationVerdict(field, p, kernel_order, kernel_invariants,
                                   status, tuple(certs))

    if order == 1:
        certs.append(("trivial_class_part", ()))
        return verdict(1, (), "none")

    # 1. potential capitulation: orders must divide phi(n)/degree
    if isinstance(p, int):
        possible = potential_capitulation(p, field.conductor, field.degree)
        certs.append(("potential_capitulation",
                      (("conductor", field.conductor),
                       ("degree", field.degree), ("possible", possible))))
        if not possible:
            return verdict(1, (), "no-potential")

    # 2. parity obstruction for totally real fields at p = 2
    if p == 2 and field.kind in REAL_KINDS:
        rel = _euler_phi(field.conductor) // (2 * field.degree)
        frag = parity_obstruction(p, rel)
        if frag is not None:
            certs.append(_cert(frag))
            return verdict(1, (), "none")

    # 3. imaginary quadratic bounds and fixtures
    if field.kind == "quadratic-imaginary" and p in (2, "all"):
        frag = imaginary_bound(field, inv)
        certs.append(_cert(frag))
        fix = FIXTURES.get((field.kind, field.conductor))
        if frag["status"] != "undetermined":
            return verdict(frag["kernel_order"], frag["kernel_invariants"],
                           frag["status"])
        if fix is not None:
            certs.append((fix["rule"], tuple(fix["inputs"])))
            if fix["status"] == "full":
                return verdict(order, inv, "full")
        return verdict(frag["kernel_order"], frag["kernel_invariants"],
                       "undetermined")

    # 4. eigenspace computation (exact kernel of the direct sum)
    if ideals:
        modules = [capitulation_module(I) for I in ideals]
        kernel = prod(m.order for m in modules)
        kernel_inv = tuple(sorted(d for m in modules for d in m.invariants))
        certs.append(("eigenspace_kernel",
                      (("order", kernel), ("invariants", kernel_inv))))
        # maximal p-capitulation: every class with potential capitulation
        # (order dividing the p-part of phi(n)/degree) actually capitulates
        potential_exp = p_valuation(_euler_phi(field.conductor)
                                    // field.degree, p)
        potential = prod(_torsion_subgroup(inv, p**potential_exp))
        if kernel == potential and kernel > 1:
            certs.append(("maximal_capitulation",
                          (("potential_subgroup_order", potential),)))
        if all(maximal_capitulation(I) for I in ideals):
            certs.append(("cor3_full", ()))
        status = ("none" if kernel == 1 else "full" if kernel == order
                  else "partial")
        return verdict(kernel, kernel_inv, status)

    raise InsufficientData(
        "no rule certified a verdict and no Fitting ideal supplied"
    )
