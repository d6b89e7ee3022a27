"""Integer-programming formulations of both query variants, exported as
solver-agnostic LP text, plus assignment validation and a tiny exhaustive
reference solver used to cross-check the models.

No solver is embedded or invoked; the text is meant for external optimizers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Tuple

from .model import FamiliarityMode, MemberId, Query, SocialGraph, SpatialDataset, VenueId

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def _token(raw) -> str:
    token = str(raw)
    if not _NAME_RE.match(token):
        raise ValueError(f"id {raw!r} cannot be used in an LP variable name")
    return token


def _num(value: float) -> str:
    return f"{value:.17g}"


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: Tuple[Tuple[str, float], ...]
    sense: str  # "<=" or "="
    rhs: float

    def evaluate(self, values: Mapping[str, float]) -> float:
        return sum(c * values[var] for var, c in self.coeffs)

    def satisfied(self, values: Mapping[str, float], tol: float = 1e-6) -> bool:
        lhs = self.evaluate(values)
        if self.sense == "=":
            return abs(lhs - self.rhs) <= tol
        return lhs <= self.rhs + tol


@dataclass
class IlpModel:
    """Linear model with binary selection variables and continuous helpers.

    ``objective`` maps variable names to coefficients (minimization).
    Continuous variables are implicitly bounded below by zero.
    """

    objective: Dict[str, float]
    constraints: List[Constraint]
    binaries: Tuple[str, ...]
    continuous: Tuple[str, ...]
    member_vars: Dict[MemberId, str] = field(default_factory=dict)
    venue_vars: Dict[VenueId, str] = field(default_factory=dict)

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.binaries + self.continuous

    def lp_text(self) -> str:
        lines = ["Minimize"]
        terms = " + ".join(f"{_num(c)} {v}" for v, c in self.objective.items() if c != 0.0)
        lines.append(f" obj: {terms if terms else '0 ' + self.variables[0]}")
        lines.append("Subject To")
        for con in self.constraints:
            parts = []
            for var, coeff in con.coeffs:
                if coeff >= 0:
                    parts.append(f"+ {_num(coeff)} {var}")
                else:
                    parts.append(f"- {_num(-coeff)} {var}")
            body = " ".join(parts)
            lines.append(f" {con.name}: {body} {con.sense} {_num(con.rhs)}")
        lines.append("Bounds")
        for var in self.continuous:
            lines.append(f" 0 <= {var}")
        lines.append("Binary")
        for var in self.binaries:
            lines.append(f" {var}")
        lines.append("End")
        return "\n".join(lines) + "\n"


def _budget_rows(
    name: str, query: Query, members: List[MemberId], mu: Dict[MemberId, str]
) -> List[Constraint]:
    """The stranger-budget rows over ``mu``, each member's strangers in the
    group when it is selected: one aggregate row ``name``, their sum at most
    ``k*p``, in average mode, and one row ``mu[u] <= k`` per member in
    per-vertex mode."""
    k = query.k
    if query.familiarity_mode is FamiliarityMode.PER_VERTEX:
        return [
            Constraint(f"{name}_u{_token(u)}", ((mu[u], 1.0),), "<=", float(k)) for u in members
        ]
    return [Constraint(name, tuple((mu[u], 1.0) for u in members), "<=", float(k * query.p))]


def export_mrgq_model(query: Query, graph: SocialGraph, data: SpatialDataset) -> IlpModel:
    """Model choosing both the group and the venue.

    Objective: minimize the summed selected-member distances, carried by the
    per-member helper variables. Each ``mu`` variable is at least its
    member's strangers in the group when selected. The stranger budget
    follows the query's familiarity mode: a total of ``k*p`` across the group
    (row ``D``) in average mode, and ``k`` per member (rows ``D_u*``) in
    per-vertex mode.
    """
    p, t = query.p, query.t
    members = list(graph.vertices)
    venues = query.venues

    phi = {u: f"phi_u{_token(u)}" for u in members}
    pi = {q: f"pi_q{_token(q)}" for q in venues}
    mu = {u: f"mu_u{_token(u)}" for u in members}
    delta = {u: f"delta_u{_token(u)}" for u in members}

    constraints: List[Constraint] = []
    constraints.append(
        Constraint("A", tuple((phi[u], 1.0) for u in members), "=", float(p))
    )
    constraints.append(
        Constraint("B", tuple((pi[q], 1.0) for q in venues), "=", 1.0)
    )
    for u in members:
        coeffs = [(phi[u], float(p - 1))]
        coeffs.extend((phi[v], -1.0) for v in sorted(graph.neighbors(u)))
        coeffs.append((mu[u], -1.0))
        constraints.append(Constraint(f"C_u{_token(u)}", tuple(coeffs), "<=", 0.0))
    constraints.extend(_budget_rows("D", query, members, mu))
    for u in members:
        for q in venues:
            d = data.member_venue_distance(u, q)
            constraints.append(
                Constraint(
                    f"E_u{_token(u)}_q{_token(q)}",
                    ((phi[u], d), (pi[q], d), (delta[u], -1.0)),
                    "<=",
                    d,
                )
            )
    for u in members:
        constraints.append(Constraint(f"F_u{_token(u)}", ((delta[u], 1.0),), "<=", t))

    return IlpModel(
        objective={delta[u]: 1.0 for u in members},
        constraints=constraints,
        binaries=tuple(phi[u] for u in members) + tuple(pi[q] for q in venues),
        continuous=tuple(mu[u] for u in members) + tuple(delta[u] for u in members),
        member_vars=phi,
        venue_vars=pi,
    )


def export_ssgq_model(query: Query, graph: SocialGraph, data: SpatialDataset) -> IlpModel:
    """Single-venue model: the venue is fixed, so distances live in the
    objective. The stranger budget follows the query's familiarity mode, as
    in ``export_mrgq_model``: row ``J``, or rows ``J_u*``."""
    if not query.is_single_venue:
        raise ValueError("single-venue model requires exactly one venue")
    p, t = query.p, query.t
    venue = query.venues[0]
    members = list(graph.vertices)

    phi = {u: f"phi_u{_token(u)}" for u in members}
    mu = {u: f"mu_u{_token(u)}" for u in members}
    dist = {u: data.member_venue_distance(u, venue) for u in members}

    constraints: List[Constraint] = []
    constraints.append(
        Constraint("G", tuple((phi[u], 1.0) for u in members), "=", float(p))
    )
    for u in members:
        constraints.append(Constraint(f"H_u{_token(u)}", ((phi[u], dist[u]),), "<=", t))
    for u in members:
        coeffs = [(phi[u], float(p - 1))]
        coeffs.extend((phi[v], -1.0) for v in sorted(graph.neighbors(u)))
        coeffs.append((mu[u], -1.0))
        constraints.append(Constraint(f"I_u{_token(u)}", tuple(coeffs), "<=", 0.0))
    constraints.extend(_budget_rows("J", query, members, mu))

    return IlpModel(
        objective={phi[u]: dist[u] for u in members},
        constraints=constraints,
        binaries=tuple(phi[u] for u in members),
        continuous=tuple(mu[u] for u in members),
        member_vars=phi,
        venue_vars={venue: ""},
    )


def validate_assignment(
    model: IlpModel,
    values: Mapping[str, float],
    tol: float = 1e-6,
) -> Tuple[bool, List[str]]:
    """Check an assignment against every constraint; returns the violated names."""
    missing = [v for v in model.variables if v not in values]
    if missing:
        raise ValueError(f"assignment is missing variables: {missing[:5]!r}")
    violated = [con.name for con in model.constraints if not con.satisfied(values, tol)]
    return (not violated, violated)


def _forced_minima(model: IlpModel, values: Dict[str, float]) -> None:
    """Set each continuous variable to the smallest value permitted by the
    constraints in which it appears with a negative coefficient."""
    for var in model.continuous:
        lower = 0.0
        for con in model.constraints:
            coeff = dict(con.coeffs).get(var)
            if coeff is None or coeff >= 0:
                continue
            others = sum(c * values[v] for v, c in con.coeffs if v != var)
            # others + coeff*var <= rhs  =>  var >= (others - rhs) / -coeff
            lower = max(lower, (others - con.rhs) / -coeff)
        values[var] = lower


def enumerate_binary_optimum(
    model: IlpModel,
    tol: float = 1e-6,
) -> Optional[Tuple[float, Dict[str, float]]]:
    """Reference optimum by exhausting the binary assignments implied by the
    selection constraints: exactly p member variables (and one venue variable,
    when present) set to one. Continuous helpers take their forced minima.
    """
    member_vars = list(model.member_vars.values())
    venue_vars = [v for v in model.venue_vars.values() if v]
    p_con = next(c for c in model.constraints if c.name in ("A", "G"))
    p = round(p_con.rhs)

    best: Optional[Tuple[float, Dict[str, float]]] = None
    venue_choices = venue_vars if venue_vars else [None]
    for chosen_members in combinations(member_vars, p):
        chosen_set = set(chosen_members)
        for chosen_venue in venue_choices:
            values: Dict[str, float] = {}
            for v in member_vars:
                values[v] = 1.0 if v in chosen_set else 0.0
            for v in venue_vars:
                values[v] = 1.0 if v == chosen_venue else 0.0
            _forced_minima(model, values)
            ok, _ = validate_assignment(model, values, tol)
            if not ok:
                continue
            objective = sum(c * values[v] for v, c in model.objective.items())
            if best is None or objective < best[0] - tol:
                best = (objective, values)
    return best
