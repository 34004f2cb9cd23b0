//! # argus-transform — Appendix A syntactic transformations
//!
//! The paper's termination method requires rules in a certain form: no
//! positive use of equality, every subgoal unifiable with the heads of all
//! rules of its predicate, and mutual recursion only where essential. Its
//! Appendix A describes three transformations that establish this form:
//!
//! * **positive-equality elimination** — `r(Z) :- U = f(Z), p(U)` becomes
//!   `r(Z) :- p(f(Z))`;
//! * **predicate splitting** — when a subgoal `p(t̄)` cannot unify with the
//!   heads of some rules for `p`, split `p` into `p1` (non-unifying heads)
//!   and `p2` (unifying heads) with bridge rules `p(X̄) :- p1(X̄)` and
//!   `p(X̄) :- p2(X̄)`, specializing call sites where possible;
//! * **safe unfolding** — when no rule for `p` has `p` as a subgoal,
//!   resolve every `p` subgoal away, removing `p` from its SCC.
//!
//! [`transform_fixed_phases`] runs the alternating driver the paper
//! recommends ("alternate phases of safe unfolding and predicate splitting,
//! and halt after a fixed number of phases, say 3 of each").

#![warn(missing_docs)]

pub mod magic;

pub use magic::{magic_rewrite, MagicProgram};

use argus_logic::program::{Atom, Literal, PredKey, Program, Rule};
use argus_logic::term::Term;
use argus_logic::unify::{mgu, unify_atoms, Subst};
use argus_logic::DepGraph;
use std::collections::BTreeSet;

/// Eliminate positive `=`/2 subgoals by applying their most general
/// unifiers. Rules whose equality subgoal cannot unify are dropped (they
/// can never succeed past it). Negative equalities (`\+ X = Y`, `\=`) are
/// left untouched.
pub fn eliminate_equality(program: &Program) -> Program {
    let mut out = Vec::new();
    'rules: for rule in &program.rules {
        let mut rule = rule.clone();
        loop {
            let pos = rule
                .body
                .iter()
                .position(|l| l.positive && &*l.atom.name == "=" && l.atom.args.len() == 2);
            let Some(i) = pos else { break };
            let lhs = rule.body[i].atom.args[0].clone();
            let rhs = rule.body[i].atom.args[1].clone();
            match mgu(&lhs, &rhs, true) {
                None => continue 'rules, // equality can never hold: drop rule
                Some(s) => {
                    rule.body.remove(i);
                    rule = apply_subst_rule(&s, &rule);
                }
            }
        }
        out.push(rule);
    }
    Program::from_rules(out)
}

fn apply_subst_rule(s: &Subst, rule: &Rule) -> Rule {
    Rule {
        head: s.resolve_atom(&rule.head),
        body: rule
            .body
            .iter()
            .map(|l| Literal { atom: s.resolve_atom(&l.atom), positive: l.positive, span: l.span })
            .collect(),
        span: rule.span,
    }
}

/// A fresh most-general atom `p(V1, …, Vn)` for bridge rules.
fn most_general_atom(name: &str, arity: usize) -> Atom {
    Atom::new(name, (0..arity).map(|i| Term::var(format!("V{i}"))).collect())
}

/// One step of predicate splitting, if applicable: find a positive subgoal
/// `p(t̄)` of an IDB predicate that fails to unify with the head of at least
/// one rule for `p` (while unifying with at least one — otherwise the
/// subgoal is dead), and split `p`. Returns `None` when no such subgoal
/// exists.
///
/// Following the paper: heads not unifying with `p(t̄)` are renamed to a
/// fresh `p1`-like predicate, unifying heads to `p2`; bridge rules are
/// added; every `p` subgoal in the program is specialized to `p1`/`p2`
/// when it unifies with heads of only one of the parts.
pub fn split_step(program: &Program, counter: &mut usize) -> Option<Program> {
    let idb = program.idb_predicates();
    // Find a splitting witness.
    let mut witness: Option<(PredKey, Atom)> = None;
    'search: for rule in &program.rules {
        for lit in &rule.body {
            let key = lit.atom.key();
            if !idb.contains(&key) {
                continue;
            }
            let procedure = program.procedure(&key);
            if procedure.len() < 2 {
                continue;
            }
            let unifying = procedure.iter().filter(|r| heads_unify(&lit.atom, &r.head)).count();
            if unifying > 0 && unifying < procedure.len() {
                witness = Some((key, lit.atom.clone()));
                break 'search;
            }
        }
    }
    let (pred, goal) = witness?;

    *counter += 1;
    let n1 = format!("{}__s{}a", pred.name, counter);
    let n2 = format!("{}__s{}b", pred.name, counter);

    // Partition and rename heads.
    let mut out: Vec<Rule> = Vec::new();
    for rule in &program.rules {
        if rule.head.key() == pred {
            let target = if heads_unify(&goal, &rule.head) { &n2 } else { &n1 };
            let mut r = rule.clone();
            r.head = Atom::new(target, r.head.args.clone());
            out.push(r);
        } else {
            out.push(rule.clone());
        }
    }
    // Bridge rules.
    let bridge_head = most_general_atom(&pred.name, pred.arity);
    out.push(Rule::new(
        bridge_head.clone(),
        vec![Literal::pos(Atom::new(&n1, bridge_head.args.clone()))],
    ));
    out.push(Rule::new(
        bridge_head.clone(),
        vec![Literal::pos(Atom::new(&n2, bridge_head.args.clone()))],
    ));

    // Specialize call sites. Heads of the two parts:
    let part_heads = |prog: &Vec<Rule>, name: &str| -> Vec<Atom> {
        prog.iter()
            .filter(|r| &*r.head.name == name && r.head.args.len() == pred.arity)
            .map(|r| r.head.clone())
            .collect()
    };
    let heads1 = part_heads(&out, &n1);
    let heads2 = part_heads(&out, &n2);
    for rule in out.iter_mut() {
        // Do not specialize inside the bridge rules themselves.
        if *rule.head.name == *pred.name && rule.head.args.len() == pred.arity {
            continue;
        }
        for lit in rule.body.iter_mut() {
            if lit.atom.key() != pred {
                continue;
            }
            let u1 = heads1.iter().any(|h| args_unify(&lit.atom, h));
            let u2 = heads2.iter().any(|h| args_unify(&lit.atom, h));
            match (u1, u2) {
                (true, false) => lit.atom.name = argus_logic::Sym::new(n1.as_str()),
                (false, true) => lit.atom.name = argus_logic::Sym::new(n2.as_str()),
                _ => {}
            }
        }
    }
    Some(Program::from_rules(out))
}

/// Does the subgoal atom unify with a (renamed-apart) rule head?
fn heads_unify(goal: &Atom, head: &Atom) -> bool {
    let renamed = head.rename_suffix("__h");
    unify_atoms(&mut Subst::new(), goal, &renamed, true)
}

/// Do the argument vectors unify, ignoring the predicate names? Used when
/// specializing a `p` call site against the renamed `p1`/`p2` heads.
fn args_unify(goal: &Atom, head: &Atom) -> bool {
    if goal.args.len() != head.args.len() {
        return false;
    }
    let renamed = head.rename_suffix("__h");
    let mut s = Subst::new();
    goal.args
        .iter()
        .zip(renamed.args.iter())
        .all(|(a, b)| argus_logic::unify::unify(&mut s, a, b, true))
}

/// Most resolvents one unfold step may be estimated to create. Unfolding
/// is cartesian (each host rule yields `|proc(p)|^occurrences` resolvents),
/// so without a budget a mutual-recursion ring whose rules make several
/// calls to the next member explodes doubly-exponentially across rounds.
/// Skipped candidates simply stay folded — the analysis is still sound on
/// the untransformed SCC, exactly as for directly self-recursive predicates.
const UNFOLD_GROWTH_BUDGET: u64 = 256;

/// One step of safe unfolding, if applicable.
///
/// A predicate `p` is *safely unfoldable* when it has rules, no rule for
/// `p` has a `p` subgoal (no direct self-recursion), `p` occurs as a
/// positive subgoal somewhere, never occurs as a negative subgoal (negation
/// cannot be unfolded by resolution), and `p` is not among `protect`
/// (query/entry predicates must keep their definitions). Unfolding resolves
/// every positive `p` subgoal against every rule for `p` — capped by
/// [`UNFOLD_GROWTH_BUDGET`] so dense mutual rings cannot blow up the
/// program. If afterwards `p` is unreferenced, its rules are discarded.
pub fn unfold_step(program: &Program, protect: &BTreeSet<PredKey>) -> Option<Program> {
    let graph = DepGraph::build(program);
    let idb = program.idb_predicates();

    // Candidates, preferring predicates inside mutual-recursion SCCs (the
    // paper's motivation: shrink SCCs); fall back to any eligible one that
    // actually simplifies the program structure.
    let mut candidates: Vec<&PredKey> = idb
        .iter()
        .filter(|p| {
            // Protected (root) predicates may still be unfolded at their
            // call sites; protection only prevents deleting their rules.
            // No direct self-recursion.
            let self_rec =
                program.procedure(p).iter().any(|r| r.body.iter().any(|l| l.atom.key() == **p));
            if self_rec {
                return false;
            }
            let mut pos_occurs = false;
            for r in &program.rules {
                for l in &r.body {
                    if l.atom.key() == **p {
                        if !l.positive {
                            return false;
                        }
                        pos_occurs = true;
                    }
                }
            }
            if !pos_occurs {
                return false;
            }
            // Affordability: resolving every occurrence against every rule
            // for `p` multiplies clauses — a host rule with k positive `p`
            // subgoals becomes |proc(p)|^k resolvents. On many-call mutual
            // rings that is exponential across unfold rounds, so candidates
            // whose resolvent estimate exceeds the budget are skipped.
            let nrules = program.procedure(p).len() as u64;
            let mut est: u64 = 0;
            for r in &program.rules {
                if r.head.key() == **p {
                    continue;
                }
                let occ =
                    r.body.iter().filter(|l| l.positive && l.atom.key() == **p).count() as u32;
                if occ > 0 {
                    est = est.saturating_add(nrules.saturating_pow(occ));
                    if est > UNFOLD_GROWTH_BUDGET {
                        return false;
                    }
                }
            }
            true
        })
        .collect();
    // Prefer members of nontrivial SCCs: unfolding them shrinks the SCC,
    // which is the termination argument for repeated application.
    candidates.sort_by_key(|p| {
        let in_mutual = graph.scc_id(p).map(|id| graph.scc_is_mutual(id)).unwrap_or(false);
        if in_mutual {
            0
        } else {
            1
        }
    });
    let pred = candidates
        .into_iter()
        .find(|p| graph.scc_id(p).map(|id| graph.scc_is_mutual(id)).unwrap_or(false))?
        .clone();

    Some(unfold_predicate(program, &pred, protect))
}

/// Unfold all positive occurrences of `pred` (which must be safely
/// unfoldable) and drop its rules if it becomes unreferenced.
pub fn unfold_predicate(program: &Program, pred: &PredKey, protect: &BTreeSet<PredKey>) -> Program {
    let procedure: Vec<Rule> = program.procedure(pred).into_iter().cloned().collect();
    let mut out: Vec<Rule> = Vec::new();
    let mut fresh = 0usize;

    for rule in &program.rules {
        if &rule.head.key() == pred {
            out.push(rule.clone()); // kept for now; maybe dropped below
            continue;
        }
        // Expand the first positive occurrence of pred; repeat until none.
        let mut pending = vec![rule.clone()];
        let mut done: Vec<Rule> = Vec::new();
        while let Some(r) = pending.pop() {
            let occ = r.body.iter().position(|l| l.positive && &l.atom.key() == pred);
            let Some(i) = occ else {
                done.push(r);
                continue;
            };
            let r_vars: std::collections::BTreeSet<_> = r.vars().into_iter().collect();
            for prule in &procedure {
                // Rename the resolving rule apart, retrying until its fresh
                // variables are disjoint from the target rule's (the target
                // may already contain `__uN` names from earlier unfolds).
                let prule = loop {
                    fresh += 1;
                    let candidate = prule.rename_suffix(&format!("__u{fresh}"));
                    if candidate.vars().iter().all(|v| !r_vars.contains(v)) {
                        break candidate;
                    }
                };
                let mut s = Subst::new();
                if !unify_atoms(&mut s, &r.body[i].atom, &prule.head, true) {
                    continue;
                }
                let mut body = Vec::new();
                body.extend_from_slice(&r.body[..i]);
                body.extend_from_slice(&prule.body);
                body.extend_from_slice(&r.body[i + 1..]);
                let new_rule =
                    apply_subst_rule(&s, &Rule { head: r.head.clone(), body, span: r.span });
                pending.push(new_rule);
            }
        }
        out.extend(done);
    }

    // Discard pred's own rules if nothing references it anymore.
    let referenced = protect.contains(pred)
        || out
            .iter()
            .filter(|r| &r.head.key() != pred)
            .any(|r| r.body.iter().any(|l| &l.atom.key() == pred));
    if !referenced {
        out.retain(|r| &r.head.key() != pred);
    }
    Program::from_rules(out)
}

/// Drop rules for IDB predicates that are unreachable from `roots` through
/// positive or negative subgoals.
pub fn drop_unreachable(program: &Program, roots: &BTreeSet<PredKey>) -> Program {
    let mut reach: BTreeSet<PredKey> = roots.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for rule in &program.rules {
            if reach.contains(&rule.head.key()) {
                for l in &rule.body {
                    if reach.insert(l.atom.key()) {
                        changed = true;
                    }
                }
            }
        }
    }
    Program::from_rules(
        program.rules.iter().filter(|r| reach.contains(&r.head.key())).cloned().collect(),
    )
}

/// Report of a full preprocessing run.
#[derive(Debug, Clone, Default)]
pub struct TransformReport {
    /// Number of unfolding phases that changed the program.
    pub unfold_phases: usize,
    /// Number of splitting phases that changed the program.
    pub split_phases: usize,
}

/// The driver recommended by the paper: eliminate positive equality, then
/// alternate safe unfolding and predicate splitting for at most `phases`
/// rounds of each (the paper suggests 3), finally dropping rules
/// unreachable from `roots`.
pub fn transform_fixed_phases(
    program: &Program,
    roots: &BTreeSet<PredKey>,
    phases: usize,
) -> (Program, TransformReport) {
    let mut cur = eliminate_equality(program);
    let mut report = TransformReport::default();
    let mut counter = 0usize;
    for _ in 0..phases {
        let mut changed = false;
        // Safe unfolding until it no longer applies.
        while let Some(next) = unfold_step(&cur, roots) {
            if next == cur {
                break;
            }
            cur = next;
            changed = true;
            report.unfold_phases += 1;
        }
        // One exhaustive splitting pass.
        let mut split_changed = false;
        while let Some(next) = split_step(&cur, &mut counter) {
            cur = next;
            split_changed = true;
        }
        if split_changed {
            report.split_phases += 1;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    cur = drop_unreachable(&cur, roots);
    (cur, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_logic::parser::parse_program;

    fn roots(specs: &[(&str, usize)]) -> BTreeSet<PredKey> {
        specs.iter().map(|(n, a)| PredKey::new(*n, *a)).collect()
    }

    #[test]
    fn equality_elimination_paper_example() {
        // r(Z) :- U = f(Z), p(U)  ==>  r(Z) :- p(f(Z)).
        let p = parse_program("r(Z) :- U = f(Z), p(U).").unwrap();
        let out = eliminate_equality(&p);
        assert_eq!(out.rules.len(), 1);
        assert_eq!(out.rules[0].to_string(), "r(Z) :- p(f(Z)).");
    }

    #[test]
    fn equality_elimination_drops_impossible_rules() {
        let p = parse_program("r(Z) :- a = b, p(Z).\nr(Z) :- q(Z).").unwrap();
        let out = eliminate_equality(&p);
        assert_eq!(out.rules.len(), 1);
        assert_eq!(&*out.rules[0].body[0].atom.name, "q");
    }

    #[test]
    fn equality_elimination_keeps_negative_equality() {
        let p = parse_program("r(Z) :- \\+ Z = a, p(Z).").unwrap();
        let out = eliminate_equality(&p);
        assert_eq!(out.rules[0].body.len(), 2);
    }

    #[test]
    fn splitting_appendix_example() {
        // Appendix A's p/q/r example: subgoal p(f(Z)) does not unify with
        // p(a), so p splits.
        let p = parse_program(
            "p(a).\n\
             p(X) :- q(X, Y), p(Y).\n\
             r(Z) :- p(f(Z)).",
        )
        .unwrap();
        let mut counter = 0;
        let out = split_step(&p, &mut counter).expect("splitting applies");
        // p now has exactly the two bridge rules.
        let bridge: Vec<_> = out.procedure(&PredKey::new("p", 1));
        assert_eq!(bridge.len(), 2);
        assert!(bridge.iter().all(|r| r.body.len() == 1));
        // r's subgoal is specialized to the unifying part.
        let r = out.procedure(&PredKey::new("r", 1))[0];
        assert_ne!(&*r.body[0].atom.name, "p");
        assert!(r.body[0].atom.name.contains("__s1"));
        // And splitting no longer applies... the recursive p(Y) subgoal is
        // most general so it unifies with both parts and stays `p`.
        assert!(split_step(&out, &mut counter).is_none());
    }

    #[test]
    fn splitting_not_applicable_when_all_unify() {
        let p = parse_program("p([]).\np([X|Xs]) :- p(Xs).\nr(Z) :- p(Z).").unwrap();
        let mut counter = 0;
        assert!(split_step(&p, &mut counter).is_none());
    }

    #[test]
    fn safe_unfolding_removes_mutual_recursion() {
        // q :- p; p defined without self-recursion through q... the
        // appendix A.1 shape: p and q mutually recursive, p unfoldable.
        let p = parse_program(
            "p(g(X)) :- e(X).\n\
             p(g(X)) :- q(f(X)).\n\
             q(Y) :- p(Y).\n\
             q(f(Z)) :- p(Z), q(Z).",
        )
        .unwrap();
        let out = unfold_predicate(&p, &PredKey::new("p", 1), &roots(&[("p", 1)]));
        // Matches the appendix's displayed result: q's rules become
        // self-contained (no p subgoals in q rules).
        for r in out.procedure(&PredKey::new("q", 1)) {
            assert!(r.body.iter().all(|l| &*l.atom.name != "p"), "q rule still mentions p: {r}");
        }
        // p's own rules survive (p is protected as a root).
        assert!(!out.procedure(&PredKey::new("p", 1)).is_empty());
        let graph = DepGraph::build(&out);
        assert!(!graph.same_scc(&PredKey::new("p", 1), &PredKey::new("q", 1)));
    }

    #[test]
    fn unfold_drops_unreferenced_helper() {
        let p = parse_program(
            "top(X) :- helper(X).\n\
             helper(a).\n\
             helper(b).",
        )
        .unwrap();
        let out = unfold_predicate(&p, &PredKey::new("helper", 1), &roots(&[("top", 1)]));
        assert!(out.procedure(&PredKey::new("helper", 1)).is_empty());
        assert_eq!(out.procedure(&PredKey::new("top", 1)).len(), 2);
    }

    #[test]
    fn unfolding_respects_negative_occurrences() {
        // helper occurs negatively: unfold_step must not choose it.
        let p = parse_program(
            "a(X) :- b(X).\n\
             b(X) :- \\+ helper(X), a(X).\n\
             helper(c).",
        )
        .unwrap();
        // a and b are mutually recursive; helper occurs only negatively.
        let step = unfold_step(&p, &roots(&[("a", 1)]));
        if let Some(out) = step {
            // If anything was unfolded it must not be helper.
            assert!(!out.procedure(&PredKey::new("helper", 1)).is_empty());
        }
    }

    #[test]
    fn unfold_skips_candidates_over_growth_budget() {
        // A 3-predicate mutual ring where each rule makes 4 calls to the
        // next member: unfolding any member would create 5^4 = 625 > 256
        // resolvents per host rule (and the next round 5^16), so the budget
        // must reject every candidate and the driver must terminate with
        // the ring intact rather than exploding.
        let src = argus_corpus::find("mutual_fib_ring").unwrap().source;
        let p = parse_program(src).unwrap();
        let roots = roots(&[("f0", 2)]);
        assert!(unfold_step(&p, &roots).is_none(), "budget should veto all ring members");
        let (out, _) = transform_fixed_phases(&p, &roots, 3);
        assert!(!out.procedure(&PredKey::new("f1", 2)).is_empty());
        assert!(!out.procedure(&PredKey::new("f2", 2)).is_empty());
    }

    #[test]
    fn full_driver_on_appendix_a1() {
        // Example A.1: after safe unfolding + splitting + unfolding, the
        // program exposes that p is not genuinely recursive.
        let p = parse_program(
            "p(g(X)) :- e(X).\n\
             p(g(X)) :- q(f(X)).\n\
             q(Y) :- p(Y).\n\
             q(f(Z)) :- p(Z), q(Z).",
        )
        .unwrap();
        let (out, report) = transform_fixed_phases(&p, &roots(&[("p", 1)]), 3);
        assert!(report.unfold_phases > 0);
        let graph = DepGraph::build(&out);
        // p must no longer be recursive (directly or mutually).
        assert!(
            !graph.is_recursive(&PredKey::new("p", 1)),
            "p should be exposed as nonrecursive:\n{out}"
        );
    }

    #[test]
    fn drop_unreachable_keeps_roots_closure() {
        let p = parse_program("a(X) :- b(X).\nb(c).\nunrelated(d).").unwrap();
        let out = drop_unreachable(&p, &roots(&[("a", 1)]));
        assert_eq!(out.rules.len(), 2);
        assert!(out.procedure(&PredKey::new("unrelated", 1)).is_empty());
    }

    #[test]
    fn driver_is_identity_on_clean_programs() {
        let p = parse_program(
            "append([], Ys, Ys).\n\
             append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
        )
        .unwrap();
        let (out, report) = transform_fixed_phases(&p, &roots(&[("append", 3)]), 3);
        assert_eq!(out, p);
        assert_eq!(report.unfold_phases, 0);
        assert_eq!(report.split_phases, 0);
    }
}
