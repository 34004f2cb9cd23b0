//! An iterative, trail-based SLD machine.
//!
//! The reference interpreter in [`crate::sld`] clones the substitution at
//! every unification step and recurses on the goal list — simple, obviously
//! correct, and the oracle for this module. The machine here is the
//! engine a real system would use:
//!
//! * **shared bindings + trail**: unification binds variables in one
//!   mutable store and records each binding on a trail; backtracking pops
//!   the trail instead of copying substitutions (O(undo) instead of
//!   O(store));
//! * **persistent goal lists**: continuations are `Arc`-linked cons cells,
//!   so a choice point captures its continuation in O(1);
//! * **explicit choice-point stack**: no host-stack recursion, so
//!   derivation depth is bounded by memory and the step budget, not the
//!   call stack.
//!
//! Results are bit-for-bit identical to [`crate::sld::solve`] (same
//! solution order — textual clause order, depth-first), which the tests
//! and the equivalence property test assert.

use crate::sld::{InterpOptions, Outcome};
use argus_logic::program::{Literal, ProcIndex, Program};
use argus_logic::term::Term;
use argus_logic::unify::Subst;
use argus_logic::Sym;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A persistent goal list.
enum Goals {
    Nil,
    Cons(Literal, Arc<Goals>),
}

impl Goals {
    fn cons(lit: Literal, rest: Arc<Goals>) -> Arc<Goals> {
        Arc::new(Goals::Cons(lit, rest))
    }

    fn from_slice(goals: &[Literal], tail: Arc<Goals>) -> Arc<Goals> {
        goals.iter().rev().fold(tail, |acc, g| Goals::cons(g.clone(), acc))
    }
}

/// Mutable binding store with a trail for O(1) backtracking.
struct Store {
    /// Shared substitution; variables are bound at most once between undo
    /// points (bind only ever targets unbound root variables).
    subst: Subst,
    trail: Vec<Sym>,
}

impl Store {
    fn new() -> Store {
        Store { subst: Subst::new(), trail: Vec::new() }
    }

    fn mark(&self) -> usize {
        self.trail.len()
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail");
            self.subst.unbind(v);
        }
    }

    /// Unify under the store, trailing new bindings. On failure the caller
    /// must undo to its mark (partial bindings may have been trailed).
    fn unify(&mut self, a: &Term, b: &Term, occurs_check: bool) -> bool {
        let ra = self.subst.walk(a).clone();
        let rb = self.subst.walk(b).clone();
        match (&ra, &rb) {
            (Term::Var(v), Term::Var(w)) if v == w => true,
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                if occurs_check && self.occurs(*v, t) {
                    return false;
                }
                self.subst.bind(*v, t.clone());
                self.trail.push(*v);
                true
            }
            (Term::App(f, fa), Term::App(g, ga)) => {
                if f != g || fa.len() != ga.len() {
                    return false;
                }
                fa.iter().zip(ga.iter()).all(|(x, y)| self.unify(x, y, occurs_check))
            }
        }
    }

    fn occurs(&self, v: Sym, t: &Term) -> bool {
        match self.subst.walk(t) {
            Term::Var(w) => *w == v,
            Term::App(_, args) => {
                let args = args.clone();
                args.iter().any(|a| self.occurs(v, a))
            }
        }
    }
}

/// A choice point: retry `goal` with clause `next_clause` and continuation
/// `rest` after undoing the trail to `mark`.
struct Choice {
    goal: Literal,
    rest: Arc<Goals>,
    next_clause: usize,
    mark: usize,
}

struct Machine<'p> {
    program: &'p Program,
    index: ProcIndex,
    options: InterpOptions,
    store: Store,
    choices: Vec<Choice>,
    steps: u64,
    rename_counter: u64,
}

enum Step {
    Continue(Arc<Goals>),
    Fail,
    Budget,
}

/// Run `goals` with the trail-based machine. Produces the same [`Outcome`]
/// as [`crate::sld::solve`], in the same order.
pub fn solve_iterative(program: &Program, goals: &[Literal], options: &InterpOptions) -> Outcome {
    let mut query_vars: Vec<Sym> = Vec::new();
    {
        let mut seen = std::collections::BTreeSet::new();
        for g in goals {
            for v in g.atom.vars() {
                if seen.insert(v) {
                    query_vars.push(v);
                }
            }
        }
    }
    let mut m = Machine {
        program,
        index: ProcIndex::build(program),
        options: options.clone(),
        store: Store::new(),
        choices: Vec::new(),
        steps: 0,
        rename_counter: 0,
    };
    let mut solutions: Vec<BTreeMap<String, Term>> = Vec::new();

    let mut current = Goals::from_slice(goals, Arc::new(Goals::Nil));
    let budget_hit = 'run: loop {
        match &*current {
            Goals::Nil => {
                // A solution: read off the query variables.
                solutions.push(
                    query_vars
                        .iter()
                        .map(|v| (v.to_string(), m.store.subst.resolve(&Term::Var(*v))))
                        .collect(),
                );
                if solutions.len() >= m.options.max_solutions {
                    break 'run false;
                }
                match m.backtrack() {
                    Some(next) => current = next,
                    None => break 'run false,
                }
            }
            Goals::Cons(first, rest) => {
                let first = first.clone();
                let rest = rest.clone();
                match m.step(&first, &rest) {
                    Step::Continue(next) => current = next,
                    Step::Fail => match m.backtrack() {
                        Some(next) => current = next,
                        None => break 'run false,
                    },
                    Step::Budget => break 'run true,
                }
            }
        }
        if m.choices.len() > m.options.max_depth * 64 {
            // Memory guard analogous to the reference engine's depth cap.
            break 'run true;
        }
    };

    if budget_hit {
        Outcome::OutOfBudget { steps: m.steps, solutions_so_far: solutions.len() }
    } else {
        Outcome::Completed { solutions, steps: m.steps }
    }
}

impl<'p> Machine<'p> {
    /// Take one step, or refuse it (uncounted) once `max_steps` are spent.
    fn tick(&mut self) -> bool {
        if self.steps >= self.options.max_steps {
            return false;
        }
        self.steps += 1;
        true
    }

    /// Resolve one goal. Returns the next goal list, Fail, or Budget.
    fn step(&mut self, goal: &Literal, rest: &Arc<Goals>) -> Step {
        if !goal.positive {
            // Negation as failure via a nested bounded machine on the
            // current instantiation of the atom.
            if !self.tick() {
                return Step::Budget;
            }
            let resolved = self.store.subst.resolve_atom(&goal.atom);
            let sub_options = InterpOptions {
                max_solutions: 1,
                max_steps: self.options.max_steps.saturating_sub(self.steps),
                ..self.options.clone()
            };
            let sub = solve_iterative(self.program, &[Literal::pos(resolved)], &sub_options);
            self.steps += sub.steps();
            match sub {
                Outcome::OutOfBudget { .. } => return Step::Budget,
                Outcome::Completed { solutions, .. } => {
                    if solutions.is_empty() {
                        return Step::Continue(rest.clone());
                    }
                    return Step::Fail;
                }
            }
        }

        let key = goal.atom.key();
        if key.arity == 2 {
            match &*key.name {
                "=" => {
                    if !self.tick() {
                        return Step::Budget;
                    }
                    let mark = self.store.mark();
                    if self.store.unify(
                        &goal.atom.args[0],
                        &goal.atom.args[1],
                        self.options.occurs_check,
                    ) {
                        return Step::Continue(rest.clone());
                    }
                    self.store.undo_to(mark);
                    return Step::Fail;
                }
                "\\=" => {
                    if !self.tick() {
                        return Step::Budget;
                    }
                    let mark = self.store.mark();
                    let unifies = self.store.unify(
                        &goal.atom.args[0],
                        &goal.atom.args[1],
                        self.options.occurs_check,
                    );
                    self.store.undo_to(mark);
                    return if unifies { Step::Fail } else { Step::Continue(rest.clone()) };
                }
                "==" | "\\==" => {
                    if !self.tick() {
                        return Step::Budget;
                    }
                    let a = self.store.subst.resolve(&goal.atom.args[0]);
                    let b = self.store.subst.resolve(&goal.atom.args[1]);
                    let want = &*key.name == "==";
                    return if (a == b) == want {
                        Step::Continue(rest.clone())
                    } else {
                        Step::Fail
                    };
                }
                "<" | ">" | "=<" | ">=" => {
                    if !self.tick() {
                        return Step::Budget;
                    }
                    let (Some(a), Some(b)) =
                        (self.eval_arith(&goal.atom.args[0]), self.eval_arith(&goal.atom.args[1]))
                    else {
                        return Step::Fail;
                    };
                    let ok = match &*key.name {
                        "<" => a < b,
                        ">" => a > b,
                        "=<" => a <= b,
                        _ => a >= b,
                    };
                    return if ok { Step::Continue(rest.clone()) } else { Step::Fail };
                }
                "is" => {
                    if !self.tick() {
                        return Step::Budget;
                    }
                    let Some(v) = self.eval_arith(&goal.atom.args[1]) else {
                        return Step::Fail;
                    };
                    let mark = self.store.mark();
                    if self.store.unify(
                        &goal.atom.args[0],
                        &Term::int(v),
                        self.options.occurs_check,
                    ) {
                        return Step::Continue(rest.clone());
                    }
                    self.store.undo_to(mark);
                    return Step::Fail;
                }
                _ => {}
            }
        }

        // User predicate: open a choice point at clause 0.
        self.try_clauses(goal, rest, 0)
    }

    /// Try clauses for `goal` starting at `from`, installing a choice point
    /// for the remaining alternatives.
    fn try_clauses(&mut self, goal: &Literal, rest: &Arc<Goals>, from: usize) -> Step {
        let key = goal.atom.key();
        let clauses: Vec<_> = self.index.procedure(self.program, &key);
        for idx in from..clauses.len() {
            if !self.tick() {
                return Step::Budget;
            }
            let mark = self.store.mark();
            self.rename_counter += 1;
            let renamed = clauses[idx].rename_suffix(&format!("_m{}", self.rename_counter));
            let head_ok = goal
                .atom
                .args
                .iter()
                .zip(renamed.head.args.iter())
                .all(|(a, b)| self.store.unify(a, b, self.options.occurs_check));
            if !head_ok {
                self.store.undo_to(mark);
                continue;
            }
            if idx + 1 < clauses.len() {
                self.choices.push(Choice {
                    goal: goal.clone(),
                    rest: rest.clone(),
                    next_clause: idx + 1,
                    mark,
                });
            }
            return Step::Continue(Goals::from_slice(&renamed.body, rest.clone()));
        }
        Step::Fail
    }

    /// Pop to the most recent choice point and resume there.
    fn backtrack(&mut self) -> Option<Arc<Goals>> {
        loop {
            let choice = self.choices.pop()?;
            self.store.undo_to(choice.mark);
            match self.try_clauses(&choice.goal, &choice.rest, choice.next_clause) {
                Step::Continue(next) => return Some(next),
                Step::Fail => continue,
                Step::Budget => return None, // budget surfaced by main loop on next tick
            }
        }
    }

    fn eval_arith(&self, t: &Term) -> Option<i64> {
        fn eval(s: &Subst, t: &Term) -> Option<i64> {
            match s.walk(t) {
                Term::Var(_) => None,
                Term::App(f, args) if args.is_empty() => f.parse::<i64>().ok(),
                Term::App(f, args) if args.len() == 2 => {
                    let a = eval(s, &args[0])?;
                    let b = eval(s, &args[1])?;
                    match &**f {
                        "+" => a.checked_add(b),
                        "-" => a.checked_sub(b),
                        "*" => a.checked_mul(b),
                        "//" => {
                            if b == 0 {
                                None
                            } else {
                                a.checked_div(b)
                            }
                        }
                        _ => None,
                    }
                }
                _ => None,
            }
        }
        eval(&self.store.subst, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sld::solve;
    use argus_logic::parser::{parse_program, parse_query};

    fn both(src: &str, query: &str) -> (Outcome, Outcome) {
        let p = parse_program(src).unwrap();
        let goals = parse_query(query).unwrap();
        let opts = InterpOptions::default();
        (solve(&p, &goals, &opts), solve_iterative(&p, &goals, &opts))
    }

    /// The two engines must produce the same solutions in the same order.
    fn assert_equivalent(src: &str, query: &str) {
        let (reference, machine) = both(src, query);
        match (&reference, &machine) {
            (Outcome::Completed { solutions: a, .. }, Outcome::Completed { solutions: b, .. }) => {
                // Solutions are compared modulo variable renaming of
                // internal fresh names: resolve to display strings with
                // fresh suffixes normalized away by comparing shapes.
                let norm = |sols: &[BTreeMap<String, Term>]| -> Vec<String> {
                    sols.iter()
                        .map(|m| {
                            m.iter()
                                .map(|(k, v)| {
                                    let mut s = format!("{k}={v}");
                                    // normalize fresh-var suffixes
                                    for marker in ["_r", "_m"] {
                                        while let Some(pos) = s.find(marker) {
                                            let end = s[pos + marker.len()..]
                                                .find(|c: char| !c.is_ascii_digit())
                                                .map(|e| pos + marker.len() + e)
                                                .unwrap_or(s.len());
                                            s.replace_range(pos..end, "_fresh");
                                        }
                                    }
                                    s
                                })
                                .collect::<Vec<_>>()
                                .join(",")
                        })
                        .collect()
                };
                assert_eq!(norm(a), norm(b), "{src} ?- {query}");
            }
            (Outcome::OutOfBudget { .. }, Outcome::OutOfBudget { .. }) => {}
            other => panic!("engines disagree on {query}: {other:?}"),
        }
    }

    #[test]
    fn equivalent_on_classics() {
        let append = "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).";
        assert_equivalent(append, "append([a, b], [c], Z)");
        assert_equivalent(append, "append(X, Y, [a, b, c])");
        assert_equivalent(append, "append(X, Y, [])");

        let perm = "perm([], []).\n\
                    perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).\n\
                    append([], Ys, Ys).\n\
                    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).";
        assert_equivalent(perm, "perm([a, b, c], Q)");

        let merge = "merge([], Ys, Ys).\n\
                     merge(Xs, [], Xs).\n\
                     merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).\n\
                     merge([X|Xs], [Y|Ys], [Y|Zs]) :- Y =< X, merge(Ys, [X|Xs], Zs).";
        assert_equivalent(merge, "merge([1, 3], [2, 4], Z)");
    }

    #[test]
    fn equivalent_on_builtins() {
        assert_equivalent("", "X = f(Y), Y = a");
        assert_equivalent("", "3 < 5, 1 =< 1");
        assert_equivalent("", "a \\= b");
        assert_equivalent(
            "len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.",
            "len([a, b, c], N)",
        );
    }

    #[test]
    fn equivalent_on_negation() {
        let src = "p(a).\nq(X) :- \\+ p(X).";
        assert_equivalent(src, "q(a)");
        assert_equivalent(src, "q(b)");
    }

    #[test]
    fn budget_stops_loops() {
        let p = parse_program("p(X) :- p(X).").unwrap();
        let goals = parse_query("p(a)").unwrap();
        let out = solve_iterative(
            &p,
            &goals,
            &InterpOptions { max_steps: 1000, ..InterpOptions::default() },
        );
        assert!(!out.terminated());
    }

    #[test]
    fn deep_derivations_no_stack_overflow() {
        // 4000-deep derivation: an order of magnitude beyond the reference
        // engine's goal-depth cap (400). The machine's control is
        // iterative; the remaining depth limit is term *representation*
        // (resolve/drop recurse over the term tree), not the search. Those
        // term-tree recursions need more than a debug-build test thread's
        // default stack, so run on a thread with an explicit one.
        std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(|| {
                let p = parse_program("count(z).\ncount(s(N)) :- count(N).").unwrap();
                // Build s^4000(z) iteratively (the recursive-descent parser
                // would itself overflow on a literal this deep).
                let nat = (0..4_000).fold(Term::atom("z"), |acc, _| Term::app("s", vec![acc]));
                let goals = vec![Literal::pos(argus_logic::Atom::new("count", vec![nat]))];
                let out = solve_iterative(
                    &p,
                    &goals,
                    &InterpOptions {
                        max_steps: 1_000_000,
                        max_depth: 10_000_000,
                        ..InterpOptions::default()
                    },
                );
                assert!(out.terminated(), "steps: {}", out.steps());
                assert_eq!(out.solution_count(), 1);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn backtracking_order_matches_textual_order() {
        let p = parse_program("c(r).\nc(g).\nc(b).").unwrap();
        let goals = parse_query("c(X)").unwrap();
        let out = solve_iterative(&p, &goals, &InterpOptions::default());
        match out {
            Outcome::Completed { solutions, .. } => {
                let got: Vec<String> = solutions.iter().map(|s| s["X"].to_string()).collect();
                assert_eq!(got, ["r", "g", "b"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
