//! Top-down SLD resolution with the Prolog computation rule.
//!
//! Left-to-right goal selection, textual-order clause selection, depth-first
//! search with backtracking — "the Prolog algorithm" whose termination the
//! paper analyzes. Execution is metered: every resolution step and builtin
//! call consumes budget, so nonterminating queries are cut off and reported
//! as [`Outcome::OutOfBudget`] instead of hanging the process. This is the
//! empirical oracle used to validate the analyzer's verdicts: a program the
//! analyzer proves terminating must complete (all solutions, finite search
//! tree) within budget on any query of its declared mode.

use argus_logic::program::{Literal, PredKey, ProcIndex, Program};
use argus_logic::term::Term;
use argus_logic::unify::{unify, unify_atoms, Subst};
use std::collections::BTreeMap;

/// Interpreter limits and switches.
#[derive(Debug, Clone)]
pub struct InterpOptions {
    /// Maximum number of resolution/builtin steps before giving up.
    pub max_steps: u64,
    /// Maximum recursion depth of the goal stack.
    pub max_depth: usize,
    /// Collect at most this many solutions (the search still runs to
    /// completion — bounded by budget — so termination is meaningful).
    pub max_solutions: usize,
    /// Perform the occurs check during unification (Prolog default: off).
    pub occurs_check: bool,
}

impl Default for InterpOptions {
    fn default() -> InterpOptions {
        InterpOptions {
            max_steps: 200_000,
            max_depth: 400,
            max_solutions: 1_000,
            occurs_check: false,
        }
    }
}

/// Result of running a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The search tree was explored exhaustively.
    Completed {
        /// Bindings of the query's variables, one map per solution.
        solutions: Vec<BTreeMap<String, Term>>,
        /// Resolution/builtin steps consumed.
        steps: u64,
    },
    /// The step or depth budget ran out: the query may not terminate.
    OutOfBudget {
        /// Steps consumed when the budget tripped.
        steps: u64,
        /// Solutions found before cutoff.
        solutions_so_far: usize,
    },
}

impl Outcome {
    /// True iff the search completed within budget.
    pub fn terminated(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }

    /// Number of solutions produced.
    pub fn solution_count(&self) -> usize {
        match self {
            Outcome::Completed { solutions, .. } => solutions.len(),
            Outcome::OutOfBudget { solutions_so_far, .. } => *solutions_so_far,
        }
    }

    /// Steps consumed.
    pub fn steps(&self) -> u64 {
        match self {
            Outcome::Completed { steps, .. } => *steps,
            Outcome::OutOfBudget { steps, .. } => *steps,
        }
    }
}

/// Internal stop signals threaded through the search.
enum Stop {
    /// Budget exhausted.
    Budget,
    /// Solution limit reached (search is truncated but "terminated" in the
    /// sense that it did not run away; reported as completed).
    Enough,
}

struct Machine<'p> {
    program: &'p Program,
    index: ProcIndex,
    options: InterpOptions,
    steps: u64,
    rename_counter: u64,
    solutions: Vec<Subst>,
    query_vars: Vec<argus_logic::Sym>,
}

/// Run `goals` against `program`.
pub fn solve(program: &Program, goals: &[Literal], options: &InterpOptions) -> Outcome {
    let mut query_vars = Vec::new();
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
        steps: 0,
        rename_counter: 0,
        solutions: Vec::new(),
        query_vars,
    };
    let mut s = Subst::new();
    let result = m.solve_goals(goals, &mut s, 0);
    let steps = m.steps;
    match result {
        Err(Stop::Budget) => Outcome::OutOfBudget { steps, solutions_so_far: m.solutions.len() },
        _ => {
            let solutions = m
                .solutions
                .iter()
                .map(|s| {
                    m.query_vars
                        .iter()
                        .map(|v| (v.to_string(), s.resolve(&Term::Var(*v))))
                        .collect()
                })
                .collect();
            Outcome::Completed { solutions, steps }
        }
    }
}

/// Evaluate an arithmetic expression over integers (`+ - * //`).
fn eval_arith(s: &Subst, t: &Term) -> Option<i64> {
    match s.walk(t) {
        Term::Var(_) => None,
        Term::App(f, args) if args.is_empty() => f.parse::<i64>().ok(),
        Term::App(f, args) if args.len() == 2 => {
            let a = eval_arith(s, &args[0])?;
            let b = eval_arith(s, &args[1])?;
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

impl<'p> Machine<'p> {
    /// Take one step, or refuse it (uncounted) once `max_steps` are spent.
    fn tick(&mut self) -> Result<(), Stop> {
        if self.steps >= self.options.max_steps {
            return Err(Stop::Budget);
        }
        self.steps += 1;
        Ok(())
    }

    fn solve_goals(&mut self, goals: &[Literal], s: &mut Subst, depth: usize) -> Result<(), Stop> {
        if depth > self.options.max_depth {
            return Err(Stop::Budget);
        }
        let Some((first, rest)) = goals.split_first() else {
            self.solutions.push(s.clone());
            if self.solutions.len() >= self.options.max_solutions {
                return Err(Stop::Enough);
            }
            return Ok(());
        };

        if !first.positive {
            // Negation as failure: succeed iff the positive goal has no
            // solution. The subsearch shares the step budget.
            self.tick()?;
            let saved_solutions = std::mem::take(&mut self.solutions);
            let saved_limit = self.options.max_solutions;
            self.options.max_solutions = 1;
            let sub_goal = Literal::pos(first.atom.clone());
            let mut s2 = s.clone();
            let sub = self.solve_goals(&[sub_goal], &mut s2, depth + 1);
            let found = !self.solutions.is_empty();
            self.solutions = saved_solutions;
            self.options.max_solutions = saved_limit;
            if let Err(Stop::Budget) = sub {
                return Err(Stop::Budget);
            }
            if found {
                return Ok(()); // negation fails: no solutions from here
            }
            return self.solve_goals(rest, s, depth);
        }

        let key = first.atom.key();
        // Builtins.
        if key.arity == 2 {
            match &*key.name {
                "=" => {
                    self.tick()?;
                    let mut s2 = s.clone();
                    if unify(
                        &mut s2,
                        &first.atom.args[0],
                        &first.atom.args[1],
                        self.options.occurs_check,
                    ) {
                        return self.solve_goals(rest, &mut s2, depth);
                    }
                    return Ok(());
                }
                "\\=" => {
                    self.tick()?;
                    let mut s2 = s.clone();
                    if !unify(
                        &mut s2,
                        &first.atom.args[0],
                        &first.atom.args[1],
                        self.options.occurs_check,
                    ) {
                        return self.solve_goals(rest, s, depth);
                    }
                    return Ok(());
                }
                "==" | "\\==" => {
                    self.tick()?;
                    let a = s.resolve(&first.atom.args[0]);
                    let b = s.resolve(&first.atom.args[1]);
                    let eq = a == b;
                    let want = &*key.name == "==";
                    if eq == want {
                        return self.solve_goals(rest, s, depth);
                    }
                    return Ok(());
                }
                "<" | ">" | "=<" | ">=" => {
                    self.tick()?;
                    let (Some(a), Some(b)) =
                        (eval_arith(s, &first.atom.args[0]), eval_arith(s, &first.atom.args[1]))
                    else {
                        return Ok(()); // non-numeric: fail silently
                    };
                    let ok = match &*key.name {
                        "<" => a < b,
                        ">" => a > b,
                        "=<" => a <= b,
                        _ => a >= b,
                    };
                    if ok {
                        return self.solve_goals(rest, s, depth);
                    }
                    return Ok(());
                }
                "is" => {
                    self.tick()?;
                    let Some(v) = eval_arith(s, &first.atom.args[1]) else {
                        return Ok(());
                    };
                    let mut s2 = s.clone();
                    if unify(&mut s2, &first.atom.args[0], &Term::int(v), self.options.occurs_check)
                    {
                        return self.solve_goals(rest, &mut s2, depth);
                    }
                    return Ok(());
                }
                _ => {}
            }
        }

        // User predicate: try each clause in order.
        self.clause_resolution(&key, first, rest, s, depth)
    }

    fn clause_resolution(
        &mut self,
        key: &PredKey,
        first: &Literal,
        rest: &[Literal],
        s: &mut Subst,
        depth: usize,
    ) -> Result<(), Stop> {
        // Snapshot matching clauses (textual order).
        let clauses: Vec<_> =
            self.index.procedure(self.program, key).into_iter().cloned().collect();
        for clause in &clauses {
            self.tick()?;
            self.rename_counter += 1;
            let renamed = clause.rename_suffix(&format!("_r{}", self.rename_counter));
            let mut s2 = s.clone();
            if !unify_atoms(&mut s2, &first.atom, &renamed.head, self.options.occurs_check) {
                continue;
            }
            let mut new_goals = renamed.body.clone();
            new_goals.extend_from_slice(rest);
            self.solve_goals(&new_goals, &mut s2, depth + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_logic::parser::{parse_program, parse_query};

    fn run(src: &str, query: &str) -> Outcome {
        let p = parse_program(src).unwrap();
        let goals = parse_query(query).unwrap();
        solve(&p, &goals, &InterpOptions::default())
    }

    const APPEND: &str = "append([], Ys, Ys).\n\
                          append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).";

    #[test]
    fn append_ground() {
        let out = run(APPEND, "append([a, b], [c], Z)");
        match out {
            Outcome::Completed { solutions, .. } => {
                assert_eq!(solutions.len(), 1);
                assert_eq!(solutions[0]["Z"].to_string(), "[a, b, c]");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn append_splits() {
        // append(X, Y, [a, b]) has 3 solutions.
        let out = run(APPEND, "append(X, Y, [a, b])");
        assert!(out.terminated());
        assert_eq!(out.solution_count(), 3);
    }

    #[test]
    fn append_generator_runs_away() {
        // append(X, Y, Z) with everything free enumerates forever.
        let out = run(APPEND, "append(X, Y, Z)");
        assert!(!out.terminated() || out.solution_count() >= 1000);
    }

    #[test]
    fn direct_loop_exhausts_budget() {
        let out = run("p(X) :- p(X).", "p(a)");
        assert_eq!(out.solution_count(), 0);
        assert!(!out.terminated());
    }

    #[test]
    fn backtracking_across_clauses() {
        let out = run("color(r).\ncolor(g).\ncolor(b).", "color(C)");
        match out {
            Outcome::Completed { solutions, .. } => {
                let got: Vec<String> = solutions.iter().map(|s| s["C"].to_string()).collect();
                assert_eq!(got, ["r", "g", "b"], "textual clause order");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_comparison() {
        let out = run("len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.", "len([a, b, c], N)");
        match out {
            Outcome::Completed { solutions, .. } => {
                assert_eq!(solutions[0]["N"].to_string(), "3");
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmp = run("", "3 < 5, 5 >= 5, 2 =< 1");
        assert_eq!(cmp.solution_count(), 0, "2 =< 1 fails");
        let ok = run("", "3 < 5, 5 >= 5, 1 =< 2");
        assert_eq!(ok.solution_count(), 1);
    }

    #[test]
    fn cyclic_equation_without_occurs_check() {
        // X = f(X) succeeds without the occurs check (the Prolog default);
        // extracting the solution must not diverge on the cyclic binding —
        // the cycle is unfolded once and then cut.
        let out = run("", "X = f(X)");
        match out {
            Outcome::Completed { solutions, .. } => {
                assert_eq!(solutions.len(), 1);
                assert_eq!(solutions[0]["X"].to_string(), "f(X)");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cyclic_equation_with_occurs_check() {
        // With the occurs check on, X = f(X) simply fails.
        let p = parse_program("").unwrap();
        let goals = parse_query("X = f(X)").unwrap();
        let opts = InterpOptions { occurs_check: true, ..InterpOptions::default() };
        let out = solve(&p, &goals, &opts);
        assert!(out.terminated());
        assert_eq!(out.solution_count(), 0);
    }

    #[test]
    fn cyclic_binding_through_clause_head() {
        // The cycle forms through a clause head rather than `=` directly.
        let out = run("eq(X, X).", "eq(Y, g(Y))");
        match out {
            Outcome::Completed { solutions, .. } => {
                assert_eq!(solutions.len(), 1);
                assert!(!solutions[0]["Y"].is_var());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negation_as_failure() {
        let out = run("p(a).\nq(X) :- \\+ p(X).", "q(b)");
        assert_eq!(out.solution_count(), 1);
        let out2 = run("p(a).\nq(X) :- \\+ p(X).", "q(a)");
        assert_eq!(out2.solution_count(), 0);
    }

    #[test]
    fn merge_runs() {
        let out = run(
            "merge([], Ys, Ys).\n\
             merge(Xs, [], Xs).\n\
             merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).\n\
             merge([X|Xs], [Y|Ys], [Y|Zs]) :- Y =< X, merge(Ys, [X|Xs], Zs).",
            "merge([1, 3, 5], [2, 4], Z)",
        );
        match out {
            Outcome::Completed { solutions, .. } => {
                assert_eq!(solutions[0]["Z"].to_string(), "[1, 2, 3, 4, 5]");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn perm_enumerates_permutations() {
        let out = run(
            "perm([], []).\n\
             perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).\n\
             append([], Ys, Ys).\n\
             append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
            "perm([a, b, c], Q)",
        );
        assert!(out.terminated(), "perm with bound first arg terminates");
        assert_eq!(out.solution_count(), 6, "3! permutations");
    }

    #[test]
    fn unbound_comparison_fails_not_errors() {
        let out = run("", "X < 5");
        assert_eq!(out.solution_count(), 0);
        assert!(out.terminated());
    }

    #[test]
    fn equality_builtin() {
        let out = run("", "X = f(Y), Y = a");
        match out {
            Outcome::Completed { solutions, .. } => {
                assert_eq!(solutions[0]["X"].to_string(), "f(a)");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disequality_builtin() {
        assert_eq!(run("", "a \\= b").solution_count(), 1);
        assert_eq!(run("", "a \\= a").solution_count(), 0);
        assert_eq!(run("", "f(a) == f(a)").solution_count(), 1);
        assert_eq!(run("", "f(a) \\== f(a)").solution_count(), 0);
    }

    #[test]
    fn solution_limit_truncates_gracefully() {
        let p = parse_program("nat(z).\nnat(s(N)) :- nat(N).").unwrap();
        let goals = parse_query("nat(X)").unwrap();
        let out =
            solve(&p, &goals, &InterpOptions { max_solutions: 5, ..InterpOptions::default() });
        assert_eq!(out.solution_count(), 5);
    }
}
