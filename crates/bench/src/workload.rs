//! Workload generation: random ground queries and synthetic programs /
//! constraint systems for the scaling benchmarks.

use argus_linear::{Constraint, ConstraintSystem, LinExpr, Rat};
use argus_logic::term::Term;
use argus_prng::Rng64;

/// A deterministic RNG for reproducible workloads.
pub fn rng(seed: u64) -> Rng64 {
    Rng64::new(seed)
}

/// A random proper list of `len` small integer atoms.
pub fn random_int_list(r: &mut Rng64, len: usize) -> Term {
    Term::list((0..len).map(|_| Term::int(r.range_i64(0, 99))))
}

/// A random proper list of lowercase atoms.
pub fn random_atom_list(r: &mut Rng64, len: usize) -> Term {
    const ATOMS: &[&str] = &["a", "b", "c", "d", "e", "f", "g", "h"];
    Term::list((0..len).map(|_| Term::atom(*r.pick(ATOMS))))
}

/// A unary natural `s^n(z)`.
pub fn nat(n: usize) -> Term {
    (0..n).fold(Term::atom("z"), |acc, _| Term::app("s", vec![acc]))
}

/// A random binary tree with `n` internal nodes carrying integer labels.
pub fn random_tree(r: &mut Rng64, n: usize) -> Term {
    if n == 0 {
        return Term::atom("leaf");
    }
    let left = r.range_usize(0, n - 1);
    let right = n - 1 - left;
    Term::app(
        "node",
        vec![random_tree(r, left), Term::int(r.range_i64(0, 99)), random_tree(r, right)],
    )
}

/// A synthetic `append`-chain program with `depth` chained predicates:
/// `p0` calls `p1` twice, … — used to scale the number of SCCs and the
/// imported-constraint load for the analysis benchmarks.
pub fn chained_append_program(depth: usize) -> String {
    let mut out = String::new();
    out.push_str("app([], Ys, Ys).\napp([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).\n");
    for i in 0..depth {
        let callee = if i + 1 == depth {
            "app(Xs, [x], Ys)".to_string()
        } else {
            format!("p{}(Xs, Ys)", i + 1)
        };
        out.push_str(&format!(
            "p{i}([], []).\np{i}([X|Xs], [X|Ys]) :- {callee}, p{i}(Xs, Ws), app(Ws, [], Ys2), eat(Ys2).\n"
        ));
    }
    out.push_str("eat(_).\n");
    out
}

/// A *wide* synthetic program: `layers × width` independent predicates
/// arranged so that each layer's predicates only call predicates in the
/// next layer. All SCCs within a layer are mutually independent — the
/// workload the level-scheduled parallel analysis pipeline is built for.
pub fn wide_scc_program(layers: usize, width: usize) -> String {
    let mut out = String::new();
    out.push_str("app([], Ys, Ys).\napp([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).\n");
    for l in 0..layers {
        for w in 0..width {
            let callee = if l + 1 == layers {
                "app(Xs, [x], Ys)".to_string()
            } else {
                // Fan into the next layer (wrap around its width).
                format!("q{}_{}(Xs, Ys)", l + 1, w % width)
            };
            out.push_str(&format!(
                "q{l}_{w}([], []).\nq{l}_{w}([X|Xs], [X|Ys]) :- {callee}, q{l}_{w}(Xs, Zs), app(Zs, [], Ys).\n"
            ));
        }
    }
    out
}

/// A mutual-recursion ring of `preds` predicates where each recursive rule
/// makes `calls` staggered calls to the next ring member and sums the
/// results with chained `plus/3` subgoals (a generalized tetranacci). The
/// staggered call depths give every ring member a many-facet inferred size
/// relation, which makes the Fourier–Motzkin projections inside both the
/// size-relation inference and the pair analysis combinatorially dense —
/// the FM-redundancy stress workload. `preds = 3, calls = 4` reproduces
/// the `mutual_fib_ring` corpus entry.
pub fn mutual_fib_ring_program(preds: usize, calls: usize) -> String {
    assert!(preds >= 2 && calls >= 2);
    let mut out = String::new();
    out.push_str("plus(z, Y, Y).\nplus(s(X), Y, s(Z)) :- plus(X, Y, Z).\n");
    let wrap = |depth: usize, core: &str| {
        let mut t = core.to_string();
        for _ in 0..depth {
            t = format!("s({t})");
        }
        t
    };
    for p in 0..preds {
        // Base cases f(z,z), f(s(z),s(z)), then f(s^k(z), s(z)) up to the
        // recursion depth so the recursive rule is never underivable.
        out.push_str(&format!("f{p}(z, z).\nf{p}(s(z), s(z)).\n"));
        for k in 2..calls {
            out.push_str(&format!("f{p}({}, s(z)).\n", wrap(k, "z")));
        }
        let q = (p + 1) % preds;
        let mut body: Vec<String> =
            (0..calls).map(|i| format!("f{q}({}, A{i})", wrap(calls - 1 - i, "N"))).collect();
        let mut acc = "A0".to_string();
        for i in 1..calls {
            let next = if i + 1 == calls { "R".to_string() } else { format!("T{i}") };
            body.push(format!("plus({acc}, A{i}, {next})"));
            acc = next;
        }
        out.push_str(&format!("f{p}({}, R) :- {}.\n", wrap(calls, "N"), body.join(", ")));
    }
    out
}

/// A random dense constraint system over `nvars` variables with `nrows`
/// rows and coefficients in `[-bound, bound]` — the FM/simplex scaling
/// workload.
pub fn random_system(r: &mut Rng64, nvars: usize, nrows: usize, bound: i64) -> ConstraintSystem {
    let mut sys = ConstraintSystem::new();
    for _ in 0..nrows {
        let mut e = LinExpr::constant(Rat::from_int(r.range_i64(-bound, bound)));
        for v in 0..nvars {
            let c = r.range_i64(-bound, bound);
            e.add_term(v, Rat::from_int(c));
        }
        sys.push(Constraint { expr: e, rel: argus_linear::Rel::Le });
    }
    sys
}

/// A feasible random system (random rows all satisfied by a random point,
/// by correcting the constant) — useful to benchmark the *feasible* path
/// of the solvers, whose cost profile differs from infeasible inputs.
pub fn random_feasible_system(
    r: &mut Rng64,
    nvars: usize,
    nrows: usize,
    bound: i64,
) -> ConstraintSystem {
    let point: Vec<i64> = (0..nvars).map(|_| r.range_i64(0, bound)).collect();
    let mut sys = ConstraintSystem::new();
    for _ in 0..nrows {
        let mut e = LinExpr::zero();
        let mut lhs = 0i64;
        for (v, pv) in point.iter().enumerate() {
            let c = r.range_i64(-bound, bound);
            e.add_term(v, Rat::from_int(c));
            lhs += c * pv;
        }
        // lhs + const <= 0  =>  const <= -lhs; pick a slack of up to bound.
        let slack = r.range_i64(0, bound);
        e.add_constant(&Rat::from_int(-lhs - slack));
        sys.push(Constraint { expr: e, rel: argus_linear::Rel::Le });
    }
    sys
}

/// The largest system the size-relation fixpoint hands to
/// `Poly::minimized` on `scale_case(0xA11CE, 250)` (the `scale-cold`
/// benchmark program): a 79-row hull over 3 argument sizes, frozen as
/// `[a₀, a₁, a₂, k]` rows of `a·x + k ≤ 0`. Minimization keeps 5 rows.
#[rustfmt::skip]
const HULL_A11CE_250: &[[i64; 4]] = &[
    [-32, -65, 0, 0], [-29, 0, -13, 0], [-21, -13, 0, 0], [-21, 0, -2, 0],
    [-16, -13, -13, 13], [-15, -32, 0, 0], [-15, -8, 0, 0], [-15, 0, -1, 0],
    [-13, -8, 0, 0], [-11, -3, -3, 0], [-11, 0, -1, 0], [-9, -6, -1, 0],
    [-9, 0, -4, 0], [-9, 0, -1, 0], [-8, -15, 0, 0], [-8, -13, 0, 0],
    [-8, -5, 0, 0], [-8, 3, 3, -3], [-7, -2, 0, 0], [-7, -2, -2, 0],
    [-7, 0, -3, 0], [-6, -15, -2, 0], [-6, -13, 0, 0], [-6, 0, -1, 0],
    [-5, -8, 0, 0], [-5, -4, -4, 4], [-5, -3, 0, 0], [-5, -2, 0, 0],
    [-5, -1, -1, 1], [-5, 2, 2, -2], [-5, 0, -1, 0], [-4, -5, 0, 0],
    [-4, -3, -3, 3], [-4, -2, -1, 0], [-4, -1, -1, 1], [-4, 1, 1, -1],
    [-3, -26, -26, 0], [-3, -26, -13, 0], [-3, -11, -3, 0], [-3, -8, 0, 0],
    [-3, -8, -1, 0], [-3, -6, -1, 0], [-3, -4, 0, 0], [-3, -3, -4, 3],
    [-3, -3, -1, 0], [-3, -2, 0, 0], [-3, -2, -2, 0], [-3, -2, -1, 0],
    [-3, -1, 0, 0], [-3, -1, -1, 0], [-3, 0, -2, 0], [-3, 0, -1, 0],
    [-2, -7, -2, 0], [-2, -5, 0, 0], [-2, -3, 0, 0], [-2, -1, 0, 0],
    [-2, -1, -2, 0], [-2, -1, -1, 1], [-2, -1, 1, -1], [-2, 1, 1, -1],
    [-2, 0, -1, 0], [-1, 0, 0, 0], [-1, -8, -8, 0], [-1, -8, -4, 0],
    [-1, -6, -6, 0], [-1, -6, -3, 0], [-1, -3, -1, 0], [-1, -2, 0, 0],
    [-1, -2, -2, 1], [-1, -2, -1, 0], [-1, -1, 0, 0], [-1, -1, -1, 1],
    [-1, 1, 0, -1], [0, -6, -7, 0], [0, -3, -2, 0], [0, -2, -1, 0],
    [0, -1, 0, 0], [0, -1, -1, 0], [0, 0, -1, 0],
];

/// [`HULL_A11CE_250`] as a constraint system.
pub fn scale_cold_hull() -> ConstraintSystem {
    let rows = HULL_A11CE_250.iter().map(|row| {
        let mut e = LinExpr::zero();
        for (v, &a) in row[..3].iter().enumerate() {
            e.add_term(v, Rat::from_int(a));
        }
        e.add_constant(&Rat::from_int(row[3]));
        Constraint { expr: e, rel: argus_linear::Rel::Le }
    });
    ConstraintSystem::from_constraints(rows.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn lists_have_requested_length() {
        let mut r = rng(1);
        let l = random_int_list(&mut r, 5);
        assert_eq!(l.as_proper_list().unwrap().len(), 5);
        let a = random_atom_list(&mut r, 3);
        assert_eq!(a.as_proper_list().unwrap().len(), 3);
    }

    #[test]
    fn nats_have_requested_depth() {
        assert_eq!(nat(0).to_string(), "z");
        assert_eq!(nat(3).to_string(), "s(s(s(z)))");
    }

    #[test]
    fn trees_have_requested_size() {
        fn internal(t: &Term) -> usize {
            match t {
                Term::App(f, args) if &**f == "node" => 1 + internal(&args[0]) + internal(&args[2]),
                _ => 0,
            }
        }
        let mut r = rng(2);
        for n in [0, 1, 7, 20] {
            assert_eq!(internal(&random_tree(&mut r, n)), n);
        }
    }

    #[test]
    fn chained_program_parses_and_analyzes() {
        let src = chained_append_program(3);
        let p = argus_logic::parser::parse_program(&src).unwrap();
        assert!(p.rules.len() >= 8);
    }

    #[test]
    fn wide_program_parses() {
        let src = wide_scc_program(2, 3);
        let p = argus_logic::parser::parse_program(&src).unwrap();
        // 2 app rules + 2 per predicate × 6 predicates.
        assert_eq!(p.rules.len(), 2 + 2 * 6);
    }

    #[test]
    fn ring_program_matches_corpus_entry() {
        // preds = 3, calls = 4 must reproduce the committed corpus source
        // modulo whitespace, so the generator and the corpus entry cannot
        // drift apart.
        let generated = mutual_fib_ring_program(3, 4);
        let corpus = argus_corpus::find("mutual_fib_ring").unwrap().source;
        let canon = |s: &str| s.split_whitespace().collect::<String>();
        assert_eq!(canon(&generated), canon(corpus));
    }

    #[test]
    fn ring_program_parses_at_other_sizes() {
        for (preds, calls) in [(2, 2), (3, 3), (4, 5)] {
            let src = mutual_fib_ring_program(preds, calls);
            let p = argus_logic::parser::parse_program(&src).unwrap();
            // plus: 2 rules; per predicate: `calls` base cases + 1 recursive.
            assert_eq!(p.rules.len(), 2 + preds * (calls + 1), "{src}");
        }
    }

    #[test]
    fn feasible_system_is_feasible() {
        let mut r = rng(3);
        for _ in 0..10 {
            let sys = random_feasible_system(&mut r, 4, 6, 5);
            // Must be satisfiable with nonneg vars (the generating point is
            // nonnegative).
            let nn: BTreeSet<usize> = (0..4).collect();
            assert!(argus_linear::simplex::feasible_point(&sys, &nn).is_some());
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let a = random_int_list(&mut rng(42), 4);
        let b = random_int_list(&mut rng(42), 4);
        assert_eq!(a, b);
    }
}
