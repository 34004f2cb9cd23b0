//! Bound–free adornments (modes) and their propagation.
//!
//! The paper assumes preprocessing has arranged that every predicate has the
//! same bound–free adornment in all its uses (§3). This module computes that
//! adornment map for a given query mode by abstract left-to-right execution:
//! starting from the root predicate's adornment, it marks the variables of
//! bound head arguments as bound, scans the body left to right (an argument
//! of a subgoal is bound iff all its variables are), and assumes that after
//! a positive subgoal succeeds all of its variables are bound (the standard
//! groundness assumption for well-moded programs). Negative subgoals bind
//! nothing (Appendix D: "negative subgoals do not produce variable
//! bindings").
//!
//! If a predicate is reached with different adornments, the analysis merges
//! them pointwise with *bound ⊓ free = free* (a conservative weakening) and
//! iterates to a fixpoint, so every predicate ends with a single adornment,
//! as the paper's setup requires.

use crate::intern::Sym;
use crate::program::{PredKey, ProcIndex, Program};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::sync::OnceLock;

/// The mode of one argument position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mode {
    /// Argument is bound (ground) when the predicate is invoked.
    Bound,
    /// Argument may be free.
    Free,
}

/// A bound–free adornment for a predicate: one [`Mode`] per argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Adornment(pub Vec<Mode>);

impl Adornment {
    /// All arguments bound.
    pub fn all_bound(arity: usize) -> Adornment {
        Adornment(vec![Mode::Bound; arity])
    }

    /// All arguments free.
    pub fn all_free(arity: usize) -> Adornment {
        Adornment(vec![Mode::Free; arity])
    }

    /// Parse from a string like `"bf"` (bound, free).
    pub fn parse(s: &str) -> Option<Adornment> {
        s.chars()
            .map(|c| match c {
                'b' => Some(Mode::Bound),
                'f' => Some(Mode::Free),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .map(Adornment)
    }

    /// Number of argument positions.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Indices of bound positions.
    pub fn bound_positions(&self) -> Vec<usize> {
        self.0.iter().enumerate().filter(|(_, m)| **m == Mode::Bound).map(|(i, _)| i).collect()
    }

    /// Pointwise meet: bound only where both are bound.
    pub fn meet(&self, other: &Adornment) -> Adornment {
        debug_assert_eq!(self.arity(), other.arity());
        Adornment(
            self.0
                .iter()
                .zip(&other.0)
                .map(
                    |(a, b)| {
                        if *a == Mode::Bound && *b == Mode::Bound {
                            Mode::Bound
                        } else {
                            Mode::Free
                        }
                    },
                )
                .collect(),
        )
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.0 {
            write!(f, "{}", if *m == Mode::Bound { 'b' } else { 'f' })?;
        }
        Ok(())
    }
}

/// Parse a `name/arity` predicate spec.
pub fn parse_pred_spec(spec: &str) -> Result<PredKey, String> {
    parse_spec(spec, "predicate")
}

/// Parse a `name/arity` query spec plus its `b`/`f` adornment, which must
/// have one position per argument — the one query parser every surface
/// (CLI, server, LSP, library helpers) shares.
pub fn parse_query_spec(spec: &str, adornment: &str) -> Result<(PredKey, Adornment), String> {
    let query = parse_spec(spec, "query")?;
    let adornment = Adornment::parse(adornment)
        .ok_or_else(|| format!("bad adornment {adornment:?} (want e.g. \"bf\")"))?;
    if adornment.arity() != query.arity {
        return Err(format!(
            "adornment `{adornment}` has {} position(s) but {query} has arity {}",
            adornment.arity(),
            query.arity
        ));
    }
    Ok((query, adornment))
}

/// `name/arity` → [`PredKey`]; `what` names the spec in errors.
fn parse_spec(spec: &str, what: &str) -> Result<PredKey, String> {
    let (name, arity) = spec
        .rsplit_once('/')
        .ok_or_else(|| format!("bad {what} spec {spec:?} (want name/arity)"))?;
    let arity = arity.parse().map_err(|_| format!("bad arity in {spec:?}"))?;
    Ok(PredKey::new(name, arity))
}

/// The inferred adornment of every reachable predicate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModeMap {
    map: BTreeMap<PredKey, Adornment>,
}

impl ModeMap {
    /// The adornment of `p`, if reachable.
    pub fn get(&self, p: &PredKey) -> Option<&Adornment> {
        self.map.get(p)
    }

    /// Insert/overwrite an adornment (used to seed analyses or test).
    pub fn insert(&mut self, p: PredKey, a: Adornment) {
        self.map.insert(p, a);
    }

    /// Iterate over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&PredKey, &Adornment)> {
        self.map.iter()
    }

    /// Number of adorned predicates.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff nothing adorned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Builtin comparison predicates: they test bound terms and bind nothing.
pub const TEST_BUILTINS: &[&str] = &["<", ">", "=<", ">=", "==", "\\==", "\\="];

/// Builtins that bind: `=` unifies (binds both sides), `is` binds its left
/// argument.
pub const BINDING_BUILTINS: &[&str] = &["=", "is"];

/// The interned `is` operator.
pub(crate) fn sym_is() -> Sym {
    static S: OnceLock<Sym> = OnceLock::new();
    *S.get_or_init(|| Sym::new("is"))
}

/// The interned `=` operator.
pub(crate) fn sym_eq() -> Sym {
    static S: OnceLock<Sym> = OnceLock::new();
    *S.get_or_init(|| Sym::new("="))
}

/// The test builtins, interned once so the per-literal builtin check on
/// the fixpoint hot paths compares symbol ids instead of string bytes.
pub(crate) fn test_builtin_syms() -> &'static [Sym] {
    static S: OnceLock<Vec<Sym>> = OnceLock::new();
    S.get_or_init(|| TEST_BUILTINS.iter().map(Sym::new).collect())
}

/// Is `p` a builtin (not subject to rule lookup)?
pub fn is_builtin(p: &PredKey) -> bool {
    p.arity == 2
        && (test_builtin_syms().contains(&p.name) || p.name == sym_eq() || p.name == sym_is())
}

/// Propagate modes from `root` with `root_adornment` through `program`.
///
/// Returns the fixpoint adornment map. Predicates never reached do not
/// appear. EDB predicates get whatever adornment their call sites produce.
pub fn infer_modes(program: &Program, root: &PredKey, root_adornment: Adornment) -> ModeMap {
    assert_eq!(root.arity, root_adornment.arity(), "root adornment arity mismatch");
    let mut map: BTreeMap<PredKey, Adornment> = BTreeMap::new();
    let mut queue: VecDeque<PredKey> = VecDeque::new();
    map.insert(root.clone(), root_adornment);
    queue.push_back(root.clone());

    // Merge `a` into the entry for `p`; enqueue `p` if the entry weakened
    // (or is new).
    fn merge(
        map: &mut BTreeMap<PredKey, Adornment>,
        queue: &mut VecDeque<PredKey>,
        p: PredKey,
        a: Adornment,
    ) {
        match map.get(&p) {
            Some(old) => {
                let met = old.meet(&a);
                if &met != old {
                    map.insert(p.clone(), met);
                    queue.push_back(p);
                }
            }
            None => {
                map.insert(p.clone(), a);
                queue.push_back(p);
            }
        }
    }

    let index = ProcIndex::build(program);
    let mut bound_vars: HashSet<Sym> = HashSet::new();
    while let Some(pred) = queue.pop_front() {
        let adornment = map[&pred].clone();
        for rule in index.procedure(program, &pred) {
            // Variables bound by the head's bound arguments.
            bound_vars.clear();
            for (i, arg) in rule.head.args.iter().enumerate() {
                if adornment.0[i] == Mode::Bound {
                    arg.add_vars_to(&mut bound_vars);
                }
            }
            // Scan body left to right.
            for lit in &rule.body {
                let key = lit.atom.key();
                let sub_adornment =
                    Adornment(
                        lit.atom
                            .args
                            .iter()
                            .map(|t| {
                                if t.vars_subset_of(&bound_vars) {
                                    Mode::Bound
                                } else {
                                    Mode::Free
                                }
                            })
                            .collect(),
                    );
                if !is_builtin(&key) {
                    merge(&mut map, &mut queue, key.clone(), sub_adornment);
                }
                // Binding effect of the subgoal.
                if lit.positive {
                    if key.arity == 2 && test_builtin_syms().contains(&key.name) {
                        // Tests bind nothing.
                    } else if key.arity == 2 && key.name == sym_is() {
                        lit.atom.args[0].add_vars_to(&mut bound_vars);
                    } else {
                        // `=`, user predicates, EDB: assume success grounds
                        // every variable of the subgoal.
                        for a in &lit.atom.args {
                            a.add_vars_to(&mut bound_vars);
                        }
                    }
                }
                // Negative subgoals produce no bindings (Appendix D).
            }
        }
    }

    ModeMap { map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn adornment_parse_display() {
        let a = Adornment::parse("bf").unwrap();
        assert_eq!(a.to_string(), "bf");
        assert_eq!(a.bound_positions(), vec![0]);
        assert!(Adornment::parse("bx").is_none());
    }

    #[test]
    fn meet_is_pointwise() {
        let a = Adornment::parse("bb").unwrap();
        let b = Adornment::parse("bf").unwrap();
        assert_eq!(a.meet(&b), Adornment::parse("bf").unwrap());
    }

    #[test]
    fn perm_modes() {
        // Example 3.1: perm's first argument bound, second free. The
        // append subgoals: append(E, [X|F], P) has P bound, E and [X|F]
        // free at call time — adornment ffb. The second append(E, F, P1)
        // then has E, F bound (bound by first append), P1 free — bbf; the
        // merged adornment for append/3 is fff ⊓ ... = pointwise meet fff?
        // No: ffb ⊓ bbf = fff. The conservative meet weakens; what matters
        // for the analyzer is that perm/2 keeps its bf adornment and the
        // recursive call perm(P1, L) sees P1 bound.
        let p = parse_program(
            "perm([], []).\n\
             perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).\n\
             append([], Ys, Ys).\n\
             append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
        )
        .unwrap();
        let root = PredKey::new("perm", 2);
        let modes = infer_modes(&p, &root, Adornment::parse("bf").unwrap());
        assert_eq!(modes.get(&root).unwrap().to_string(), "bf");
        // append is reached with both ffb and bbf; the meet is fff.
        let app = PredKey::new("append", 3);
        assert_eq!(modes.get(&app).unwrap().to_string(), "fff");
    }

    #[test]
    fn merge_modes_stay_bound() {
        let p = parse_program(
            "merge([], Ys, Ys).\n\
             merge(Xs, [], Xs).\n\
             merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).\n\
             merge([X|Xs], [Y|Ys], [Y|Zs]) :- Y =< X, merge(Ys, [X|Xs], Zs).",
        )
        .unwrap();
        let root = PredKey::new("merge", 3);
        let modes = infer_modes(&p, &root, Adornment::parse("bbf").unwrap());
        // Recursive calls preserve bbf: both recursive subgoals pass bound
        // args in the first two positions, free Zs in the third.
        assert_eq!(modes.get(&root).unwrap().to_string(), "bbf");
    }

    #[test]
    fn parser_modes() {
        // Example 6.1: e/t/n with first argument bound. The recursive calls
        // pass bound first args (C is bound by the earlier subgoal).
        let p = parse_program(
            "e(L, T) :- t(L, ['+'|C]), e(C, T).\n\
             e(L, T) :- t(L, T).\n\
             t(L, T) :- n(L, ['*'|C]), t(C, T).\n\
             t(L, T) :- n(L, T).\n\
             n(['('|A], T) :- e(A, [')'|T]).\n\
             n([L|T], T) :- z(L).",
        )
        .unwrap();
        let root = PredKey::new("e", 2);
        let modes = infer_modes(&p, &root, Adornment::parse("bf").unwrap());
        for name in ["e", "t", "n"] {
            assert_eq!(
                modes.get(&PredKey::new(name, 2)).unwrap().to_string(),
                "bf",
                "{name} should be bf"
            );
        }
        // z is called with its single argument bound... L is bound because
        // the head's first argument [L|T] is bound.
        assert_eq!(modes.get(&PredKey::new("z", 1)).unwrap().to_string(), "b");
    }

    #[test]
    fn negative_subgoal_binds_nothing() {
        let p = parse_program("p(X, Y) :- \\+ q(Y), r(X, Y).\nq(a).\nr(a, b).").unwrap();
        let root = PredKey::new("p", 2);
        let modes = infer_modes(&p, &root, Adornment::parse("bf").unwrap());
        // r is called with X bound, Y still free (the negation bound
        // nothing).
        assert_eq!(modes.get(&PredKey::new("r", 2)).unwrap().to_string(), "bf");
    }

    #[test]
    fn is_binds_lhs_only() {
        let p = parse_program("len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.").unwrap();
        let root = PredKey::new("len", 2);
        let modes = infer_modes(&p, &root, Adornment::parse("bf").unwrap());
        assert_eq!(modes.get(&root).unwrap().to_string(), "bf");
        assert!(modes.get(&PredKey::new("is", 2)).is_none(), "builtins are not adorned");
    }

    #[test]
    fn zero_arity_subgoals_get_empty_adornments() {
        let p = parse_program(
            "go :- init, \\+ stopped, run(X), check(X).\n\
             init.\nstopped.\nrun(a).\ncheck(a).",
        )
        .unwrap();
        let root = PredKey::new("go", 0);
        let modes = infer_modes(&p, &root, Adornment(vec![]));
        assert_eq!(modes.get(&root), Some(&Adornment(vec![])));
        assert_eq!(modes.get(&PredKey::new("init", 0)), Some(&Adornment(vec![])));
        // Negated zero-arity goals are adorned too — with no positions.
        assert_eq!(modes.get(&PredKey::new("stopped", 0)), Some(&Adornment(vec![])));
        // run/1 is reached with X free; check/1 sees X bound after run
        // succeeds.
        assert_eq!(modes.get(&PredKey::new("run", 1)).unwrap().to_string(), "f");
        assert_eq!(modes.get(&PredKey::new("check", 1)).unwrap().to_string(), "b");
    }

    #[test]
    fn negated_zero_arity_before_binding_goal() {
        // The negation contributes nothing, but the scan continues: q/1 is
        // still reached free and r/1 bound.
        let p = parse_program(
            "p(X) :- \\+ halt, q(Y), r(Y), s(X).\n\
                               halt.\nq(a).\nr(a).\ns(b).",
        )
        .unwrap();
        let modes = infer_modes(&p, &PredKey::new("p", 1), Adornment::parse("b").unwrap());
        assert_eq!(modes.get(&PredKey::new("q", 1)).unwrap().to_string(), "f");
        assert_eq!(modes.get(&PredKey::new("r", 1)).unwrap().to_string(), "b");
    }

    #[test]
    fn negated_goal_with_args_sees_bindings_but_binds_nothing() {
        // The negated q/2 is adorned with the bindings in scope at its
        // position (X bound, Y free), and contributes no bindings of its
        // own: r/1 on Y is still reached free.
        let p = parse_program("p(X) :- \\+ q(X, Y), r(Y).\nq(a, b).\nr(c).").unwrap();
        let modes = infer_modes(&p, &PredKey::new("p", 1), Adornment::parse("b").unwrap());
        assert_eq!(modes.get(&PredKey::new("q", 2)).unwrap().to_string(), "bf");
        assert_eq!(modes.get(&PredKey::new("r", 1)).unwrap().to_string(), "f");
    }

    #[test]
    fn builtin_detection() {
        assert!(is_builtin(&PredKey::new("=<", 2)));
        assert!(is_builtin(&PredKey::new("is", 2)));
        assert!(!is_builtin(&PredKey::new("append", 3)));
        assert!(!is_builtin(&PredKey::new("=<", 3)));
    }
}
