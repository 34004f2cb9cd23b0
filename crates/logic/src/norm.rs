//! Term-size norms.
//!
//! The paper fixes *structural term size* (§2.2) as its measure, while
//! noting that earlier work used others — Ullman–Van Gelder's "length of
//! right spine" "corresponds to length for lists, but is less natural for
//! binary trees" (§1.1). The whole LP-duality machinery is agnostic to the
//! choice as long as the measure is a linear polynomial in the sizes of a
//! term's variables with nonnegative coefficients. This module makes the
//! norm a parameter:
//!
//! * [`Norm::StructuralSize`] — the paper's measure: number of edges, i.e.
//!   the sum of the arities of the function symbols;
//! * [`Norm::ListLength`] — length of the right spine: `|v| = v`,
//!   `|c| = 0`, `|f(t1…tn)| = 1 + |tn|` — the [UVG88] measure;
//! * [`Norm::Depth`] — *not* expressible as a linear polynomial with the
//!   required shape (`depth(f(s,t)) = 1 + max(…)` is not linear), so it is
//!   deliberately absent; see the module tests for the demonstration.
//!
//! Different norms prove different programs. A recursion that drops one
//! element per call but may *grow* the elements is provable under
//! `ListLength` (element sizes don't count) and not under
//! `StructuralSize`; a recursion into the left branch of a tree is
//! invisible to `ListLength` (the right spine is unchanged).

use crate::term::{SizePolynomial, Term};

/// A linear term-size measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Norm {
    /// The paper's structural term size (§2.2): the number of edges in the
    /// term tree; for lists, `2·length + Σ element sizes`.
    #[default]
    StructuralSize,
    /// Length of the right spine ([UVG88]): for lists, exactly the list
    /// length, ignoring element sizes.
    ListLength,
}

impl Norm {
    /// The size polynomial of `t` under this norm: a constant plus
    /// nonnegative integer coefficients over `t`'s variables.
    pub fn polynomial(self, t: &Term) -> SizePolynomial {
        match self {
            Norm::StructuralSize => t.size_polynomial(),
            Norm::ListLength => {
                let mut p = SizePolynomial::default();
                right_spine(t, &mut p);
                p
            }
        }
    }

    /// Size of a ground term under this norm, if ground.
    pub fn ground_size(self, t: &Term) -> Option<u64> {
        let p = self.polynomial(t);
        if p.coeffs.is_empty() {
            Some(p.constant)
        } else {
            None
        }
    }

    /// Short name for display.
    pub fn name(self) -> &'static str {
        match self {
            Norm::StructuralSize => "structural-size",
            Norm::ListLength => "list-length",
        }
    }
}

fn right_spine(t: &Term, p: &mut SizePolynomial) {
    match t {
        Term::Var(v) => {
            *p.coeffs.entry(*v).or_insert(0) += 1;
        }
        Term::App(_, args) => match args.last() {
            None => {}
            Some(last) => {
                p.constant += 1;
                right_spine(last, p);
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;

    fn t(src: &str) -> Term {
        parse_term(src).unwrap()
    }

    #[test]
    fn structural_matches_term_method() {
        let term = t("f(a, [b, c], X)");
        assert_eq!(Norm::StructuralSize.polynomial(&term), term.size_polynomial());
    }

    #[test]
    fn list_length_on_lists() {
        // |[a, b, c]| = 3 regardless of element sizes.
        assert_eq!(Norm::ListLength.ground_size(&t("[a, b, c]")), Some(3));
        assert_eq!(Norm::ListLength.ground_size(&t("[f(f(f(a))), g(b, c, d)]")), Some(2));
        // Structural size counts everything.
        assert_eq!(Norm::StructuralSize.ground_size(&t("[a, b, c]")), Some(6));
    }

    #[test]
    fn list_length_open_list() {
        // |[a, b | T]| = 2 + T.
        let p = Norm::ListLength.polynomial(&t("[a, b | T]"));
        assert_eq!(p.constant, 2);
        assert_eq!(p.coeffs.len(), 1);
        assert_eq!(p.coeffs.values().copied().sum::<u64>(), 1);
    }

    #[test]
    fn list_length_ignores_left_subtrees() {
        // node(Big, x, leaf): right spine walks node -> leaf only.
        let p = Norm::ListLength.polynomial(&t("node(Big, x, leaf)"));
        assert_eq!(p.constant, 1, "one step into the rightmost child");
        assert!(p.coeffs.is_empty(), "Big is in the left subtree");
    }

    #[test]
    fn constants_are_zero_under_both() {
        for n in [Norm::StructuralSize, Norm::ListLength] {
            assert_eq!(n.ground_size(&t("a")), Some(0), "{}", n.name());
            assert_eq!(n.ground_size(&t("[]")), Some(0), "{}", n.name());
        }
    }

    #[test]
    fn variables_are_themselves() {
        for n in [Norm::StructuralSize, Norm::ListLength] {
            let p = n.polynomial(&t("X"));
            assert_eq!(p.constant, 0);
            assert_eq!(p.coeffs.len(), 1);
        }
    }

    #[test]
    fn names() {
        assert_eq!(Norm::StructuralSize.name(), "structural-size");
        assert_eq!(Norm::ListLength.name(), "list-length");
        assert_eq!(Norm::default(), Norm::StructuralSize);
    }
}
