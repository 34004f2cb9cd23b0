//! # argus-corpus — the evaluation corpus
//!
//! Every program the experiments run on: the paper's four worked examples
//! (3.1 `perm`, 5.1 `merge`, 6.1 expression parser, A.1), classic list and
//! tree programs, arithmetic programs, and deliberately nonterminating
//! controls. Each entry records the queried predicate and adornment, the
//! ground-truth termination behaviour of that mode, what this library's
//! analyzer is expected to prove (a regression pin — the method is sound
//! but incomplete, so `terminates = true, expected_provable = false` is a
//! legitimate combination), and concrete sample queries for the empirical
//! validation experiment (E6).

#![warn(missing_docs)]

use argus_logic::parser::{parse_program, ParseError};
use argus_logic::Program;

/// One corpus program with its analysis metadata.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Unique short name.
    pub name: &'static str,
    /// Prolog source text.
    pub source: &'static str,
    /// Query predicate as `name/arity`.
    pub query: &'static str,
    /// Bound–free adornment of the query (e.g. `"bf"`).
    pub adornment: &'static str,
    /// Ground truth: does top-down evaluation of this mode terminate on
    /// all queries (finite search tree)?
    pub terminates: bool,
    /// Regression pin: does THIS library's analyzer prove it?
    pub expected_provable: bool,
    /// Paper reference, when the program comes from the paper.
    pub paper_ref: Option<&'static str>,
    /// One-line description.
    pub description: &'static str,
    /// Concrete queries (with the declared mode's bound arguments ground)
    /// for empirical validation.
    pub sample_queries: &'static [&'static str],
}

impl CorpusEntry {
    /// Parse the program source.
    pub fn program(&self) -> Result<Program, ParseError> {
        parse_program(self.source)
    }

    /// The query as a `(PredKey, Adornment)` pair.
    pub fn query_key(&self) -> (argus_logic::PredKey, argus_logic::Adornment) {
        argus_logic::parse_query_spec(self.query, self.adornment).expect("corpus query spec")
    }
}

/// The full corpus.
pub fn corpus() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "append_bff",
            source: APPEND,
            query: "append/3",
            adornment: "bff",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "list concatenation, input list bound",
            sample_queries: &[
                "append([], [x], Z)",
                "append([a, b, c], W, Z)",
                "append([a, b, c, d, e, f], [g], Z)",
            ],
        },
        CorpusEntry {
            name: "append_ffb",
            source: APPEND,
            query: "append/3",
            adornment: "ffb",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "list splitting, output list bound (all splits enumerated)",
            sample_queries: &[
                "append(X, Y, [])",
                "append(X, Y, [a, b, c])",
                "append(X, Y, [a, b, c, d, e, f, g])",
            ],
        },
        CorpusEntry {
            name: "append_fff",
            source: APPEND,
            query: "append/3",
            adornment: "fff",
            terminates: false,
            expected_provable: false,
            paper_ref: None,
            description: "append as an unbounded generator (no argument bound)",
            sample_queries: &["append(X, Y, Z)"],
        },
        CorpusEntry {
            name: "perm",
            source: PERM,
            query: "perm/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: Some("Example 3.1 / 4.1"),
            description: "permutation generation via double append; needs the \
                          3-variable append size relation (no earlier method proves it)",
            sample_queries: &["perm([], Q)", "perm([a, b, c], Q)", "perm([a, b, c, d], Q)"],
        },
        CorpusEntry {
            name: "merge",
            source: MERGE,
            query: "merge/3",
            adornment: "bbf",
            terminates: true,
            expected_provable: true,
            paper_ref: Some("Example 5.1"),
            description: "ordered merge; the SUM of the two bound arguments decreases \
                          while neither decreases alone",
            sample_queries: &[
                "merge([], [], Z)",
                "merge([1, 3, 5], [2, 4], Z)",
                "merge([1, 2, 3, 4], [1, 2, 3, 4, 5], Z)",
            ],
        },
        CorpusEntry {
            name: "expr_parser",
            source: PARSER,
            query: "e/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: Some("Example 6.1"),
            description: "recursive-descent arithmetic expression parser: mutual AND \
                          nonlinear recursion with delta bookkeeping",
            sample_queries: &[
                "e([7], T)",
                "e([7, '+', 8], T)",
                "e(['(', 7, '+', 8, ')', '*', 9], T)",
            ],
        },
        CorpusEntry {
            name: "appendix_a1",
            source: APPENDIX_A1,
            query: "p/1",
            adornment: "b",
            terminates: true,
            expected_provable: true,
            paper_ref: Some("Example A.1"),
            description: "apparent mutual recursion with constant argument size; \
                          provable only after safe unfolding + predicate splitting",
            sample_queries: &["p(g(c))", "p(g(g(c)))", "p(f(c))"],
        },
        CorpusEntry {
            name: "naive_reverse",
            source: NAIVE_REVERSE,
            query: "nrev/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "quadratic list reversal through append",
            sample_queries: &["nrev([], R)", "nrev([a, b, c, d], R)"],
        },
        CorpusEntry {
            name: "reverse_acc",
            source: REVERSE_ACC,
            query: "reverse/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "linear reversal with an accumulator",
            sample_queries: &["reverse([], R)", "reverse([a, b, c, d, e], R)"],
        },
        CorpusEntry {
            name: "quicksort",
            source: QUICKSORT,
            query: "qsort/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "nonlinear divide and conquer; needs partition's size relation (§6.2)",
            sample_queries: &["qsort([], S)", "qsort([3, 1, 4, 1, 5, 9, 2, 6], S)"],
        },
        CorpusEntry {
            name: "mergesort",
            source: MERGESORT,
            query: "msort/2",
            adornment: "bf",
            terminates: true,
            expected_provable: false,
            paper_ref: None,
            description: "mergesort with alternating split — terminates, but the strict \
                          shrinkage of both halves needs reasoning beyond a convex \
                          linear size relation (a known incompleteness of the method)",
            sample_queries: &["msort([], S)", "msort([3, 1, 2], S)"],
        },
        CorpusEntry {
            name: "ackermann",
            source: ACKERMANN,
            query: "ack/3",
            adornment: "bbf",
            terminates: true,
            expected_provable: false,
            paper_ref: None,
            description: "Ackermann's function: terminates by lexicographic descent, \
                          which no single linear combination captures (§7 limitation)",
            sample_queries: &["ack(z, s(z), R)", "ack(s(s(z)), s(s(z)), R)"],
        },
        CorpusEntry {
            name: "even_odd",
            source: EVEN_ODD,
            query: "even/1",
            adornment: "b",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "textbook mutual recursion over unary naturals",
            sample_queries: &["even(z)", "even(s(s(s(s(z)))))", "even(s(z))"],
        },
        CorpusEntry {
            name: "tree_mirror",
            source: TREE_MIRROR,
            query: "mirror/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "binary tree mirroring: nonlinear structural recursion",
            sample_queries: &["mirror(leaf, M)", "mirror(node(node(leaf, a, leaf), b, leaf), M)"],
        },
        CorpusEntry {
            name: "tree_insert",
            source: TREE_INSERT,
            query: "insert/3",
            adornment: "bbf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "ordered binary tree insertion",
            sample_queries: &[
                "insert(5, leaf, T)",
                "insert(3, node(node(leaf, 2, leaf), 4, leaf), T)",
            ],
        },
        CorpusEntry {
            name: "hanoi",
            source: HANOI,
            query: "hanoi/5",
            adornment: "bbbbf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "towers of Hanoi: exponential but terminating nonlinear recursion",
            sample_queries: &["hanoi(s(s(z)), a, b, c, M)", "hanoi(s(s(s(z))), a, b, c, M)"],
        },
        CorpusEntry {
            name: "list_sum",
            source: LIST_SUM,
            query: "sum/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "fold with arithmetic (is/2) over a bound list",
            sample_queries: &["sum([], S)", "sum([1, 2, 3, 4, 5], S)"],
        },
        CorpusEntry {
            name: "member_check",
            source: MEMBER,
            query: "member/2",
            adornment: "fb",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "membership with the list bound (element may be free)",
            sample_queries: &["member(X, [a, b, c])", "member(b, [a, b, c])"],
        },
        CorpusEntry {
            name: "select_delete",
            source: SELECT,
            query: "select/3",
            adornment: "fbf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "nondeterministic element selection from a bound list",
            sample_queries: &["select(X, [a, b, c], R)"],
        },
        CorpusEntry {
            name: "flatten_acc",
            source: FLATTEN,
            query: "flatten/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "tree-of-lists flattening via append (3-variable constraint showcase)",
            sample_queries: &["flatten(nested(nested(lf(a), lf(b)), lf(c)), F)"],
        },
        CorpusEntry {
            name: "transitive_closure",
            source: TRANSITIVE_CLOSURE,
            query: "tc/2",
            adornment: "bf",
            terminates: false,
            expected_provable: false,
            paper_ref: Some("§1 capture-rule motivation"),
            description: "graph reachability over a cyclic EDB: loops top-down, converges \
                          bottom-up — the capture-rule scenario",
            sample_queries: &["tc(a, Y)"],
        },
        CorpusEntry {
            name: "loop_direct",
            source: LOOP_DIRECT,
            query: "p/1",
            adornment: "b",
            terminates: false,
            expected_provable: false,
            paper_ref: None,
            description: "the trivial direct loop (control; nothing may prove it)",
            sample_queries: &["p(a)"],
        },
        CorpusEntry {
            name: "loop_mutual",
            source: LOOP_MUTUAL,
            query: "p/1",
            adornment: "b",
            terminates: false,
            expected_provable: false,
            paper_ref: Some("§6.1 step 3"),
            description: "mutual loop with no size change: the zero-weight-cycle report",
            sample_queries: &["p(a)"],
        },
        CorpusEntry {
            name: "loop_growing",
            source: LOOP_GROWING,
            query: "p/1",
            adornment: "b",
            terminates: false,
            expected_provable: false,
            paper_ref: None,
            description: "recursion that grows its own argument",
            sample_queries: &["p([a])"],
        },
        CorpusEntry {
            name: "nat_minus",
            source: NAT_MINUS,
            query: "minus/3",
            adornment: "bbf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "subtraction on unary naturals (simultaneous descent)",
            sample_queries: &["minus(s(s(s(z))), s(z), D)"],
        },
        CorpusEntry {
            name: "perm_select",
            source: PERM_SELECT,
            query: "perm2/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "permutations via select/3 — like Example 3.1, provable only \
                          through a three-variable size relation (|L| = 2 + |X| + |R|)",
            sample_queries: &["perm2([], Q)", "perm2([a, b, c], Q)"],
        },
        CorpusEntry {
            name: "dutch_flag",
            source: DUTCH_FLAG,
            query: "distribute/4",
            adornment: "bfff",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "three-way partition (Dutch national flag)",
            sample_queries: &["distribute([r, w, b, r, w], R, W, B)"],
        },
        CorpusEntry {
            name: "fib_nat",
            source: FIB_NAT,
            query: "fib/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "Fibonacci on unary naturals: nonlinear recursion with \
                          simultaneous shallow descents",
            sample_queries: &["fib(z, F)", "fib(s(s(s(s(z)))), F)"],
        },
        CorpusEntry {
            name: "nat_arith",
            source: NAT_ARITH,
            query: "mult/3",
            adornment: "bbf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "multiplication via addition on unary naturals (layered SCCs)",
            sample_queries: &["mult(s(s(z)), s(s(s(z))), P)"],
        },
        CorpusEntry {
            name: "palindrome",
            source: PALINDROME,
            query: "palindrome/1",
            adornment: "b",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "palindrome test via accumulator reverse",
            sample_queries: &["palindrome([a, b, a])", "palindrome([a, b])"],
        },
        CorpusEntry {
            name: "sublist_gen",
            source: SUBLIST,
            query: "sublist/2",
            adornment: "fb",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "subsequence enumeration from a bound list",
            sample_queries: &["sublist(S, [a, b, c])"],
        },
        CorpusEntry {
            name: "tree_sum",
            source: TREE_SUM,
            query: "tsum/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "nonlinear tree fold with arithmetic",
            sample_queries: &["tsum(node(node(leaf, 1, leaf), 2, node(leaf, 3, leaf)), S)"],
        },
        CorpusEntry {
            name: "left_recursive_grammar",
            source: LEFT_RECURSION,
            query: "expr/2",
            adornment: "bf",
            terminates: false,
            expected_provable: false,
            paper_ref: Some("§7 (termination by unification failure is out of scope)"),
            description: "left-recursive grammar: the classic Prolog nonterminating parser",
            sample_queries: &["expr([n, '+', n], R)"],
        },
        CorpusEntry {
            name: "zip_pairs",
            source: ZIP,
            query: "zip/3",
            adornment: "bbf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "simultaneous descent over two bound lists",
            sample_queries: &["zip([a, b], [1, 2], Z)"],
        },
        CorpusEntry {
            name: "mutual_fib_ring",
            source: MUTUAL_FIB_RING,
            query: "f0/2",
            adornment: "bf",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "tetranacci over a 3-predicate mutual-recursion ring; the \
                          staggered call depths give every predicate a many-facet \
                          size relation, making this the corpus's FM stress test \
                          (projections blow up without redundancy elimination)",
            sample_queries: &[
                "f0(z, R)",
                "f0(s(s(s(s(s(z))))), R)",
                "f0(s(s(s(s(s(s(s(z))))))), R)",
            ],
        },
        CorpusEntry {
            name: "sct_lex_reset",
            source: SCT_LEX_RESET,
            query: "d/2",
            adornment: "bb",
            terminates: true,
            expected_provable: false,
            paper_ref: None,
            description: "lexicographic descent with a doubling reset of the minor \
                          argument: the θ-method is infeasible (any weight on arg2 \
                          is defeated by the 2× reset), while size-change \
                          termination proves it from the per-call graphs",
            sample_queries: &["d(z, z)", "d(s(s(z)), s(z))", "d(s(z), s(s(z)))"],
        },
        CorpusEntry {
            name: "sct_lex_reset_append",
            source: SCT_LEX_RESET_APPEND,
            query: "w/2",
            adornment: "bb",
            terminates: true,
            expected_provable: false,
            paper_ref: None,
            description: "list-norm variant of the reset pattern: the minor argument \
                          is reset through append's 3-variable size relation \
                          (|Zs| = 2|Ys|); SCT-provable, θ-infeasible",
            sample_queries: &["w(z, [])", "w(s(z), [a])", "w(s(s(z)), [a, b])"],
        },
        CorpusEntry {
            name: "sct_lex_reset_mutual",
            source: SCT_LEX_RESET_MUTUAL,
            query: "pm/2",
            adornment: "bb",
            terminates: true,
            expected_provable: false,
            paper_ref: None,
            description: "the reset pattern spread over a 2-predicate mutual ring: \
                          size-change graphs compose across the ring and prove it; \
                          the θ-system forces both arg2 weights to zero and fails",
            sample_queries: &["pm(z, z)", "pm(s(z), s(z))", "pm(s(s(z)), s(z))"],
        },
        CorpusEntry {
            name: "theta_crossed_descent",
            source: THETA_CROSSED,
            query: "m/2",
            adornment: "bb",
            terminates: true,
            expected_provable: true,
            paper_ref: None,
            description: "crossed growth: each rule grows one argument while \
                          shrinking the other by two, so x1 + x2 decreases (θ \
                          proves it) but no single argument pair descends — the \
                          size-change closure's idempotents have no strict \
                          self-edge",
            sample_queries: &["m(z, s(z))", "m(s(s(z)), s(s(s(z))))", "m(s(s(s(z))), s(s(z)))"],
        },
    ]
}

/// Look up an entry by name.
pub fn find(name: &str) -> Option<CorpusEntry> {
    corpus().into_iter().find(|e| e.name == name)
}

/// Hand-checked termination conditions the backwards inference (`argus
/// infer`) must reproduce: `(entry name, predicate spec, condition)`,
/// with the condition in the `Dnf` rendering (`"arg1 bound or arg3
/// bound"`). Not every entry is listed — only those whose conditions were
/// verified by hand against the program semantics, as regression pins.
pub fn expected_conditions() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("append_bff", "append/3", "arg1 bound or arg3 bound"),
        ("perm", "perm/2", "arg1 bound"),
        ("perm", "append/3", "arg1 bound or arg3 bound"),
        ("reverse_acc", "reverse/2", "arg1 bound"),
        ("reverse_acc", "rev/3", "arg1 bound"),
        ("mutual_fib_ring", "f0/2", "arg1 bound"),
        ("mutual_fib_ring", "f1/2", "arg1 bound"),
        ("mutual_fib_ring", "f2/2", "arg1 bound"),
        ("mutual_fib_ring", "plus/3", "arg1 bound or arg3 bound"),
    ]
}

// ---------------------------------------------------------------- sources

const APPEND: &str = "\
append([], Ys, Ys).
append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
";

const PERM: &str = "\
perm([], []).
perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).
append([], Ys, Ys).
append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
";

const MERGE: &str = "\
merge([], Ys, Ys).
merge(Xs, [], Xs).
merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).
merge([X|Xs], [Y|Ys], [Y|Zs]) :- Y =< X, merge(Ys, [X|Xs], Zs).
";

const PARSER: &str = "\
e(L, T) :- t(L, ['+'|C]), e(C, T).
e(L, T) :- t(L, T).
t(L, T) :- n(L, ['*'|C]), t(C, T).
t(L, T) :- n(L, T).
n(['('|A], T) :- e(A, [')'|T]).
n([L|T], T) :- z(L).
z(7).
z(8).
z(9).
";

const APPENDIX_A1: &str = "\
p(g(X)) :- e(X).
p(g(X)) :- q(f(X)).
q(Y) :- p(Y).
q(f(Z)) :- p(Z), q(Z).
e(c).
";

const NAIVE_REVERSE: &str = "\
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
nrev([], []).
nrev([X|Xs], R) :- nrev(Xs, R1), app(R1, [X], R).
";

const REVERSE_ACC: &str = "\
reverse(Xs, Ys) :- rev(Xs, [], Ys).
rev([], Acc, Acc).
rev([X|Xs], Acc, Ys) :- rev(Xs, [X|Acc], Ys).
";

const QUICKSORT: &str = "\
qsort([], []).
qsort([X|Xs], S) :- part(Xs, X, L, G), qsort(L, SL), qsort(G, SG), app(SL, [X|SG], S).
part([], _, [], []).
part([Y|Ys], X, [Y|L], G) :- Y =< X, part(Ys, X, L, G).
part([Y|Ys], X, L, [Y|G]) :- Y > X, part(Ys, X, L, G).
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
";

const MERGESORT: &str = "\
msort([], []).
msort([X], [X]).
msort([X, Y|R], S) :- split([X, Y|R], L1, L2), msort(L1, S1), msort(L2, S2), merge(S1, S2, S).
split([], [], []).
split([X|Xs], [X|O], E) :- split(Xs, E, O).
merge([], Ys, Ys).
merge(Xs, [], Xs).
merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).
merge([X|Xs], [Y|Ys], [Y|Zs]) :- Y =< X, merge(Ys, [X|Xs], Zs).
";

const ACKERMANN: &str = "\
ack(z, N, s(N)).
ack(s(M), z, R) :- ack(M, s(z), R).
ack(s(M), s(N), R) :- ack(s(M), N, R1), ack(M, R1, R).
";

const EVEN_ODD: &str = "\
even(z).
even(s(N)) :- odd(N).
odd(s(N)) :- even(N).
";

const TREE_MIRROR: &str = "\
mirror(leaf, leaf).
mirror(node(L, X, R), node(RM, X, LM)) :- mirror(R, RM), mirror(L, LM).
";

const TREE_INSERT: &str = "\
insert(X, leaf, node(leaf, X, leaf)).
insert(X, node(L, Y, R), node(L1, Y, R)) :- X =< Y, insert(X, L, L1).
insert(X, node(L, Y, R), node(L, Y, R1)) :- X > Y, insert(X, R, R1).
";

const HANOI: &str = "\
hanoi(z, _, _, _, []).
hanoi(s(N), From, To, Via, Moves) :-
    hanoi(N, From, Via, To, M1),
    hanoi(N, Via, To, From, M2),
    app(M1, [move(From, To)|M2], Moves).
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
";

const LIST_SUM: &str = "\
sum([], 0).
sum([X|Xs], S) :- sum(Xs, S1), S is S1 + X.
";

const MEMBER: &str = "\
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
";

const SELECT: &str = "\
select(X, [X|Xs], Xs).
select(X, [Y|Ys], [Y|Zs]) :- select(X, Ys, Zs).
";

const FLATTEN: &str = "\
flatten(lf(X), [X]).
flatten(nested(L, R), F) :- flatten(L, FL), flatten(R, FR), app(FL, FR, F).
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
";

const TRANSITIVE_CLOSURE: &str = "\
edge(a, b).
edge(b, c).
edge(c, a).
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
";

const LOOP_DIRECT: &str = "\
p(X) :- p(X).
p(a).
";

const LOOP_MUTUAL: &str = "\
p(X) :- q(X).
q(X) :- p(X).
";

const LOOP_GROWING: &str = "\
p([]).
p([X|Xs]) :- p([a, X|Xs]).
";

const NAT_MINUS: &str = "\
minus(X, z, X).
minus(s(X), s(Y), Z) :- minus(X, Y, Z).
";

const ZIP: &str = "\
zip([], [], []).
zip([X|Xs], [Y|Ys], [pair(X, Y)|Zs]) :- zip(Xs, Ys, Zs).
";

// Kept in sync with `argus_bench::workload::mutual_fib_ring_program(3, 4)`
// (a bench test guards against drift).
const MUTUAL_FIB_RING: &str = "\
plus(z, Y, Y).
plus(s(X), Y, s(Z)) :- plus(X, Y, Z).
f0(z, z).
f0(s(z), s(z)).
f0(s(s(z)), s(z)).
f0(s(s(s(z))), s(z)).
f0(s(s(s(s(N)))), R) :- f1(s(s(s(N))), A0), f1(s(s(N)), A1), f1(s(N), A2), f1(N, A3),
                        plus(A0, A1, T1), plus(T1, A2, T2), plus(T2, A3, R).
f1(z, z).
f1(s(z), s(z)).
f1(s(s(z)), s(z)).
f1(s(s(s(z))), s(z)).
f1(s(s(s(s(N)))), R) :- f2(s(s(s(N))), A0), f2(s(s(N)), A1), f2(s(N), A2), f2(N, A3),
                        plus(A0, A1, T1), plus(T1, A2, T2), plus(T2, A3, R).
f2(z, z).
f2(s(z), s(z)).
f2(s(s(z)), s(z)).
f2(s(s(s(z))), s(z)).
f2(s(s(s(s(N)))), R) :- f0(s(s(s(N))), A0), f0(s(s(N)), A1), f0(s(N), A2), f0(N, A3),
                        plus(A0, A1, T1), plus(T1, A2, T2), plus(T2, A3, R).
";

const PERM_SELECT: &str = "\
perm2([], []).
perm2(L, [X|P]) :- select(X, L, R), perm2(R, P).
select(X, [X|Xs], Xs).
select(X, [Y|Ys], [Y|Zs]) :- select(X, Ys, Zs).
";

const DUTCH_FLAG: &str = "\
distribute([], [], [], []).
distribute([r|Xs], [r|R], W, B) :- distribute(Xs, R, W, B).
distribute([w|Xs], R, [w|W], B) :- distribute(Xs, R, W, B).
distribute([b|Xs], R, W, [b|B]) :- distribute(Xs, R, W, B).
";

const FIB_NAT: &str = "\
fib(z, z).
fib(s(z), s(z)).
fib(s(s(N)), F) :- fib(s(N), F1), fib(N, F2), plus(F1, F2, F).
plus(z, Y, Y).
plus(s(X), Y, s(Z)) :- plus(X, Y, Z).
";

const NAT_ARITH: &str = "\
plus(z, Y, Y).
plus(s(X), Y, s(Z)) :- plus(X, Y, Z).
mult(z, _, z).
mult(s(X), Y, Z) :- mult(X, Y, W), plus(W, Y, Z).
";

const PALINDROME: &str = "\
palindrome(Xs) :- rev(Xs, [], Xs).
rev([], Acc, Acc).
rev([X|Xs], Acc, Ys) :- rev(Xs, [X|Acc], Ys).
";

const SUBLIST: &str = "\
sublist([], []).
sublist([X|S], [X|Xs]) :- sublist(S, Xs).
sublist(S, [_|Xs]) :- sublist(S, Xs).
";

const TREE_SUM: &str = "\
tsum(leaf, 0).
tsum(node(L, X, R), S) :- tsum(L, SL), tsum(R, SR), S is SL + SR + X.
";

const LEFT_RECURSION: &str = "\
expr(L, R) :- expr(L, M), eat_plus(M, M1), term(M1, R).
expr(L, R) :- term(L, R).
term([n|R], R).
eat_plus(['+'|R], R).
";

const SCT_LEX_RESET: &str = "\
double(z, z).
double(s(N), s(s(M))) :- double(N, M).
d(z, Y).
d(s(X), Y) :- double(Y, A), d(X, A).
d(X, s(Y)) :- d(X, Y).
";

const SCT_LEX_RESET_APPEND: &str = "\
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
w(z, Ys).
w(s(X), Ys) :- app(Ys, Ys, Zs), w(X, Zs).
w(X, [Y|Ys]) :- w(X, Ys).
";

const SCT_LEX_RESET_MUTUAL: &str = "\
double(z, z).
double(s(N), s(s(M))) :- double(N, M).
pm(z, Y).
pm(s(X), Y) :- double(Y, A), qm(X, A).
pm(X, s(Y)) :- qm(X, Y).
qm(z, Y).
qm(s(X), Y) :- double(Y, A), pm(X, A).
qm(X, s(Y)) :- pm(X, Y).
";

const THETA_CROSSED: &str = "\
m(z, Y).
m(X, z).
m(X, s(s(Y))) :- m(s(X), Y).
m(s(s(X)), Y) :- m(X, s(Y)).
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_entries_parse() {
        for e in corpus() {
            let p = e.program().unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert!(!p.rules.is_empty(), "{} has rules", e.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = corpus().iter().map(|e| e.name).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn query_keys_resolve() {
        for e in corpus() {
            let (key, adn) = e.query_key();
            assert_eq!(key.arity, adn.arity(), "{}", e.name);
            let p = e.program().unwrap();
            assert!(p.idb_predicates().contains(&key), "{}: query {key} not defined", e.name);
        }
    }

    #[test]
    fn sample_queries_parse() {
        for e in corpus() {
            for q in e.sample_queries {
                argus_logic::parser::parse_query(q)
                    .unwrap_or_else(|err| panic!("{}: {q}: {err}", e.name));
            }
        }
    }

    #[test]
    fn provable_implies_terminating() {
        // Soundness of the metadata itself: we never expect to prove a
        // nonterminating mode.
        for e in corpus() {
            if e.expected_provable {
                assert!(e.terminates, "{}: provable but not terminating?!", e.name);
            }
        }
    }

    #[test]
    fn find_works() {
        assert!(find("perm").is_some());
        assert!(find("nonexistent").is_none());
        assert_eq!(find("perm").unwrap().paper_ref, Some("Example 3.1 / 4.1"));
    }

    #[test]
    fn paper_examples_present() {
        let refs: Vec<_> = corpus().iter().filter_map(|e| e.paper_ref).collect();
        assert!(refs.iter().any(|r| r.contains("3.1")));
        assert!(refs.iter().any(|r| r.contains("5.1")));
        assert!(refs.iter().any(|r| r.contains("6.1")));
        assert!(refs.iter().any(|r| r.contains("A.1")));
    }
}
