//! Seeded input generation. Every workload's inputs are a pure function
//! of the `--seed` value: the corpus pass order, the scale programs, the
//! LSP edit stream, and the serve request mix.

use argus_prng::Rng64;

/// Mix a workload tag into the seed so workloads drawing from the same
/// `--seed` get independent streams.
pub fn rng(seed: u64, tag: u64) -> Rng64 {
    Rng64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(r: &mut Rng64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = r.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// An LSP range edit on a line-oriented document: replace the text from
/// `(start_line, start_char)` to `(end_line, end_char)` with `text`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// What the edit does to the document.
    pub kind: EditKind,
    /// Start position, `(line, character)`.
    pub start: (usize, usize),
    /// End position, `(line, character)`.
    pub end: (usize, usize),
    /// Replacement text.
    pub text: String,
}

/// The edit classes of an editing session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EditKind {
    /// Insert a copy of a rule next to it.
    Duplicate,
    /// Delete a rule.
    Delete,
    /// Undo the previous duplicate or delete.
    Restore,
    /// Replace the first character with itself: the text is unchanged.
    Noop,
}

impl EditKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            EditKind::Duplicate => "duplicate",
            EditKind::Delete => "delete",
            EditKind::Restore => "restore",
            EditKind::Noop => "noop",
        }
    }

    /// Whether the edit changes the text (and so writes the memo).
    pub fn changes_text(self) -> bool {
        self != EditKind::Noop
    }
}

/// A seeded stream of `count` edits on a document whose lines are
/// `lines` (one rule per line). Each duplicate or delete is followed,
/// possibly after a no-op, by the restore that undoes it, so the document
/// keeps returning to its base text. Both pick a rule uniformly among the
/// first `rule_lines` lines (the lines after them, such as the query
/// directive, are never touched), as the repository's `loadgen
/// --edit-stream` deletes every clause in turn.
///
/// The mix is an assumption, not a measurement of editor traffic: a third
/// of the ops are no-ops (an editor re-sending unchanged text), and the
/// rest split evenly between duplicates and deletes, so each op kind gets
/// its own median.
pub fn edit_stream(seed: u64, lines: &[String], rule_lines: usize, count: usize) -> Vec<Edit> {
    assert!(rule_lines > 0 && rule_lines <= lines.len(), "no rule lines to edit");
    let first_char = lines[0].chars().next().expect("nonempty first line").to_string();
    let noop = || Edit {
        kind: EditKind::Noop,
        start: (0, 0),
        end: (0, first_char.encode_utf16().count()),
        text: first_char.clone(),
    };
    let mut r = rng(seed, 0xED17);
    let mut out = Vec::with_capacity(count);
    let mut pending: Option<Edit> = None;
    while out.len() < count {
        if r.below(3) == 0 {
            out.push(noop());
            continue;
        }
        if let Some(undo) = pending.take() {
            out.push(undo);
            continue;
        }
        if r.bool() {
            let i = r.below(rule_lines as u64) as usize;
            out.push(Edit {
                kind: EditKind::Duplicate,
                start: (i, 0),
                end: (i, 0),
                text: format!("{}\n", lines[i]),
            });
            pending = Some(Edit {
                kind: EditKind::Restore,
                start: (i, 0),
                end: (i + 1, 0),
                text: String::new(),
            });
        } else {
            let i = r.below(rule_lines as u64) as usize;
            out.push(Edit {
                kind: EditKind::Delete,
                start: (i, 0),
                end: (i + 1, 0),
                text: String::new(),
            });
            pending = Some(Edit {
                kind: EditKind::Restore,
                start: (i, 0),
                end: (i, 0),
                text: format!("{}\n", lines[i]),
            });
        }
    }
    out
}

/// One serve request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Resubmit primed corpus entry `entry` unchanged (a report-cache hit).
    Repeat {
        /// Index into the primed entry list.
        entry: usize,
    },
    /// Submit entry `entry` plus one unique unreachable fact numbered
    /// `variant` (misses the report cache, mostly hits the SCC memo).
    Variant {
        /// Index into the primed entry list.
        entry: usize,
        /// Unique variant number.
        variant: u64,
    },
}

/// A seeded request mix: `count` requests over `entries` primed entries,
/// of which a `variant_pct` percentage are fresh variants drawn only from
/// `variant_entries`.
pub fn request_mix(
    seed: u64,
    entries: usize,
    variant_entries: &[usize],
    variant_pct: u64,
    count: usize,
) -> Vec<ServeOp> {
    assert!(entries > 0 && !variant_entries.is_empty(), "empty request mix");
    let mut r = rng(seed, 0x5E7E);
    let mut next_variant = 0u64;
    (0..count)
        .map(|_| {
            if r.below(100) < variant_pct {
                next_variant += 1;
                ServeOp::Variant { entry: *r.pick(variant_entries), variant: next_variant }
            } else {
                ServeOp::Repeat { entry: r.below(entries as u64) as usize }
            }
        })
        .collect()
}

/// The source text of a serve variant: the entry's program plus one fact
/// of a predicate nothing calls, whose argument spells `variant` as a list
/// of decimal digits. The text is unique per variant but its symbols are
/// not, so variants do not grow the process-wide symbol table, and a run's
/// memory does not grow with the number of requests it completes.
pub fn variant_source(source: &str, variant: u64) -> String {
    let mut s = source.to_string();
    if !s.ends_with('\n') {
        s.push('\n');
    }
    let digits: Vec<String> = variant.to_string().chars().map(String::from).collect();
    s.push_str(&format!("bench_variant([{}]).\n", digits.join(",")));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Vec<String> {
        let mut lines: Vec<String> = (0..50).map(|i| format!("p{i}(a).")).collect();
        lines.push("% argus query: p0/1 b".to_string());
        lines
    }

    /// Apply an edit to a line vector the way an LSP client would.
    fn apply(text: &mut String, e: &Edit) {
        let offset = |text: &str, (line, ch): (usize, usize)| -> usize {
            let start: usize = text.split_inclusive('\n').take(line).map(str::len).sum();
            start + ch
        };
        let (a, b) = (offset(text, e.start), offset(text, e.end));
        text.replace_range(a..b, &e.text);
    }

    #[test]
    fn edit_stream_is_seed_deterministic() {
        let lines = doc();
        let a = edit_stream(7, &lines, 50, 200);
        let b = edit_stream(7, &lines, 50, 200);
        assert_eq!(a, b);
        let c = edit_stream(8, &lines, 50, 200);
        assert_ne!(a, c, "a different seed gives a different stream");
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn edit_stream_restores_and_stays_in_bounds() {
        let lines = doc();
        let base = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        let stream = edit_stream(3, &lines, 50, 400);
        let mut text = base.clone();
        let mut open = false;
        for e in &stream {
            match e.kind {
                EditKind::Noop => {}
                EditKind::Restore => {
                    assert!(open, "restore without an open edit");
                    open = false;
                }
                EditKind::Duplicate => {
                    assert!(!open);
                    open = true;
                    assert!(e.start.0 < 50);
                }
                EditKind::Delete => {
                    assert!(!open);
                    open = true;
                    assert!(e.start.0 < 50);
                }
            }
            apply(&mut text, e);
            if !open {
                assert_eq!(text, base, "the document returns to its base text");
            }
            assert!(text.ends_with("% argus query: p0/1 b\n"), "directive untouched");
        }
        for kind in [EditKind::Duplicate, EditKind::Delete, EditKind::Restore, EditKind::Noop] {
            assert!(stream.iter().any(|e| e.kind == kind), "{kind:?} occurs");
        }
    }

    #[test]
    fn request_mix_is_seed_deterministic() {
        let a = request_mix(11, 39, &[0, 1, 2, 5], 30, 1000);
        assert_eq!(a, request_mix(11, 39, &[0, 1, 2, 5], 30, 1000));
        assert_ne!(a, request_mix(12, 39, &[0, 1, 2, 5], 30, 1000));
        let variants: Vec<u64> = a
            .iter()
            .filter_map(|op| match op {
                ServeOp::Variant { entry, variant } => {
                    assert!([0, 1, 2, 5].contains(entry));
                    Some(*variant)
                }
                ServeOp::Repeat { entry } => {
                    assert!(*entry < 39);
                    None
                }
            })
            .collect();
        let share = variants.len() as f64 / a.len() as f64;
        assert!((0.25..0.35).contains(&share), "variant share {share}");
        let mut unique = variants.clone();
        unique.dedup();
        assert_eq!(unique, variants, "variant numbers are unique and increasing");
    }

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let p = permutation(&mut rng(5, 1), 39);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..39).collect::<Vec<_>>());
        assert_eq!(p, permutation(&mut rng(5, 1), 39));
        assert_ne!(p, permutation(&mut rng(6, 1), 39));
    }

    #[test]
    fn variants_append_one_fact() {
        assert_eq!(variant_source("p(a).", 3), "p(a).\nbench_variant([3]).\n");
        assert_eq!(variant_source("p(a).\n", 102), "p(a).\nbench_variant([1,0,2]).\n");
    }
}
