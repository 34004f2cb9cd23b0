//! The process-wide arena byte gauge, in its own test binary: no other test
//! in this process builds or drops arenas while it reads the global.

use argus_logic::arena::{arena_bytes, TermArena};
use argus_logic::parser::parse_term;

#[test]
fn byte_gauge_rises_and_falls() {
    let before = arena_bytes();
    let mut arena = TermArena::new();
    for i in 0..256 {
        arena.insert(&parse_term(&format!("gauge_fn_{i}(X, [a, b])")).unwrap());
    }
    assert!(arena.bytes() > 0);
    assert!(arena_bytes() >= before + arena.bytes());
    let high = arena.bytes();
    drop(arena);
    assert!(arena_bytes() + high >= before + high, "gauge must not underflow");
    assert!(arena_bytes() < before + high, "drop must release the footprint");
}
