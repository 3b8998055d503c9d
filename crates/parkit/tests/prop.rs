//! Property tests for the parkit determinism contract (detkit::prop).
//!
//! The laws under test:
//! - `par_map` ≡ sequential `map`, for any input, chunk size, and pool width;
//! - `par_reduce_range` combines chunk folds left-to-right in chunk order,
//!   so its result — including float rounding — equals the sequential
//!   chunked fold at ANY pool width (the associativity-ordering law);
//! - empty and singleton inputs behave like their sequential counterparts;
//! - a panicking worker surfaces as a re-raised panic, never a hang or a
//!   partial result.

use std::panic::{catch_unwind, AssertUnwindSafe};

use detkit::prop::{self, vec_of, zip3};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use parkit::Pool;

/// Inputs: arbitrary values, an arbitrary (small) chunk size, and an
/// arbitrary pool width — the full determinism matrix.
fn inputs() -> detkit::prop::Gen<(Vec<i64>, usize, usize)> {
    zip3(&vec_of(&prop::i64s(-1_000, 1_000), 0, 120), &prop::usizes(1, 17), &prop::usizes(1, 9))
}

prop_check!(par_map_equals_sequential_map, inputs(), |(items, _, threads)| {
    let expected: Vec<i64> = items.iter().map(|x| x * 3 - 1).collect();
    let got = Pool::new(*threads).par_map(items, |x| x * 3 - 1);
    prop_assert_eq!(got, expected);
    Ok(())
});

prop_check!(par_map_range_chunked_equals_map, inputs(), |(items, chunk, threads)| {
    let expected: Vec<i64> = items.iter().map(|x| x ^ 0x5A).collect();
    let got = Pool::new(*threads).par_map_range_chunked(items.len(), *chunk, |i| items[i] ^ 0x5A);
    prop_assert_eq!(got, expected);
    Ok(())
});

// The associativity-ordering law: whatever the pool width, the reduction
// is (fold c0) ⊕ (fold c1) ⊕ … in chunk order. Checked on a NON-commutative
// combine (string concatenation), where any ordering slip is visible.
prop_check!(par_reduce_ordering_law, inputs(), |(items, chunk, threads)| {
    let fold = |c: &[i64]| c.iter().map(|x| format!("{x},")).collect::<String>();
    let expected = items.chunks(*chunk).map(fold).reduce(|a, b| a + &b);
    let got = Pool::new(*threads).par_reduce_range(
        items.len(),
        *chunk,
        |r| fold(&items[r]),
        |a, b| a + &b,
    );
    prop_assert_eq!(got, expected);
    Ok(())
});

// Float partial sums: bit-identical to the 1-thread result at any width
// and chunk size (chunk boundaries depend only on input length).
prop_check!(
    par_reduce_float_bits_stable,
    zip3(&vec_of(&prop::f64s(-1e6, 1e6), 0, 150), &prop::usizes(1, 17), &prop::usizes(2, 9)),
    |(items, chunk, threads)| {
        let sum = |pool: Pool| {
            pool.par_reduce_range(
                items.len(),
                *chunk,
                |r| items[r].iter().sum::<f64>(),
                |a, b| a + b,
            )
        };
        match (sum(Pool::sequential()), sum(Pool::new(*threads))) {
            (None, None) => Ok(()),
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} != {}", a, b);
                Ok(())
            }
            (a, b) => Err(format!("empty-ness diverged: {a:?} vs {b:?}")),
        }
    }
);

prop_check!(empty_and_singleton_edges, prop::usizes(1, 9), |threads| {
    let pool = Pool::new(*threads);
    let empty: Vec<u64> = Vec::new();
    prop_assert!(pool.par_map(&empty, |x| x + 1).is_empty());
    prop_assert_eq!(pool.par_reduce_range(0, 4, |r| r.len(), |a, b| a + b), None);
    prop_assert_eq!(pool.par_map(&[9u64], |x| x + 1), vec![10]);
    prop_assert_eq!(pool.par_reduce_range(1, 4, |r| r.len(), |a, b| a + b), Some(1));
    Ok(())
});

// A worker panic must come back as the original payload re-raised on the
// caller — never a hang, and never a partial Ok.
prop_check!(
    panic_in_worker_propagates_as_error,
    zip3(&prop::usizes(0, 99), &prop::usizes(1, 17), &prop::usizes(1, 9)),
    |(bad, _, threads)| {
        let items: Vec<usize> = (0..100).collect();
        let bad = *bad;
        let result = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(*threads).par_map(&items, |&x| {
                if x == bad {
                    panic!("injected failure at {x}");
                }
                x
            })
        }));
        match result {
            Err(payload) => {
                let message = payload.downcast_ref::<String>().map_or("", String::as_str);
                prop_assert!(message.contains("injected failure"), "unexpected: {:?}", message);
                Ok(())
            }
            Ok(_) => Err("panicking map returned Ok".to_string()),
        }
    }
);
