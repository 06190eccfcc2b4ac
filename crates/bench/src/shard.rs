//! Shard windows: deterministic corpus partitioning for out-of-process
//! sweeps.
//!
//! A sweep worker is an ordinary `exp <name>` run invoked with
//! `--shard <i>/<N>` (parsed by [`crate::experiment_main`]). Experiments
//! with an indexed instance corpus ask this module for their window via
//! [`window`] and are listed in [`WINDOWED`]; an unsharded run gets the
//! full corpus back, so the same code path serves both modes.
//! Partitioning is **contiguous by index** —
//! shard `i` of `N` over a corpus of `total` instances owns
//! `[⌊total·i/N⌋, ⌊total·(i+1)/N⌋)` — which makes the windows disjoint,
//! exhaustive, and a pure function of `(total, i, N)`: the determinism
//! bar (merged counters byte-identical at every shard width) reduces to
//! "every counter increment is attributable to exactly one instance",
//! which each sharded experiment upholds by constructing *only* its
//! window's instances.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The experiments that window their corpus through [`window`] — the only
/// ones `--shard` and `defender sweep` accept. Any other experiment runs
/// its whole corpus in every shard, so N "shards" would count every
/// instance N times.
pub const WINDOWED: &[&str] = &["e1", "e15"];

/// Shard index of the current process (meaningful while `SHARD_TOTAL` is
/// non-zero).
static SHARD_INDEX: AtomicU64 = AtomicU64::new(0);
/// Shard count; `0` means "not sharded".
static SHARD_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Declares this process to be shard `index` of `total`.
///
/// # Errors
///
/// Rejects `total == 0` and `index >= total`.
pub fn set_shard(index: u64, total: u64) -> Result<(), String> {
    if total == 0 {
        return Err("shard count must be at least 1".to_string());
    }
    if index >= total {
        return Err(format!(
            "shard index {index} out of range for {total} shard(s) (indices are 0-based)"
        ));
    }
    SHARD_INDEX.store(index, Ordering::Relaxed);
    SHARD_TOTAL.store(total, Ordering::Relaxed);
    Ok(())
}

/// Clears the shard declaration (tests).
pub fn clear_shard() {
    SHARD_TOTAL.store(0, Ordering::Relaxed);
    SHARD_INDEX.store(0, Ordering::Relaxed);
}

/// The `(index, total)` declared via [`set_shard`], if any.
#[must_use]
pub fn shard() -> Option<(u64, u64)> {
    let total = SHARD_TOTAL.load(Ordering::Relaxed);
    if total == 0 {
        None
    } else {
        Some((SHARD_INDEX.load(Ordering::Relaxed), total))
    }
}

/// Whether this process runs a proper sub-window of its corpora (shard
/// count > 1). Experiments guard *global* corpus assertions (extreme
/// values over the whole atlas) behind this: a window cannot witness a
/// whole-corpus fact.
#[must_use]
pub fn sharded() -> bool {
    shard().is_some_and(|(_, total)| total > 1)
}

/// The contiguous window of shard `index` of `shards` over `total`
/// instances: `[⌊total·index/shards⌋, ⌊total·(index+1)/shards⌋)`.
///
/// Windows partition `0..total` exactly (disjoint, exhaustive, in index
/// order) and every window's length is `⌊total/shards⌋` or
/// `⌈total/shards⌉`. Intermediate products use `u128`, so corpora up to
/// `u64::MAX` instances cannot overflow.
#[must_use]
pub fn window_of(total: usize, index: u64, shards: u64) -> Range<usize> {
    debug_assert!(shards > 0 && index < shards);
    let cut = |i: u64| -> usize {
        let exact = (total as u128) * u128::from(i) / u128::from(shards.max(1));
        // lint-free cast: exact ≤ total, which already fit in usize.
        usize::try_from(exact).unwrap_or(total)
    };
    cut(index)..cut(index + 1)
}

/// The current process's window over a corpus of `total` instances: the
/// full range when unsharded, the [`window_of`] slice when `--shard i/N`
/// was given. When sharded it also records the shard-shape metrics
/// (`sw.shard_index`/`sw.shard_total` gauges, `sw.window_instances`
/// counter — all segregated into the sidecar's "parallelism" section,
/// since they vary with shard width by construction).
#[must_use]
pub fn window(total: usize) -> Range<usize> {
    let Some((index, shards)) = shard() else {
        return 0..total;
    };
    let range = window_of(total, index, shards);
    defender_obs::gauge!("sw.shard_index").set(index);
    defender_obs::gauge!("sw.shard_total").set(shards);
    defender_obs::counter!("sw.window_instances").add((range.end - range.start) as u64);
    range
}

/// Parses the `--shard` flag value `"<i>/<N>"`.
///
/// # Errors
///
/// Reports malformed values and out-of-range indices.
pub fn parse_shard_flag(value: &str) -> Result<(u64, u64), String> {
    let usage =
        || format!("option `--shard` needs the form <index>/<count> (e.g. 0/3), got `{value}`");
    let (index, total) = value.split_once('/').ok_or_else(usage)?;
    let index: u64 = index.trim().parse().map_err(|_| usage())?;
    let total: u64 = total.trim().parse().map_err(|_| usage())?;
    if total == 0 {
        return Err("option `--shard` needs a count of at least 1".to_string());
    }
    if index >= total {
        return Err(format!(
            "option `--shard`: index {index} out of range for {total} shard(s) (0-based)"
        ));
    }
    Ok((index, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_the_corpus_exactly() {
        for total in [0usize, 1, 2, 16, 17, 1000, 1024] {
            for shards in [1u64, 2, 3, 7, 16, 64] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for i in 0..shards {
                    let w = window_of(total, i, shards);
                    assert_eq!(w.start, prev_end, "contiguous at shard {i}/{shards}");
                    assert!(w.end >= w.start);
                    covered += w.len();
                    prev_end = w.end;
                    // Balanced: every window is within one of total/shards.
                    let base = total / shards as usize;
                    assert!(
                        w.len() == base || w.len() == base + 1,
                        "unbalanced window {w:?} for total {total}, shards {shards}"
                    );
                }
                assert_eq!(covered, total);
                assert_eq!(prev_end, total, "exhaustive");
            }
        }
    }

    #[test]
    fn huge_corpora_do_not_overflow() {
        // The last shard of a usize::MAX corpus: start = ⌊MAX·(MAX−1)/MAX⌋
        // = MAX−1 via u128 arithmetic; a u64 product would have wrapped.
        let last = window_of(usize::MAX, u64::MAX - 1, u64::MAX);
        assert_eq!(last, (usize::MAX - 1)..usize::MAX);
        assert_eq!(window_of(usize::MAX, 0, 1), 0..usize::MAX);
    }

    #[test]
    fn unsharded_window_is_the_full_corpus() {
        let _guard = crate::test_lock();
        clear_shard();
        assert_eq!(window(17), 0..17);
        assert!(!sharded());
        assert!(shard().is_none());
    }

    #[test]
    fn sharded_window_is_the_declared_slice() {
        let _guard = crate::test_lock();
        set_shard(1, 3).unwrap();
        assert_eq!(window(17), window_of(17, 1, 3));
        assert!(sharded());
        assert_eq!(shard(), Some((1, 3)));
        set_shard(0, 1).unwrap();
        assert_eq!(window(17), 0..17, "1 shard owns everything");
        assert!(!sharded(), "a 1/1 shard is not a sub-window");
        clear_shard();
    }

    #[test]
    fn set_shard_validates() {
        let _guard = crate::test_lock();
        assert!(set_shard(0, 0).is_err());
        assert!(set_shard(3, 3).is_err());
        assert!(set_shard(2, 3).is_ok());
        clear_shard();
    }

    #[test]
    fn only_e1_and_e15_window_their_corpus() {
        assert_eq!(WINDOWED, ["e1", "e15"]);
        assert!(!WINDOWED.contains(&"e2"));
    }

    #[test]
    fn shard_flag_parses_and_rejects() {
        assert_eq!(parse_shard_flag("0/3").unwrap(), (0, 3));
        assert_eq!(parse_shard_flag("2/3").unwrap(), (2, 3));
        for bad in ["", "3", "a/b", "1/0", "3/3", "4/3", "-1/3"] {
            assert!(parse_shard_flag(bad).is_err(), "{bad}");
        }
    }
}
