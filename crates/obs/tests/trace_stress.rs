//! Concurrent stress tests for the event tracer.
//!
//! These run as an integration test (own process) because they mutate the
//! process-global tracer gate, capacity, and per-thread buffer registry.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::thread;

use defender_obs::trace;

/// The tracer state is process-global; serialize the tests in this file.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn concurrent_threads_produce_a_valid_interleaved_trace() {
    let _guard = lock();
    trace::clear();
    trace::set_capacity(trace::DEFAULT_CAPACITY);
    trace::start();

    const THREADS: usize = 8;
    const SPANS_PER_THREAD: usize = 200;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..SPANS_PER_THREAD {
                    let _outer = defender_obs::span!("stress_outer");
                    {
                        let _inner = defender_obs::span!("stress_inner");
                        if i % 10 == 0 {
                            trace::instant("stress_marker");
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker panicked");
    }
    trace::stop();

    let document = trace::chrome_trace_json();
    let check = trace::validate_chrome_trace(&document).expect("stress trace must validate");
    // 8 threads × 200 × (2 spans × B+E) + 20 instants each, minus any drops.
    let expected_max = THREADS * (SPANS_PER_THREAD * 4 + SPANS_PER_THREAD / 10);
    assert!(check.events > 0, "trace must contain events");
    assert!(
        check.events as usize + check.dropped as usize >= expected_max,
        "every event is either exported or accounted as dropped: \
         {} events + {} dropped < {expected_max}",
        check.events,
        check.dropped
    );
    assert!(check.max_depth >= 2, "nested spans must show depth >= 2");
    trace::clear();
}

#[test]
fn concurrent_export_under_load_never_corrupts_the_document() {
    let _guard = lock();
    trace::clear();
    trace::set_capacity(1024);
    trace::start();

    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(5));
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for _ in 0..5_000 {
                    let _span = defender_obs::span!("load_span");
                    trace::instant("load_marker");
                }
            })
        })
        .collect();

    // Export repeatedly while writers hammer their rings: writers wait
    // out each copy, and no export is ever a torn document.
    let exporter = {
        let done = Arc::clone(&done);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            barrier.wait();
            while !done.load(Ordering::Relaxed) {
                let document = trace::chrome_trace_json();
                assert!(
                    defender_obs::json::parse(&document).is_ok(),
                    "mid-load export must always be valid JSON"
                );
            }
        })
    };
    for writer in writers {
        writer.join().expect("writer panicked");
    }
    done.store(true, Ordering::Relaxed);
    exporter.join().expect("exporter panicked");
    trace::stop();

    let final_document = trace::chrome_trace_json();
    let check = trace::validate_chrome_trace(&final_document).expect("final trace must validate");
    assert!(check.events > 0);
    trace::clear();
}

#[test]
fn tiny_rings_drop_oldest_and_account_for_it() {
    let _guard = lock();
    trace::clear();
    trace::set_capacity(8);
    trace::start();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(|| {
                for _ in 0..100 {
                    trace::instant("overflow_marker");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker panicked");
    }
    trace::stop();

    // 4 threads × 100 instants into rings of 8: nearly everything drops,
    // and the export must say so.
    assert!(trace::buffered_events() <= 4 * 8);
    assert!(trace::dropped_events() >= 4 * (100 - 8) as u64);
    let document = trace::chrome_trace_json();
    let check = trace::validate_chrome_trace(&document).expect("overflow trace must validate");
    assert_eq!(
        check.events as u64 + check.dropped,
        400,
        "exported + dropped must account for every recorded instant"
    );
    trace::set_capacity(trace::DEFAULT_CAPACITY);
    trace::clear();
}
