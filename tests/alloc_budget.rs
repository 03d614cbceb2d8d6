//! A deterministic allocation budget for the engine side of the hour.
//!
//! This binary installs the counting allocator and counts, under one
//! `ph_prof` scope each, the allocations of 24 `step_hour`s and then of
//! 24 `select_network` rounds over the `small()` world. Allocation counts
//! do not depend on box load, so the budget gives the same answer on
//! every run; a change that brings back a per-tweet or per-account
//! allocation on these paths fails it.

use ph_bench::ExperimentScale;
use pseudo_honeypot::core::attributes::SampleAttribute;
use pseudo_honeypot::core::selection::{select_network, SelectorConfig};

#[global_allocator]
static ALLOC: ph_prof::CountingAllocator = ph_prof::CountingAllocator::new();

const HOURS: u64 = 24;
const ROUNDS: u64 = 24;
/// 24 hours allocate 213,748 times, 4.9 per tweet: each tweet's own
/// strings and vectors. The budget is that plus 10 %.
const HOUR_ALLOCS: u64 = 235_121;
/// 24 rounds take 1,200 allocations and 6.1 MB. They may not take more
/// than per-slot candidate lists did: 19,608 allocations and 8.2 MB.
const SELECT_ALLOCS: u64 = 19_608;
const SELECT_BYTES: u64 = 8_195_472;

#[test]
fn engine_hours_and_selection_rounds_stay_within_their_allocation_budget() {
    let mut engine = ExperimentScale::small().build_engine();
    let slots = SampleAttribute::standard_slots();
    let config = SelectorConfig::default();
    ph_prof::enable();
    {
        let _scope = ph_prof::scope("budget.step_hour");
        for _ in 0..HOURS {
            engine.step_hour();
        }
    }
    {
        let _scope = ph_prof::scope("budget.select");
        for seed in 0..ROUNDS {
            let network = select_network(&engine, &slots, &config, seed);
            assert!(!network.is_empty());
        }
    }
    ph_prof::disable();
    let hours = ph_prof::stage_stats("budget.step_hour").unwrap();
    let select = ph_prof::stage_stats("budget.select").unwrap();
    let tweets = engine.stats().tweets;
    eprintln!(
        "step_hour: {} allocs, {} bytes, {tweets} tweets; select: {} allocs, {} bytes",
        hours.allocs, hours.bytes, select.allocs, select.bytes
    );
    assert!(
        hours.allocs <= HOUR_ALLOCS,
        "{HOURS} engine hours allocated {} times (budget {HOUR_ALLOCS})",
        hours.allocs
    );
    assert!(
        select.allocs <= SELECT_ALLOCS && select.bytes <= SELECT_BYTES,
        "{ROUNDS} selection rounds allocated {} times, {} bytes (budget {SELECT_ALLOCS}, {SELECT_BYTES})",
        select.allocs,
        select.bytes
    );
}
