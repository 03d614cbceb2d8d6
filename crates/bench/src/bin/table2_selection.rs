//! Regenerates Table II: the profile-based attribute sample values and the
//! number of accounts selected per attribute, plus the selection-speed
//! claim ("the time to create such a pseudo-honeypot network is less than
//! 1 min").

use std::time::Instant;

use ph_bench::{banner, ExperimentScale};
use ph_core::attributes::{AttributeKind, ProfileAttribute, SampleAttribute};
use ph_core::selection::{select_network, SelectorConfig};

fn main() {
    let _metrics = ph_bench::metrics_scope("table2_selection");
    let scale = ExperimentScale::from_args();
    banner("Table II — profile-based attributes, sample values, selected accounts");
    println!(
        "population: {} organic + {} spammers, seed {}\n",
        scale.organic,
        scale.campaigns * scale.per_campaign,
        scale.seed
    );

    let mut engine = scale.build_engine();
    // A little history so Active screening and topical slots are live.
    engine.run_hours(3);

    let slots = SampleAttribute::standard_slots();
    let start = Instant::now();
    let network = select_network(&engine, &slots, &SelectorConfig::default(), scale.seed);
    let elapsed = start.elapsed();

    let sizes = network.slot_sizes();
    println!(
        "{:<5} {:<32} {:<44} {:>9}",
        "Index", "Attribute", "Sample values", "Selected"
    );
    for (i, &attr) in ProfileAttribute::ALL.iter().enumerate() {
        let values: Vec<String> = attr
            .sample_values()
            .iter()
            .map(|v| {
                if v.fract().abs() < 1e-9 {
                    format!("{}", *v as i64)
                } else {
                    format!("{v:.3}")
                }
            })
            .collect();
        let selected: usize = attr
            .sample_values()
            .iter()
            .map(|&v| {
                sizes
                    .get(&SampleAttribute::profile(attr, v))
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        println!(
            "{:<5} {:<32} {:<44} {:>9}",
            i + 1,
            attr.label(),
            values.join(" "),
            selected
        );
    }
    let topical: usize = network
        .nodes()
        .iter()
        .filter(|n| !matches!(n.slot.kind, AttributeKind::Profile(_)))
        .count();
    println!("\ntopical (C2/C3) nodes: {topical}");
    println!(
        "total network size: {} nodes ({} slot shortfalls)",
        network.len(),
        network.shortfalls().len()
    );
    // Wall-clock, so on stderr: stdout stays byte-exact across runs.
    eprintln!(
        "selection time: {:.3} s (paper: < 1 min for 2,400 nodes)",
        elapsed.as_secs_f64()
    );
}
