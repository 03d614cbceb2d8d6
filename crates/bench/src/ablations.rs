//! Ablations of the paper's design choices, the §IV-C drift problem, and
//! which features the detector relies on.

use std::collections::HashSet;
use std::fmt::{self, Write};

use ph_core::attributes::SampleAttribute;
use ph_core::detector::{build_training_data, SpamDetector};
use ph_core::drift::{AdaptiveConfig, AdaptiveDetector};
use ph_core::features::{feature_names, FEATURE_COUNT};
use ph_core::labeling::pipeline::{label_collection, PipelineConfig};
use ph_core::monitor::{Runner, RunnerConfig};
use ph_core::selection::SelectorConfig;
use ph_ml::cv::cross_validate_with;
use ph_ml::data::Dataset;
use ph_ml::forest::{RandomForest, RandomForestConfig};
use ph_ml::importance::permutation_importance;
use ph_ml::metrics::ConfusionMatrix;
use ph_sketch::shingle::normalize;
use ph_sketch::simhash::SimHash64;
use ph_sketch::MinHasher;
use ph_twitter_sim::drift::{inverted_tastes, DriftSchedule, StealthShift};
use ph_twitter_sim::engine::{Engine, SimConfig};
use ph_twitter_sim::AccountId;

use crate::{cv_table, ExperimentScale, Fixtures, Report};

/// One run per variant on a fresh engine, as a `Collected / Spammers /
/// Spam tweets` table whose first column is `width` wide.
fn yield_table(
    scale: &ExperimentScale,
    out: &mut Report,
    (header, width): (&str, usize),
    variants: impl IntoIterator<Item = (String, RunnerConfig)>,
) -> fmt::Result {
    writeln!(
        out,
        "{header:<width$} {:>10} {:>10} {:>12}",
        "Collected", "Spammers", "Spam tweets"
    )?;
    for (label, config) in variants {
        let mut engine = scale.build_engine();
        let report = Runner::new(config).run(&mut engine, scale.hours);
        let oracle = engine.ground_truth();
        let spam: Vec<_> = report
            .collected
            .iter()
            .filter(|c| oracle.is_spam(&c.tweet))
            .collect();
        let spammers: HashSet<AccountId> = spam.iter().map(|c| c.tweet.author).collect();
        writeln!(
            out,
            "{label:<width$} {:>10} {:>10} {:>12}",
            report.collected.len(),
            spammers.len(),
            spam.len()
        )?;
    }
    Ok(())
}

/// The hourly node-switching (portability, §III-D). The paper switches
/// the pseudo-honeypot to fresh accounts every hour; this varies the
/// switching interval (1 h / 4 h / never) and measures spammer yield —
/// how much of the system's efficiency comes from portability.
pub fn ablation_switching(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    let scale = &fx.scale;
    out.banner("Ablation — node-switching interval vs spammer yield")?;
    writeln!(out, "standard slots, {} hours each\n", scale.hours)?;

    let variants = [1u64, 4, u64::MAX].map(|interval| {
        let label = if interval == u64::MAX {
            "never".to_string()
        } else {
            format!("{interval} h")
        };
        let config = RunnerConfig {
            slots: SampleAttribute::standard_slots(),
            selector: SelectorConfig::default(),
            switch_interval_hours: interval,
            seed: scale.seed,
            ..Default::default()
        };
        (label, config)
    });
    yield_table(scale, out, ("Switch interval", 18), variants)?;
    writeln!(
        out,
        "\nexpected shape: shorter intervals capture more distinct spammers"
    )?;
    Ok(())
}

/// The Active/Dormant screening of §III-D. Selection normally drops
/// accounts that have gone quiet; this compares spam yield with and
/// without the screen (and with/without the attention ranking of
/// candidates) to quantify the value of harnessing only active accounts.
pub fn ablation_active_screening(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    let scale = &fx.scale;
    out.banner("Ablation — Active/Dormant screening and attention ranking")?;
    writeln!(out, "standard slots, {} hours each\n", scale.hours)?;

    let variants = [
        ("active + attention", SelectorConfig::default()),
        (
            "active, uniform pick",
            SelectorConfig {
                rank_by_attention: false,
                ..Default::default()
            },
        ),
        (
            "no screening",
            SelectorConfig {
                active_only: false,
                rank_by_attention: false,
                ..Default::default()
            },
        ),
    ]
    .map(|(name, selector)| {
        let config = RunnerConfig {
            slots: SampleAttribute::standard_slots(),
            selector,
            switch_interval_hours: 1,
            seed: scale.seed,
            ..Default::default()
        };
        (name.to_string(), config)
    });
    yield_table(scale, out, ("Variant", 22), variants)?;
    writeln!(
        out,
        "\nexpected shape: screening and attention ranking both add yield"
    )?;
    Ok(())
}

/// The environment-score feature `f_score` (§IV-A). Trains the detector
/// with and without the environment score (by zeroing its column) and
/// compares cross-validated quality — what the group-likelihood feedback
/// contributes.
pub fn ablation_env_score(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    let scale = &fx.scale;
    out.banner("Ablation — environment score feature")?;

    let with_env = &fx.ground_truth().data;
    // "Without": zero the environment-score column (the last feature), so
    // dimensionality and splits stay comparable.
    let env_column = FEATURE_COUNT - 1;
    let mut values_without = with_env.values().to_vec();
    for row in values_without.chunks_exact_mut(FEATURE_COUNT) {
        row[env_column] = 0.0;
    }
    let without_env = Dataset::new(values_without, FEATURE_COUNT, with_env.labels().to_vec())
        .expect("same shape as the original");

    let folds = 5;
    let trees = scale.forest_trees;
    writeln!(
        out,
        "training set: {} tweets, {:.1}% spam, {folds}-fold CV, {trees} trees\n",
        with_env.len(),
        100.0 * with_env.positive_rate()
    )?;
    let cvs: Vec<_> = [("with f_score", with_env), ("without", &without_env)]
        .into_iter()
        .map(|(name, data)| {
            let cv = cross_validate_with(name, data, folds, scale.seed, |train, s| {
                let config = RandomForestConfig {
                    num_trees: trees,
                    ..Default::default()
                };
                Box::new(RandomForest::fit(&config, train, s))
            });
            (name, cv.mean)
        })
        .collect();
    cv_table(out, ("Variant", 16), cvs.iter().map(|(name, m)| (*name, m)))
}

/// Mention-only monitoring vs a full firehose (§III-E). The paper
/// collects only the direct interactive ("mention") stream crossing the
/// node set, arguing that the full stream is mostly benign and expensive
/// to process. This quantifies that trade-off: tweets processed vs spam
/// found, for the node-filtered stream vs an everything-stream.
pub fn ablation_mention_only(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    let scale = &fx.scale;
    out.banner("Ablation — mention-filtered monitoring vs full firehose")?;
    writeln!(out, "{} hours each\n", scale.hours)?;

    // Variant 1: the pseudo-honeypot's node-filtered stream.
    let mut engine = scale.build_engine();
    let runner = Runner::new(RunnerConfig {
        slots: SampleAttribute::standard_slots(),
        seed: scale.seed,
        ..Default::default()
    });
    let filtered = runner.run(&mut engine, scale.hours);
    let oracle = engine.ground_truth();
    let filtered_spam = filtered
        .collected
        .iter()
        .filter(|c| oracle.is_spam(&c.tweet))
        .count();
    let filtered_total = filtered.collected.len();

    // Variant 2: subscribe to every account — the firehose.
    let mut engine = scale.build_engine();
    let streaming = engine.streaming();
    let everyone: Vec<AccountId> = (0..engine.rest().num_accounts() as u32)
        .map(AccountId)
        .collect();
    let sub = streaming.track_mentions(everyone);
    let mut firehose_total = 0usize;
    let mut firehose_spam = 0usize;
    for _ in 0..scale.hours {
        engine.step_hour();
        let oracle = engine.ground_truth();
        for tweet in streaming.poll(sub).expect("open subscription") {
            firehose_total += 1;
            if oracle.is_spam(&tweet) {
                firehose_spam += 1;
            }
        }
    }

    writeln!(
        out,
        "{:<22} {:>12} {:>10} {:>18}",
        "Stream", "Tweets", "Spam", "Spam per kilotweet"
    )?;
    for (name, total, spam) in [
        ("mention-filtered", filtered_total, filtered_spam),
        ("full firehose", firehose_total, firehose_spam),
    ] {
        let per_kilotweet = 1000.0 * spam as f64 / total.max(1) as f64;
        writeln!(
            out,
            "{name:<22} {total:>12} {spam:>10} {per_kilotweet:>18.1}"
        )?;
    }
    writeln!(
        out,
        "\nworkload ratio: the filtered stream processes {:.1}% of the firehose's tweets",
        100.0 * filtered_total as f64 / firehose_total.max(1) as f64
    )?;
    writeln!(
        out,
        "note: at simulator scale the node set covers a large share of a small \
         network, so the workload reduction is modest; on real Twitter the same \
         2,400-node filter processes a vanishing fraction of the firehose, which \
         is the paper's point."
    )?;
    Ok(())
}

/// MinHash vs SimHash for campaign-description clustering. The paper
/// picks MinHash for near-duplicate descriptions, citing Shrivastava &
/// Li's *In defense of MinHash over SimHash*; this reproduces the
/// comparison on simulated campaign/organic bios: how well does each
/// sketch separate same-campaign pairs from organic pairs?
pub fn ablation_sketch(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    out.banner("Ablation — MinHash vs SimHash on campaign descriptions")?;

    let engine = fx.scale.build_engine();
    let rest = engine.rest();
    let oracle = engine.ground_truth();
    // Partition observed bios into campaign-member and organic sets.
    let mut campaign_bios: Vec<(u16, String)> = Vec::new();
    let mut organic_bios: Vec<String> = Vec::new();
    for p in rest.profiles() {
        let text = normalize(&p.description);
        if text.len() < 10 {
            continue;
        }
        match oracle.campaign_of(p.id) {
            Some(c) => campaign_bios.push((c.0, text)),
            None => {
                if organic_bios.len() < 400 {
                    organic_bios.push(text);
                }
            }
        }
    }

    let hasher = MinHasher::new(64, 17);
    let mut same_min = Vec::new();
    let mut diff_min = Vec::new();
    let mut same_sim = Vec::new();
    let mut diff_sim = Vec::new();
    // Same-campaign pairs.
    for i in 0..campaign_bios.len() {
        for j in (i + 1)..campaign_bios.len().min(i + 8) {
            let (ca, ta) = &campaign_bios[i];
            let (cb, tb) = &campaign_bios[j];
            if ca != cb {
                continue;
            }
            same_min.push(
                hasher
                    .signature_of_text(ta)
                    .estimate_jaccard(&hasher.signature_of_text(tb)),
            );
            same_sim.push(SimHash64::of_text(ta).estimate_cosine(SimHash64::of_text(tb)));
        }
    }
    // Organic (unrelated) pairs.
    for pair in organic_bios.chunks(2) {
        if let [a, b] = pair {
            diff_min.push(
                hasher
                    .signature_of_text(a)
                    .estimate_jaccard(&hasher.signature_of_text(b)),
            );
            diff_sim.push(SimHash64::of_text(a).estimate_cosine(SimHash64::of_text(b)));
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    writeln!(
        out,
        "pairs: {} same-campaign, {} organic\n",
        same_min.len(),
        diff_min.len()
    )?;
    writeln!(
        out,
        "{:<10} {:>16} {:>14} {:>12}",
        "Sketch", "same-campaign", "organic", "separation"
    )?;
    for (name, same, diff) in [
        ("MinHash", &same_min, &diff_min),
        ("SimHash", &same_sim, &diff_sim),
    ] {
        let (ms, md) = (mean(same), mean(diff));
        writeln!(out, "{name:<10} {ms:>16.3} {md:>14.3} {:>12.3}", ms - md)?;
    }
    writeln!(
        out,
        "\nexpected shape: MinHash separates campaign bios more cleanly (the paper's choice)"
    )?;
    Ok(())
}

/// Frozen vs adaptive detector across a spammer-taste flip — the paper's
/// §IV-C future-work problem, evaluated. Halfway through the run the
/// ground-truth attraction model inverts (spammers pivot to fresh
/// low-profile victims and away from list-active accounts). A detector
/// frozen at its initial training is compared with the
/// [`AdaptiveDetector`] that re-labels and retrains on a rolling window.
pub fn ablation_drift(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    let scale = &fx.scale;
    let flip_hour = scale.gt_hours + scale.hours / 2;
    out.banner("Ablation — frozen vs adaptive detector under spammer drift")?;
    writeln!(
        out,
        "taste flip at hour {flip_hour}; evaluation window: {} hours after training\n",
        scale.hours
    )?;

    let mut engine = Engine::new(SimConfig {
        drift: Some(DriftSchedule::full_flip_at(
            flip_hour,
            inverted_tastes(),
            StealthShift::undercover(),
        )),
        ..scale.sim_config()
    });

    // Train both detectors on the pre-drift period. A 30-slot subset keeps
    // the per-round retraining cost reasonable while covering all three
    // attribute categories.
    let slots: Vec<SampleAttribute> = SampleAttribute::standard_slots()
        .into_iter()
        .step_by(4)
        .collect();
    let runner = Runner::new(RunnerConfig {
        slots,
        seed: scale.seed,
        ..Default::default()
    });
    let train_report = runner.run(&mut engine, scale.gt_hours);
    let ground_truth =
        label_collection(&train_report.collected, &engine, &PipelineConfig::default());
    let (data, _) = build_training_data(
        &train_report.collected,
        &ground_truth.labels,
        &engine,
        ph_core::features::DEFAULT_TAU,
    );
    let frozen = SpamDetector::train(&scale.detector_config(), &data);
    let mut adaptive = AdaptiveDetector::new(AdaptiveConfig {
        retrain_interval_hours: 24,
        window_hours: 48,
        detector: scale.detector_config(),
        ..Default::default()
    });
    // Seed the adaptive detector with the same training window.
    adaptive.process(&train_report.collected, &engine, engine.now().whole_hours());

    // Post-training phase: classify in 12-hour chunks, drift strikes midway.
    let chunks = (scale.hours / 12).max(2);
    writeln!(
        out,
        "{:>8} {:>14} {:>14}   (per-12h-chunk accuracy)",
        "chunk", "frozen", "adaptive"
    )?;
    let mut frozen_pooled = ConfusionMatrix::default();
    let mut adaptive_pooled = ConfusionMatrix::default();
    for chunk in 0..chunks {
        let report = runner.run(&mut engine, 12);
        let truth: Vec<bool> = {
            let oracle = engine.ground_truth();
            report
                .collected
                .iter()
                .map(|c| oracle.is_spam(&c.tweet))
                .collect()
        };
        let frozen_pred = frozen
            .classify_collection(&report.collected, &engine)
            .predictions;
        let adaptive_pred =
            adaptive.process(&report.collected, &engine, engine.now().whole_hours());
        let fm = ConfusionMatrix::from_predictions(&frozen_pred, &truth);
        let am = ConfusionMatrix::from_predictions(&adaptive_pred, &truth);
        frozen_pooled.merge(&fm);
        adaptive_pooled.merge(&am);
        let marker = if (chunk + 1) * 12 + scale.gt_hours > flip_hour {
            " (post-drift)"
        } else {
            ""
        };
        writeln!(
            out,
            "{:>8} {:>14.3} {:>14.3}{marker}",
            chunk + 1,
            fm.accuracy(),
            am.accuracy()
        )?;
    }
    writeln!(
        out,
        "\npooled: frozen {} | adaptive {} ({} retraining rounds)",
        frozen_pooled.report(),
        adaptive_pooled.report(),
        adaptive.retrain_count()
    )?;
    writeln!(
        out,
        "expected shape: adaptive recall recovers after the flip, frozen decays"
    )?;
    Ok(())
}

/// Which of the 58 features does the trained detector actually rely on?
/// Permutation importance of the production Random Forest on the labeled
/// ground-truth dataset — supporting evidence for the paper's feature
/// design (§IV-A).
pub fn feature_importance(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    let scale = &fx.scale;
    out.banner("Permutation importance of the 58 features (Random Forest)")?;

    let data = &fx.ground_truth().data;
    let model = RandomForest::fit(
        &RandomForestConfig {
            num_trees: scale.forest_trees,
            ..Default::default()
        },
        data,
        scale.seed,
    );
    let importance = permutation_importance(&model, data, 3, scale.seed);
    let names = feature_names();

    writeln!(
        out,
        "training set: {} tweets, {:.1}% spam\n",
        data.len(),
        100.0 * data.positive_rate()
    )?;
    writeln!(
        out,
        "{:<6} {:<26} {:>14}",
        "Rank", "Feature", "Accuracy drop"
    )?;
    for (rank, fi) in importance.iter().take(15).enumerate() {
        writeln!(
            out,
            "{:<6} {:<26} {:>14.4}",
            rank + 1,
            names[fi.feature],
            fi.accuracy_drop
        )?;
    }
    writeln!(
        out,
        "\n(top features typically include mention time, source distributions, and profile mass)"
    )?;
    Ok(())
}
