//! Figures 2–6 of the paper's evaluation (§V).

use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write};

use ph_core::advanced::{advanced_runner_config, AdvancedConfig};
use ph_core::attributes::{AttributeKind, ProfileAttribute, SampleAttribute, TrendAttribute};
use ph_core::baselines::run_random_baseline;
use ph_core::monitor::{MonitorReport, Runner};
use ph_core::pge::{per_attribute_stats, per_slot_stats};
use ph_twitter_sim::{AccountId, TopicCategory};

use crate::{fmt_sample, Fixtures, Report};

/// Figure 2: the fraction of spammers vs the number of spam messages they
/// post — a power law where >80% of captured spammers post a single spam
/// and <0.03% post more than 10. Series: `fig2_series.csv`.
pub fn fig2_spam_distribution(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    out.banner("Figure 2 — fraction of spammers vs number of spam messages")?;

    let run = fx.full_run();
    let mut per_spammer: HashMap<AccountId, u64> = HashMap::new();
    for (c, &spam) in run.report.collected.iter().zip(&run.predictions) {
        if spam {
            *per_spammer.entry(c.tweet.author).or_insert(0) += 1;
        }
    }
    let total = per_spammer.len();
    if total == 0 {
        writeln!(out, "no spammers captured — increase --hours")?;
        return Ok(());
    }

    let mut histogram: HashMap<u64, usize> = HashMap::new();
    for &count in per_spammer.values() {
        *histogram.entry(count).or_insert(0) += 1;
    }
    let mut counts: Vec<u64> = histogram.keys().copied().collect();
    counts.sort_unstable();

    let mut csv = String::from("spams,spammers,fraction\n");
    writeln!(
        out,
        "{:>12} {:>12} {:>14}",
        "# spams", "# spammers", "fraction"
    )?;
    for c in &counts {
        let n = histogram[c];
        let fraction = n as f64 / total as f64;
        writeln!(out, "{c:>12} {n:>12} {fraction:>14.6}")?;
        writeln!(csv, "{c},{n},{fraction:.6}")?;
    }
    out.csvs.push(("fig2_series.csv", csv));
    let singletons = histogram.get(&1).copied().unwrap_or(0) as f64 / total as f64;
    let heavy = per_spammer.values().filter(|&&c| c > 10).count() as f64 / total as f64;
    writeln!(
        out,
        "\nfraction posting exactly 1 spam: {:.1}% (paper: >80%)",
        100.0 * singletons
    )?;
    writeln!(
        out,
        "fraction posting more than 10:  {:.3}% (paper: <0.03%)",
        100.0 * heavy
    )?;
    Ok(())
}

/// Figure 3 (a–k): collected tweets, classified spams and spammers under
/// every sample value of each profile attribute. The reproduced shapes:
/// more friends/followers/lists/favorites/statuses → more spammers; age
/// peaks near 1,000 days; low friend/follower ratios attract more.
pub fn fig3_profile_attributes(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    out.banner("Figure 3 — tweets / spams / spammers per profile-attribute sample value")?;

    let run = fx.full_run();
    let stats = per_slot_stats(&run.report.collected, &run.predictions);

    for (panel, &attr) in ProfileAttribute::ALL.iter().enumerate() {
        writeln!(out, "\n({}) {}", (b'a' + panel as u8) as char, attr.label())?;
        writeln!(
            out,
            "  {:>12} {:>10} {:>10} {:>10}",
            "sample", "tweets", "spams", "spammers"
        )?;
        for &value in attr.sample_values() {
            let slot = SampleAttribute::profile(attr, value);
            let (tweets, spams, spammers) = stats
                .get(&slot)
                .map(|s| (s.tweets, s.spams, s.num_spammers() as u64))
                .unwrap_or((0, 0, 0));
            let sample = fmt_sample(value);
            writeln!(
                out,
                "  {sample:>12} {tweets:>10} {spams:>10} {spammers:>10}"
            )?;
        }
    }
    Ok(())
}

/// Figure 4: tweets / spams / spammers plus the spammer ratio (captured
/// spammers over total observed users) for each hashtag-based attribute.
/// Paper shape: social / general / tech / business capture the most
/// spammers.
pub fn fig4_hashtag_attributes(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    out.banner("Figure 4 — hashtag-based attributes")?;

    let run = fx.full_run();
    let stats = per_attribute_stats(&run.report.collected, &run.predictions);

    // Users observed per attribute (the denominator of the spammer-ratio
    // line in the figure).
    let mut users_per_kind: HashMap<AttributeKind, HashSet<AccountId>> = HashMap::new();
    for c in &run.report.collected {
        users_per_kind
            .entry(c.slot.kind)
            .or_default()
            .insert(c.tweet.author);
    }

    writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>14}",
        "Category", "Tweets", "Spams", "Spammers", "Users", "Spammer ratio"
    )?;
    let mut kinds: Vec<AttributeKind> = TopicCategory::ALL
        .iter()
        .map(|&c| AttributeKind::Hashtag(Some(c)))
        .collect();
    kinds.push(AttributeKind::Hashtag(None));
    for kind in kinds {
        let (tweets, spams, spammers) = stats
            .get(&kind)
            .map(|s| (s.tweets, s.spams, s.num_spammers()))
            .unwrap_or((0, 0, 0));
        let users = users_per_kind.get(&kind).map_or(0, HashSet::len);
        let ratio = if users == 0 {
            0.0
        } else {
            100.0 * spammers as f64 / users as f64
        };
        let label = kind.label();
        let counts = format!("{tweets:>10} {spams:>10} {spammers:>10} {users:>10}");
        writeln!(out, "{label:<16} {counts} {ratio:>13.2}%")?;
    }
    Ok(())
}

/// Figure 5: tweets / spams / spammers plus the spam ratio (spams over
/// collected tweets) per trending-based attribute. Paper shape:
/// trending-up and popular topics attract the most spam; non-trending the
/// least.
pub fn fig5_trending_attributes(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    out.banner("Figure 5 — trending-based attributes")?;

    let run = fx.full_run();
    let stats = per_attribute_stats(&run.report.collected, &run.predictions);

    writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10} {:>12}",
        "Attribute", "Tweets", "Spams", "Spammers", "Spam ratio"
    )?;
    for &t in &TrendAttribute::ALL {
        let kind = AttributeKind::Trending(t);
        let (tweets, spams, spammers) = stats
            .get(&kind)
            .map(|s| (s.tweets, s.spams, s.num_spammers()))
            .unwrap_or((0, 0, 0));
        let ratio = if tweets == 0 {
            0.0
        } else {
            100.0 * spams as f64 / tweets as f64
        };
        let label = t.label();
        writeln!(
            out,
            "{label:<16} {tweets:>10} {spams:>10} {spammers:>10} {ratio:>11.2}%"
        )?;
    }
    writeln!(
        out,
        "\npaper spam ratios: up 36.50%, popular 40.17%, down 35.87%, none 20.61%"
    )?;
    Ok(())
}

/// Figure 6: cumulative spammers captured over the measurement hours by
/// the advanced pseudo-honeypot (100 nodes, top-10 PGE attributes) versus
/// the non pseudo-honeypot baseline (100 random accounts). Paper: 17,336
/// vs 1,850 over 100 hours — a 9.37× gap. Series: `fig6_series.csv`.
pub fn fig6_advanced_vs_random(fx: &Fixtures, out: &mut Report) -> fmt::Result {
    let scale = &fx.scale;
    out.banner("Figure 6 — advanced pseudo-honeypot vs non pseudo-honeypot (100 nodes)")?;
    let compare_hours = scale.hours;

    // Phase 1: exploration run → PGE ranking → top-10 slots.
    let detector = &fx.full_run().detector;
    let ranking = fx.pge_ranking();
    let advanced_cfg = AdvancedConfig::default();
    if ranking.len() < advanced_cfg.top_slots {
        writeln!(out, "not enough ranked slots; increase --hours")?;
        return Ok(());
    }
    let runner_cfg = advanced_runner_config(&ranking, &advanced_cfg, scale.seed ^ 0xadff);
    writeln!(out, "advanced slots (top 10 by PGE):")?;
    for slot in &runner_cfg.slots {
        writeln!(out, "  - {}", slot.describe())?;
    }

    // Phase 2: two fresh engines with identical traffic statistics.
    let mut adv_engine = scale.build_engine();
    let adv_report = Runner::new(runner_cfg).run(&mut adv_engine, compare_hours);
    let adv_pred = detector.classify_collection(&adv_report.collected, &adv_engine);

    let mut rnd_engine = scale.build_engine();
    let rnd_report = run_random_baseline(&mut rnd_engine, 100, compare_hours, scale.seed ^ 0x0bb);
    let rnd_pred = detector.classify_collection(&rnd_report.collected, &rnd_engine);

    // Hourly cumulative distinct spammers: those first caught by each hour.
    let series = |report: &MonitorReport, preds: &[bool]| -> Vec<usize> {
        let mut first_caught: HashMap<AccountId, u64> = HashMap::new();
        for (c, _) in report.collected.iter().zip(preds).filter(|&(_, &p)| p) {
            let hour = first_caught.entry(c.tweet.author).or_insert(c.hour);
            *hour = (*hour).min(c.hour);
        }
        let caught_by = |hour| first_caught.values().filter(|&&h| h <= hour).count();
        (0..compare_hours).map(caught_by).collect()
    };
    let adv_series = series(&adv_report, &adv_pred.predictions);
    let rnd_series = series(&rnd_report, &rnd_pred.predictions);

    writeln!(
        out,
        "\n{:>6} {:>22} {:>22}",
        "hour", "advanced (cumulative)", "random (cumulative)"
    )?;
    let step = (compare_hours / 10).max(1) as usize;
    let mut csv = String::from("hour,advanced_cumulative,random_cumulative\n");
    for (h, (adv, rnd)) in adv_series.iter().zip(&rnd_series).enumerate() {
        if h % step == 0 {
            writeln!(out, "{:>6} {adv:>22} {rnd:>22}", h + 1)?;
        }
        writeln!(csv, "{},{adv},{rnd}", h + 1)?;
    }
    out.csvs.push(("fig6_series.csv", csv));
    let adv_total = *adv_series.last().unwrap_or(&0);
    let rnd_total = *rnd_series.last().unwrap_or(&0);
    writeln!(
        out,
        "\nfinal: advanced {} vs random {} spammers → {:.2}× (paper: 17,336 vs 1,850 = 9.37×)",
        adv_total,
        rnd_total,
        adv_total as f64 / rnd_total.max(1) as f64
    )?;
    Ok(())
}
