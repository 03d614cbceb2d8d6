//! The store manifest: the run's configuration, pinned.
//!
//! Resume and replay must rebuild the *identical* simulation and runner —
//! determinism is the whole recovery story — so the store records every
//! knob the CLI exposes in a small, diff-friendly `key = value` text file
//! (`MANIFEST`). No timestamps or hostnames: two runs with the same
//! configuration produce byte-identical manifests.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use ph_core::monitor::RunnerConfig;
use ph_twitter_sim::drift::{inverted_tastes, DriftSchedule};
use ph_twitter_sim::engine::SimConfig;

/// Manifest format version.
pub const MANIFEST_FORMAT: u64 = 1;

/// Sentinel value of [`Manifest::taste_flip`] meaning "no flip scheduled".
pub const NO_TASTE_FLIP: u64 = u64::MAX;

/// The pinned configuration of a stored sniffing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Simulation master seed (`SimConfig::seed`).
    pub sim_seed: u64,
    /// Organic account count (`SimConfig::num_organic`).
    pub organic: u64,
    /// Spam campaign count (`SimConfig::num_campaigns`).
    pub campaigns: u64,
    /// Accounts per campaign (`SimConfig::accounts_per_campaign`).
    pub per_campaign: u64,
    /// Monitor selection seed (`RunnerConfig::seed`).
    pub runner_seed: u64,
    /// Phase-1 ground-truth collection hours (run before the stored
    /// phase-2 monitoring; part of the engine fast-forward distance).
    pub gt_hours: u64,
    /// Phase-2 monitoring hours the run was asked for.
    pub hours: u64,
    /// Streaming buffer capacity (`RunnerConfig::buffer_capacity`).
    pub buffer_capacity: u64,
    /// Absolute engine hour at which the spammers' tastes flip to the
    /// inverted model (`--taste-flip`), or [`NO_TASTE_FLIP`] for none.
    /// Pinned so resume/replay rebuild the identical drifted simulation.
    pub taste_flip: u64,
}

impl Manifest {
    /// The scheduled taste-flip hour, if any.
    #[must_use]
    pub fn taste_flip_hour(&self) -> Option<u64> {
        (self.taste_flip != NO_TASTE_FLIP).then_some(self.taste_flip)
    }

    /// The simulation this manifest pins, including the flip to the
    /// inverted taste model at [`Self::taste_flip_hour`]. Every engine
    /// rebuilt from a store (sniff, resume, replay, the serve replica,
    /// the loadgen feed) starts from this, so replay stays byte-identical.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.sim_seed,
            num_organic: self.organic as usize,
            num_campaigns: self.campaigns as usize,
            accounts_per_campaign: self.per_campaign as usize,
            drift: self
                .taste_flip_hour()
                .map(|h| DriftSchedule::flip_at(h, inverted_tastes())),
            ..Default::default()
        }
    }

    /// The monitor runner configuration this manifest pins.
    #[must_use]
    pub fn runner_config(&self) -> RunnerConfig {
        RunnerConfig {
            seed: self.runner_seed,
            buffer_capacity: self.buffer_capacity as usize,
            ..Default::default()
        }
    }

    /// Renders the manifest text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "format = {MANIFEST_FORMAT}");
        let _ = writeln!(out, "sim_seed = {}", self.sim_seed);
        let _ = writeln!(out, "organic = {}", self.organic);
        let _ = writeln!(out, "campaigns = {}", self.campaigns);
        let _ = writeln!(out, "per_campaign = {}", self.per_campaign);
        let _ = writeln!(out, "runner_seed = {}", self.runner_seed);
        let _ = writeln!(out, "gt_hours = {}", self.gt_hours);
        let _ = writeln!(out, "hours = {}", self.hours);
        let _ = writeln!(out, "buffer_capacity = {}", self.buffer_capacity);
        if self.taste_flip != NO_TASTE_FLIP {
            let _ = writeln!(out, "taste_flip = {}", self.taste_flip);
        }
        out
    }

    /// Writes the manifest to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.render())
    }

    /// Parses manifest text.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on malformed lines,
    /// unknown keys, an unsupported format version, or missing keys.
    pub fn parse(text: &str) -> io::Result<Self> {
        let bad = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
        let mut format = None;
        let mut fields: [(&str, Option<u64>); 9] = [
            ("sim_seed", None),
            ("organic", None),
            ("campaigns", None),
            ("per_campaign", None),
            ("runner_seed", None),
            ("gt_hours", None),
            ("hours", None),
            ("buffer_capacity", None),
            ("taste_flip", None),
        ];
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("manifest line without '=': {line}")))?;
            let (key, value) = (key.trim(), value.trim());
            let value: u64 = value
                .parse()
                .map_err(|_| bad(format!("manifest {key}: not a number: {value}")))?;
            if key == "format" {
                format = Some(value);
                continue;
            }
            let slot = fields
                .iter_mut()
                .find(|(name, _)| *name == key)
                .ok_or_else(|| bad(format!("unknown manifest key: {key}")))?;
            slot.1 = Some(value);
        }
        match format {
            Some(MANIFEST_FORMAT) => {}
            Some(v) => return Err(bad(format!("unsupported manifest format {v}"))),
            None => return Err(bad("manifest missing format line".into())),
        }
        let get = |name: &str| {
            fields
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, v)| *v)
                .ok_or_else(|| bad(format!("manifest missing {name}")))
        };
        Ok(Self {
            sim_seed: get("sim_seed")?,
            organic: get("organic")?,
            campaigns: get("campaigns")?,
            per_campaign: get("per_campaign")?,
            runner_seed: get("runner_seed")?,
            gt_hours: get("gt_hours")?,
            hours: get("hours")?,
            buffer_capacity: get("buffer_capacity")?,
            // Optional: stores written before drift support omit the line.
            taste_flip: get("taste_flip").unwrap_or(NO_TASTE_FLIP),
        })
    }

    /// Reads the manifest from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and [`Manifest::parse`] errors.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::parse(&fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            sim_seed: 42,
            organic: 2_000,
            campaigns: 6,
            per_campaign: 20,
            runner_seed: 42,
            gt_hours: 24,
            hours: 48,
            buffer_capacity: 65_536,
            taste_flip: NO_TASTE_FLIP,
        }
    }

    #[test]
    fn roundtrips_through_text() {
        let m = sample();
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
        let flipped = Manifest {
            taste_flip: 12,
            ..sample()
        };
        assert_eq!(Manifest::parse(&flipped.render()).unwrap(), flipped);
        assert_eq!(flipped.taste_flip_hour(), Some(12));
        assert_eq!(sample().taste_flip_hour(), None);
    }

    #[test]
    fn pre_drift_manifests_parse_without_taste_flip() {
        // A manifest written before the taste-flip knob existed has no
        // `taste_flip` line and must parse to the no-flip sentinel.
        let text = sample().render();
        assert!(!text.contains("taste_flip"));
        assert_eq!(Manifest::parse(&text).unwrap().taste_flip, NO_TASTE_FLIP);
    }

    #[test]
    fn render_is_deterministic() {
        assert_eq!(sample().render(), sample().render());
    }

    #[test]
    fn rejects_unknown_keys_and_bad_versions() {
        assert!(Manifest::parse("format = 1\nwat = 3").is_err());
        let future = sample().render().replace("format = 1", "format = 99");
        assert!(Manifest::parse(&future).is_err());
        assert!(Manifest::parse("sim_seed = 1").is_err(), "missing format");
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(Manifest::parse("format = 1\nsim_seed = 4").is_err());
    }
}
