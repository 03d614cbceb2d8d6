//! What a workload's output is checked by: the verdict sequence, its
//! digest, its comparison against the reference run, and the parser the
//! tailer reads the daemon's `verdicts.ndjson` with.

use ph_store::crc::crc32;

/// A verdict sequence in stream order: position is the sequence number.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Verdicts {
    /// Tweet id per verdict.
    pub tweets: Vec<u64>,
    /// The spam call per verdict.
    pub spam: Vec<bool>,
}

impl Verdicts {
    pub fn len(&self) -> usize {
        self.tweets.len()
    }

    pub fn push(&mut self, tweet: u64, spam: bool) {
        self.tweets.push(tweet);
        self.spam.push(spam);
    }

    /// CRC-32 over `(seq, tweet id, spam)` of every verdict, little-endian.
    pub fn digest(&self) -> u32 {
        let mut bytes = Vec::with_capacity(self.len() * 17);
        for (seq, (tweet, spam)) in self.tweets.iter().zip(&self.spam).enumerate() {
            bytes.extend_from_slice(&(seq as u64).to_le_bytes());
            bytes.extend_from_slice(&tweet.to_le_bytes());
            bytes.push(u8::from(*spam));
        }
        crc32(&bytes)
    }
}

/// The reference a workload's verdicts are held to: the sequential batch
/// composition's verdicts plus the oracle's call on the same tweets.
#[derive(Debug, Default, Clone)]
pub struct Reference {
    pub verdicts: Verdicts,
    /// Oracle label per verdict (the evaluation sidecar).
    pub truth: Vec<bool>,
    /// Verdicts per monitored hour, in hour order — lets the tailer tell
    /// from outside when an hour's last verdict line is visible.
    pub per_hour: Vec<u64>,
}

/// Detection quality of a verdict sequence against the oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Quality {
    pub precision: f64,
    pub recall: f64,
    pub specificity: f64,
}

impl Reference {
    /// Verdicts of `got` that are missing or differ from the reference
    /// (a surplus verdict differs from nothing the reference has).
    pub fn mismatches(&self, got: &Verdicts) -> u64 {
        let want = &self.verdicts;
        let common = want.len().min(got.len());
        let differing = (0..common)
            .filter(|&i| want.tweets[i] != got.tweets[i] || want.spam[i] != got.spam[i])
            .count();
        (differing + want.len().max(got.len()) - common) as u64
    }

    /// Scores `got` against the oracle, position by position. Positions
    /// the reference does not have carry no oracle label and are skipped
    /// (they already count as mismatches).
    pub fn quality(&self, got: &Verdicts) -> Quality {
        let (mut tp, mut fp, mut tn, mut fn_) = (0u64, 0u64, 0u64, 0u64);
        for (&spam, &truth) in got.spam.iter().zip(&self.truth) {
            match (spam, truth) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, false) => tn += 1,
                (false, true) => fn_ += 1,
            }
        }
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        Quality {
            precision: ratio(tp, tp + fp),
            recall: ratio(tp, tp + fn_),
            specificity: ratio(tn, tn + fp),
        }
    }
}

/// One parsed line of the daemon's verdict stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictLine {
    pub seq: u64,
    pub tweet: u64,
    pub spam: bool,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn parse_line(line: &str) -> Option<VerdictLine> {
    Some(VerdictLine {
        seq: field(line, "\"seq\":")?.parse().ok()?,
        tweet: field(line, "\"tweet\":")?.parse().ok()?,
        spam: field(line, "\"spam\":")?.parse().ok()?,
    })
}

/// Incremental parser over the bytes a tailer reads off a growing
/// NDJSON file. A read may end mid-line (the daemon's writer flushes
/// whenever its buffer fills, not only at line ends): the unfinished
/// tail is carried over and completed by the next read, never parsed.
#[derive(Debug, Default)]
pub struct TailParser {
    carry: Vec<u8>,
    /// Complete lines that did not parse as a verdict.
    pub malformed: u64,
}

impl TailParser {
    /// Feeds newly read bytes; appends every line they complete to `out`.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<VerdictLine>) {
        self.carry.extend_from_slice(bytes);
        let Some(last_newline) = self.carry.iter().rposition(|&b| b == b'\n') else {
            return;
        };
        let rest = self.carry.split_off(last_newline + 1);
        for line in self.carry.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            match std::str::from_utf8(line).ok().and_then(parse_line) {
                Some(verdict) => out.push(verdict),
                None => self.malformed += 1,
            }
        }
        self.carry = rest;
    }

    /// Bytes of an unfinished last line still waiting for their newline.
    pub fn pending(&self) -> usize {
        self.carry.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINES: &str = concat!(
        "{\"seq\":0,\"hour\":12,\"tweet\":90312,\"author\":451,\"spam\":true,\"score\":0.8142857142857143}\n",
        "{\"seq\":1,\"hour\":12,\"tweet\":90313,\"author\":7,\"spam\":false,\"score\":0}\n",
        "{\"seq\":2,\"hour\":13,\"tweet\":90400,\"author\":9,\"spam\":false,\"score\":0.1,\"margin\":-0.8,\"top_features\":[{\"feature\":\"no_lists\",\"delta\":0.21}]}\n",
    );

    #[test]
    fn parses_whole_lines_including_explained_ones() {
        let mut parser = TailParser::default();
        let mut out = Vec::new();
        parser.feed(LINES.as_bytes(), &mut out);
        assert_eq!(
            out,
            vec![
                VerdictLine {
                    seq: 0,
                    tweet: 90312,
                    spam: true,
                },
                VerdictLine {
                    seq: 1,
                    tweet: 90313,
                    spam: false,
                },
                VerdictLine {
                    seq: 2,
                    tweet: 90400,
                    spam: false,
                },
            ]
        );
        assert_eq!((parser.pending(), parser.malformed), (0, 0));
    }

    #[test]
    fn a_partially_flushed_last_line_waits_for_its_newline() {
        // Every split point of the stream, including mid-number and
        // exactly on a newline, yields the same lines in the end and
        // never a line parsed from a fragment.
        let bytes = LINES.as_bytes();
        let mut whole = Vec::new();
        TailParser::default().feed(bytes, &mut whole);
        for cut in 0..=bytes.len() {
            let mut parser = TailParser::default();
            let mut out = Vec::new();
            parser.feed(&bytes[..cut], &mut out);
            let complete = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
            assert_eq!(out.len(), complete, "cut at {cut}");
            parser.feed(&bytes[cut..], &mut out);
            assert_eq!(out, whole, "cut at {cut}");
            assert_eq!((parser.pending(), parser.malformed), (0, 0));
        }
    }

    #[test]
    fn a_garbled_complete_line_is_counted_not_parsed() {
        let mut parser = TailParser::default();
        let mut out = Vec::new();
        parser.feed(b"{\"seq\":0,\"tweet\":x}\nnot json\n", &mut out);
        assert!(out.is_empty());
        assert_eq!(parser.malformed, 2);
    }

    fn sample() -> Verdicts {
        let mut v = Verdicts::default();
        v.push(90312, true);
        v.push(90313, false);
        v.push(90400, false);
        v
    }

    #[test]
    fn digest_is_stable_and_sensitive_to_every_field() {
        // Pinned to zlib.crc32 over struct.pack('<QQB', seq, tweet, spam):
        // a change to the digest's byte layout must be deliberate, since
        // digests in result files are compared across runs.
        assert_eq!(sample().digest(), 0xC33C_4426);
        assert_eq!(Verdicts::default().digest(), 0);
        let mut flipped = sample();
        flipped.spam[1] = true;
        assert_ne!(flipped.digest(), sample().digest());
        let mut other_tweet = sample();
        other_tweet.tweets[2] += 1;
        assert_ne!(other_tweet.digest(), sample().digest());
        // Order is part of the digest: seq rides along.
        let mut swapped = sample();
        swapped.tweets.swap(1, 2);
        assert_ne!(swapped.digest(), sample().digest());
    }

    #[test]
    fn mismatches_count_differing_missing_and_surplus_verdicts() {
        let reference = Reference {
            verdicts: sample(),
            truth: vec![true, false, true],
            per_hour: vec![2, 1],
        };
        assert_eq!(reference.mismatches(&sample()), 0);
        let mut short = sample();
        short.tweets.pop();
        short.spam.pop();
        assert_eq!(reference.mismatches(&short), 1);
        let mut long = sample();
        long.push(1, false);
        long.spam[0] = false;
        assert_eq!(reference.mismatches(&long), 2);
        assert_eq!(reference.mismatches(&Verdicts::default()), 3);
    }

    #[test]
    fn quality_scores_against_the_oracle() {
        let reference = Reference {
            verdicts: sample(),
            truth: vec![true, false, true],
            per_hour: vec![3],
        };
        // tp 1 (seq 0), tn 1 (seq 1), fn 1 (seq 2), fp 0.
        let q = reference.quality(&sample());
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 0.5);
        assert_eq!(q.specificity, 1.0);
    }
}
