//! The one file format every store file shares, and its recovery rule.
//!
//! Each file opens with a 12-byte header — an 8-byte magic naming the
//! file kind (`PHSTSEG\x01`, `PHSTCKP\x01`, `PHSTJNL\x01`, …) and the
//! `u32` format version [`FORMAT_VERSION`] — followed by frames:
//!
//! ```text
//! [0..4)  u32  payload length (at most MAX_RECORD_LEN)
//! [4..8)  u32  CRC-32 of the payload
//! [8..)        payload
//! ```
//!
//! All integers are little-endian. A segment file carries 12 more header
//! bytes of its own (record count, first record index) between the
//! header and its first frame.
//!
//! **Recovery rule**: frames are read front to back, and the first short,
//! oversized (`> MAX_RECORD_LEN`) or CRC-failing frame ends the valid
//! prefix. Writers truncate everything after it when they reopen a file
//! (the segment and checkpoint logs); readers stop there (the sidecar
//! streams and the segment reader).
//!
//! The sidecar streams (`journal.log`, `series.log`, `explain.log`,
//! `drift.log`, `flight.log`, `trace.log`) are whole files of frames,
//! written truncate-and-replace by [`write_framed`] and read back by
//! [`read_framed`].

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

/// Format version written after every file's magic.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Byte length of the magic + version file header.
pub(crate) const HEADER_LEN: u64 = 12;

/// Per-frame overhead (length + CRC).
pub const FRAME_OVERHEAD: u64 = 8;

/// Upper bound on a single frame payload; larger declared lengths are
/// treated as corruption (prevents absurd allocations on torn frames).
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// The file header for `magic`.
pub(crate) fn header(magic: &[u8; 8]) -> [u8; HEADER_LEN as usize] {
    let mut out = [0u8; HEADER_LEN as usize];
    out[..8].copy_from_slice(magic);
    out[8..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out
}

/// Reads a file header off `reader`: `Ok(false)` when it is short or
/// names another magic or version.
pub(crate) fn read_header<R: Read>(reader: &mut R, magic: &[u8; 8]) -> io::Result<bool> {
    let mut bytes = [0u8; HEADER_LEN as usize];
    Ok(fill(reader, &mut bytes)? == bytes.len() && bytes == header(magic))
}

/// Appends `payload` to `out` as one frame.
pub(crate) fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crate::crc::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// What [`read_frame`] found at the reader's position.
pub(crate) enum Frame {
    /// An intact frame's payload.
    Intact(Vec<u8>),
    /// A whole frame whose CRC does not match. It ends the valid prefix,
    /// but the next frame's position is still known.
    Corrupt,
    /// A short or oversized frame: the valid prefix ends and nothing
    /// after it can be framed.
    Torn,
    /// End of input, exactly at a frame boundary.
    End,
}

/// Reads the next frame off `reader`.
pub(crate) fn read_frame<R: Read>(reader: &mut R) -> io::Result<Frame> {
    let mut head = [0u8; FRAME_OVERHEAD as usize];
    match fill(reader, &mut head)? {
        0 => return Ok(Frame::End),
        n if n < head.len() => return Ok(Frame::Torn),
        _ => {}
    }
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN {
        return Ok(Frame::Torn);
    }
    let mut payload = vec![0u8; len as usize];
    if fill(reader, &mut payload)? < payload.len() {
        return Ok(Frame::Torn);
    }
    Ok(if crate::crc::crc32(&payload) == crc {
        Frame::Intact(payload)
    } else {
        Frame::Corrupt
    })
}

/// The payloads of the valid prefix of the frames left in `reader`.
pub(crate) fn read_prefix<R: Read>(reader: &mut R) -> io::Result<Vec<Vec<u8>>> {
    let mut payloads = Vec::new();
    while let Frame::Intact(payload) = read_frame(reader)? {
        payloads.push(payload);
    }
    Ok(payloads)
}

/// Writes `payloads` as the whole framed file at `path`
/// (truncate-and-replace) and fsyncs it.
pub(crate) fn write_framed(path: &Path, magic: &[u8; 8], payloads: &[Vec<u8>]) -> io::Result<()> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    let mut out = Vec::with_capacity(
        HEADER_LEN as usize
            + payloads
                .iter()
                .map(|p| FRAME_OVERHEAD as usize + p.len())
                .sum::<usize>(),
    );
    out.extend_from_slice(&header(magic));
    for payload in payloads {
        put_frame(&mut out, payload);
    }
    file.write_all(&out)?;
    file.sync_all()?;
    ph_telemetry::cached_counter!("store.bytes_written").add(out.len() as u64);
    Ok(())
}

/// The payloads of the valid prefix of the framed file at `path`. Fails
/// with `InvalidData` when the file does not open with `magic` at the
/// current version, and with `NotFound` when it is missing.
pub(crate) fn read_framed(path: &Path, magic: &[u8; 8]) -> io::Result<Vec<Vec<u8>>> {
    let mut reader = BufReader::new(File::open(path)?);
    if !read_header(&mut reader, magic)? {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} does not open with the expected ph-store header",
                path.display()
            ),
        ));
    }
    read_prefix(&mut reader)
}

/// [`read_framed`] on the sidecar `file` of the store in `dir`, with no
/// payloads when the store has no such file (the run did not write that
/// stream, or crashed before it could).
pub(crate) fn read_sidecar(dir: &Path, file: &str, magic: &[u8; 8]) -> io::Result<Vec<Vec<u8>>> {
    match read_framed(&dir.join(file), magic) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// Reads into `buf` until it is full or the input ends; returns the
/// bytes read (fewer than `buf.len()` is a torn write, not an I/O error).
pub(crate) fn fill<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = header(b"PHSTTST\x01").to_vec();
        for p in payloads {
            put_frame(&mut out, p);
        }
        out
    }

    #[test]
    fn another_magic_or_version_or_a_short_header_is_rejected() {
        let bytes = framed(&[]);
        assert!(!read_header(&mut &bytes[..], b"PHSTOTH\x01").unwrap());
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 2;
        assert!(!read_header(&mut &wrong_version[..], b"PHSTTST\x01").unwrap());
        assert!(!read_header(&mut &bytes[..11], b"PHSTTST\x01").unwrap());
    }

    #[test]
    fn the_first_bad_frame_ends_the_prefix() {
        let good = framed(&[b"keep", b"drop"])[HEADER_LEN as usize..].to_vec();
        let second = FRAME_OVERHEAD as usize + 4;
        // Short: the second frame cut one byte before its end.
        let short = &good[..good.len() - 1];
        assert_eq!(
            read_prefix(&mut &short[..]).unwrap(),
            vec![b"keep".to_vec()]
        );
        // CRC-failing: a flipped payload byte, the frame itself whole.
        let mut flipped = good.clone();
        flipped[second + FRAME_OVERHEAD as usize] ^= 0xFF;
        let mut reader = &flipped[..];
        assert!(matches!(read_frame(&mut reader).unwrap(), Frame::Intact(_)));
        assert!(matches!(read_frame(&mut reader).unwrap(), Frame::Corrupt));
        assert!(matches!(read_frame(&mut reader).unwrap(), Frame::End));
        // Oversized: a declared length past the cap.
        let mut oversized = good;
        oversized[second..second + 4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        let mut reader = &oversized[..];
        assert!(matches!(read_frame(&mut reader).unwrap(), Frame::Intact(_)));
        assert!(matches!(read_frame(&mut reader).unwrap(), Frame::Torn));
    }
}
